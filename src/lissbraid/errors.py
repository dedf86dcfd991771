"""Exception types shared across the package."""


class LissbraidError(Exception):
    """Base class for all domain errors raised by this package."""


class InvariantError(LissbraidError):
    """An exact identity the computation relies on failed: a defect, not bad input."""


class DivisibleByThree(LissbraidError):
    """One of the frequencies is a multiple of 3; the motion degenerates."""


class NotCoprime(LissbraidError):
    """The two frequencies share a common factor."""


class CollisionType(LissbraidError):
    """The 3-body motion of this type has collisions (even ell)."""


class NotPrimitive(LissbraidError):
    """The type is not a member of the primitive family."""


class InvalidLabel(LissbraidError):
    """A level/slope label violates the gcd constraints."""


class OddACount(LissbraidError):
    """An A,B-word with an odd number of A's lies outside the index-2 subgroup."""


class NotPalindromic(LissbraidError):
    """A word expected to be a letter palindrome is not."""


class NoPalindrome(LissbraidError):
    """No rotation of the word is a palindrome."""


class MultiplePalindromes(LissbraidError):
    """More than one rotation of the word is a palindrome."""


class NotHyperbolic(LissbraidError):
    """The matrix has trace of absolute value <= 2."""


class TranslationForm(LissbraidError):
    """The matrix fixes infinity (c = 0), so both endpoints are not finite surds."""


class Unstable(LissbraidError):
    """A numeric oracle failed to stabilise under amplitude refinement."""


class BorderHit(LissbraidError):
    """A numeric crossing landed too close to a collision point."""

