"""Combinatorics on binary words: Christoffel words and relatives.

Binary words are plain strings over "01".
"""

from __future__ import annotations

from math import gcd

from .errors import MultiplePalindromes, NoPalindrome


_NOT_BINARY = str.maketrans("", "", "01")  # translate deletes the alphabet


def _check_binary(word: str) -> str:
    if word.translate(_NOT_BINARY):
        raise ValueError(f"not a word over '01': {word!r}")
    return word


def _mechanical(p: int, q: int, rho: int) -> str:
    """Mechanical word of slope q/p and intercept 0 <= rho < p+q, k = 1..p+q:
    floor((qk + rho)/(p+q)) - floor((q(k-1) + rho)/(p+q)).

    Symbol k is 1 exactly when a multiple j(p+q) lies in
    (q(k-1) + rho, qk + rho], that is at k = ceil((j(p+q) - rho)/q) for
    j = 1..q, so only the q ones are written.
    """
    if p <= 0 or q < 0 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p > 0, q >= 0, got {(p, q)}")
    s = p + q
    word = bytearray(b"0") * s
    for x in range(s - rho, q * s - rho + 1, s):
        word[-(-x // q) - 1] = 49  # ord("1")
    return word.decode("ascii")


def christoffel(p: int, q: int) -> str:
    """Lower Christoffel word of slope q/p: length p+q, q ones, p zeros.

    The k-th symbol is floor(qk/(p+q)) - floor(q(k-1)/(p+q)).
    """
    return _mechanical(p, q, 0)


def rotations(word: str):
    for i in range(len(word)):
        yield word[i:] + word[:i]


def palindromic_conjugate(word: str) -> str:
    """The unique rotation of the word that is a palindrome.

    Exhaustive rotation scan; uniqueness failures signal that the input
    was not a Christoffel word of odd length.
    """
    _check_binary(word)
    found = {w for w in rotations(word) if w == w[::-1]}
    if not found:
        raise NoPalindrome(f"no palindromic rotation of {word!r}")
    if len(found) > 1:
        raise MultiplePalindromes(f"{len(found)} palindromic rotations of {word!r}")
    return found.pop()


def palindromic_christoffel(p: int, q: int) -> str:
    """The palindromic conjugate of christoffel(p, q), in O(p + q).

    Rotation i of the Christoffel word is the mechanical word with
    intercept i*q mod (p+q); the palindrome is the one with intercept
    (p+q-1)/2.  It exists only for odd p+q: an even palindrome has
    evenly many ones, and coprime p, q with p+q even are both odd.
    """
    word = _mechanical(p, q, (p + q - 1) // 2)
    if len(word) % 2 == 0:
        raise NoPalindrome(f"christoffel({p}, {q}) has even length {len(word)}")
    return word


def varphi_n(level: int, word: str) -> tuple[int, ...]:
    """Letter replacement 0 -> N, 1 -> N+1."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return tuple(map({"0": level, "1": level + 1}.__getitem__, _check_binary(word)))


def radius_blocks(level: int, word: str, pairs: tuple[str, ...]) -> str:
    """Letter i of the word, read as the radius r = N (0) or N+1 (1), becomes
    the block (xy)^(r-1) x with (x, y) = pairs[i % len(pairs)]."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    _check_binary(word)
    k = len(pairs)
    blocks = [""] * len(word)
    for i, (x, y) in enumerate(pairs):
        table = {"0": (x + y) * (level - 1) + x, "1": (x + y) * level + x}
        blocks[i::k] = map(table.__getitem__, word[i::k])
    return "".join(blocks)
