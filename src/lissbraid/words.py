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
    """Mechanical word of slope q/p and intercept rho, k = 1..p+q:
    floor((qk + rho)/(p+q)) - floor((q(k-1) + rho)/(p+q)).

    Adding p+q to rho adds 1 to both floors, so the word depends only on
    rho mod (p+q): every integer rho is an intercept.

    The lower Christoffel word c(p, q) (rho = 0) comes from Euclid on
    (p, q), top down.  For q >= 1, c(p, q) ends in 1 and has ceil(jp/q)
    zeros before its j-th 1, as symbol k is 1 where qk first reaches
    j(p+q).  The Christoffel morphism G: 0 -> 0, 1 -> 01 adds j zeros
    before the j-th 1, so G(c(p - q, q)) = c(p, q) for p > q.  Reversal
    with 0 <-> 1 takes c(p, q) to c(q, p) and conjugates G into
    D: 0 -> 01, 1 -> 1, so D(c(p, q - p)) = c(p, q) for q > p.  X and Y
    are the images of 0 and 1 under the morphisms composed so far: a
    quotient step p = kq + r applies G^k, Y <- X^k Y, and q = kp + r
    applies D^k, X <- X Y^k.  Euclid ends at c(1, 0) = 0 or c(0, 1) = 1,
    so the word is X or Y.  The steps alternate, so each new string is at
    least as long as the two before it together: the lengths grow like
    Fibonacci numbers up to p + q, and the copies total O(p + q) letters
    in one Python step per partial quotient.

    Rotation i of c(p, q) is the mechanical word with intercept
    iq mod (p+q): floor(q(k + i)/(p+q)) and floor((qk + (iq mod (p+q)))/(p+q))
    differ by a constant.  So intercept rho is rotation
    i = rho * q^-1 mod (p+q), and gcd(q, p+q) = 1 makes the inverse exist.
    """
    if p <= 0 or q < 0 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p > 0, q >= 0, got {(p, q)}")
    s = p + q
    x, y = "0", "1"
    a, b = p, q
    while a and b:
        if a > b:
            k, a = divmod(a, b)
            y = x * k + y
        else:
            k, b = divmod(b, a)
            x = x + y * k
    word = x if a else y
    i = rho * pow(q, -1, s) % s
    return word[i:] + word[:i]


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
    the block (xy)^(r-1) x with (x, y) = pairs[i % len(pairs)].

    Slice translates tag letter i with the byte 2c + letter of its class
    c = i % len(pairs).  As (xy)^N x = (xy)^(N-1) x yx, one str.replace
    per class writes tag 2c + 1 as tag 2c and yx while the string is still
    short, then one more per class writes tag 2c as (xy)^(N-1) x.  A pair
    letter that is also a tag byte would be replaced in turn, so 1 to 64
    pairs are taken, with no letter below chr(2 len(pairs)).
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    k = len(pairs)
    if not 0 < k <= 64 or min("".join(pairs)) < chr(2 * k):
        raise ValueError(f"need 1 to 64 pairs, no letter below chr({2 * k}), got {pairs!r}")
    tagged = bytearray(_check_binary(word), "ascii")
    for c in range(k):
        tagged[c::k] = tagged[c::k].translate(bytes.maketrans(b"01", bytes((2 * c, 2 * c + 1))))
    out = tagged.decode("ascii")
    for c, (x, y) in enumerate(pairs):
        out = out.replace(chr(2 * c + 1), chr(2 * c) + y + x)
    for c, (x, y) in enumerate(pairs):
        out = out.replace(chr(2 * c), (x + y) * (level - 1) + x)
    return out
