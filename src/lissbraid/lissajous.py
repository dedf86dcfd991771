"""Lissajous types, the collision criterion, and the braid words W and H.

A type is a coprime pair (m, n) of nonzero frequencies for the curve
sin(2*pi*m*t) + i*sin(2*pi*n*t).  Types with 3 | mn degenerate; the
rest normalize (by harmless sign flips) to m = n = 1 mod 3, and the
motion of the three points L(t-1/3), L(t), L(t+1/3) is collision-free
exactly when ell = (m-n)/3 is odd.  For collision-free types the braid
word W of a third of a period is an A/B word built from a doubly
palindromic 01-sequence of length 2|m|; its first half H is written as
a pbqd-word straight from the first |m| signs of that sequence.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .algebra import reduce_two_letter
from .errors import CollisionType, DivisibleByThree, NotCoprime
from .words import _mechanical

_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_FLIPPED_VALUES = bytes.maketrans(b"01", b"\1\0")


class NormalizedType(namedtuple("NormalizedType", "m n ell")):
    """A type with both residues 1 mod 3, plus ell = (m - n) / 3."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "ell": self.ell}


def normalize(m: int, n: int) -> NormalizedType:
    """Flip signs of m and n independently until both are 1 mod 3."""
    if m == 0 or n == 0:
        raise NotCoprime(f"frequencies must be nonzero: {(m, n)}")
    if m % 3 == 0 or n % 3 == 0:
        raise DivisibleByThree(f"3 divides a frequency of {(m, n)}")
    if gcd(m, n) != 1:
        raise NotCoprime(f"gcd{(m, n)} != 1")
    m_star = m if m % 3 == 1 else -m
    n_star = n if n % 3 == 1 else -n
    return NormalizedType(m_star, n_star, (m_star - n_star) // 3)


def is_collision_free(m: int, n: int) -> bool:
    """True iff 3 does not divide mn and the normalized ell is odd."""
    if gcd(m, n) != 1:
        raise NotCoprime(f"gcd{(m, n)} != 1")
    if m == 0 or n == 0 or m % 3 == 0 or n % 3 == 0:
        return False
    return normalize(m, n).ell % 2 != 0


def _check_collision_free(nt: NormalizedType) -> None:
    if nt.ell % 2 == 0:
        raise CollisionType(f"type {(nt.m, nt.n)} has even ell = {nt.ell}")


def _bits(nt: NormalizedType) -> tuple[int, str]:
    """The sign s = sgn(m*ell) and the first M = |m| bits of the epsilon
    sequence, as a string over "01".

    bits[k] = floor((2k - 1)L/2M) mod 2, k >= 1, with L = |ell| odd and
    coprime to M.  The bits are the prefix parities of a Christoffel
    rotation, in three steps:

    - L = L' + 2Mj with 0 < L' < 2M: floor((2k - 1)(L' + 2Mj)/2M) gains
      (2k - 1)j, whose parity is j's, so the bits of L are those of L'
      complemented when j is odd.
    - (2k - 1)L'/2M is never an integer, as its numerator is odd, so
      floor((2k - 1)(2M - L')/2M) = 2k - 2 - floor((2k - 1)L'/2M): L' and
      2M - L' give the same parity.  So L' may be taken in (0, M], where
      the first bit, floor(L'/2M), is 0 before the complement.
    - (2k + 1)L'/2M = (c + 1/2)/M with the integer c = kL' + (L' - 1)/2,
      and no multiple of M lies in (c, c + 1/2], so
      floor((2k + 1)L'/2M) = floor((kL' + (L' - 1)/2)/M).  The increments
      bits[k+1] - bits[k] mod 2, k = 1..M - 1, are therefore the first
      M - 1 letters of the mechanical word of slope L'/(M - L') and
      intercept (L' - 1)/2; L' = M only at M = 1, which has none.

    The first bit and the M - 1 increments, read as one binary number,
    take their prefix parities in ceil(log2 M) XOR-shifts.  The next M bits
    are their complement, bits[M + k] = 1 - bits[k], since
    floor((2k - 1)L/2M) grows by the odd L when k grows by M.
    """
    _check_collision_free(nt)
    am, al = abs(nt.m), abs(nt.ell)
    if gcd(am, al) != 1:
        raise NotCoprime(f"gcd(|m|, |ell|) != 1 for {(nt.m, nt.n)}")
    j, lp = divmod(al, 2 * am)
    lp = min(lp, 2 * am - lp)
    inc = _mechanical(am - lp, lp, (lp - 1) // 2)[:am - 1] if lp < am else ""
    x = int("01"[j % 2] + inc, 2)
    for i in range((am - 1).bit_length()):   # ceil(log2 M) rounds
        x ^= x >> (1 << i)
    return (1 if nt.m * nt.ell > 0 else -1), format(x, f"0{am}b")


def _sign_word(nt: NormalizedType, minus: str, plus: str) -> str:
    """The first |m| signs s * (2*bits[k] - 1), -1 as minus and +1 as plus."""
    s, bits = _bits(nt)
    return bits.translate(str.maketrans("01", minus + plus if s == 1 else plus + minus))


def epsilon_seq(nt: NormalizedType) -> tuple[int, ...]:
    """The 01-sequence bits[k] = floor(|ell|k/|m| - |ell|/(2|m|)) mod 2,
    k = 1..2|m|, whose sign form is sgn(m*ell) * (2*bits[k] - 1): the |m|
    bits of _bits, then their complement."""
    half = _bits(nt)[1].encode()
    return tuple(half.translate(_DIGIT_VALUES) + half.translate(_FLIPPED_VALUES))


def build_W(nt: NormalizedType) -> str:
    """The braid word of one third of the motion's period, in A and B:

        A^{(1 - sgn(m) e_1)/2} B^{e_1} A^{(e_1-e_2)/2} ... B^{e_k} A^{(1 - sgn(m) e_k)/2}

    over the k = 2|m| signs e_i of the epsilon sequence.  A^{+-1} = A, so
    an A stands at each sign change; B^-1 is written BB.  e_{|m|+i} = -e_i,
    as the bits of the second half complement the first (_bits).
    """
    half = _sign_word(nt, "b", "B")
    signs = half + half.swapcase()
    minus_m = "b" if nt.m > 0 else "B"   # the sign e with sgn(m) e = -1
    head = "A" if signs[0] == minus_m else ""
    tail = "A" if signs[-1] == minus_m else ""
    body = signs.replace("Bb", "BAb").replace("bB", "bAB").replace("b", "BB")
    return head + body + tail


def build_H(nt: NormalizedType) -> str:
    """First half of W, as a reduced pbqd-word of odd length.

    As an A/B word, H is W's formula over the first |m| signs with the
    tail exponent (1 - sgn(m) e_1)/2, and B at an even (odd) count of
    A's before it is p (q), B^-1 is b (d).  That count needs no A/B word:
    the A's before B^{e_i} are the head A and one A per sign change, so
    their parity is [sgn(m) e_1 = -1] + [e_i != e_1] mod 2, which is
    [sgn(m) e_i = -1] for either e_1.  So each letter is fixed by its own
    sign and sgn(m): x = p for +1 and y = d for -1 when m > 0, x = q for
    +1 and y = b for -1 when m < 0.  The half of the epsilon sequence is
    a palindrome, so e_{|m|} = e_1, the sign changes are even in number
    and the tail A matches the head A: the A count is even, as the
    translation needs.  x and y lie in different free factors, so
    reduce_two_letter reduces the word over them.  A primitive type's sign
    word has no cube: |ell|/|m| lies in (2/3, 1], so floor(|ell|(2k-1)/2|m|)
    steps by 0 or 1 and never by 0 twice: no three equal signs in a row.
    """
    x, y = ("p", "d") if nt.m > 0 else ("q", "b")
    return reduce_two_letter(_sign_word(nt, y, x), x, y)


def is_primitive(m: int, n: int) -> bool:
    """Membership in the primitive family: mn < 0, residues 1 mod 3,
    m != n mod 6, |m| < |n| <= 2|m|, coprime."""
    if m == 0 or n == 0 or gcd(m, n) != 1:
        return False
    if m % 3 != 1 or n % 3 != 1 or (m - n) % 6 == 0:
        return False
    return m * n < 0 and abs(m) < abs(n) <= 2 * abs(m)


def reduce_to_p0(nt: NormalizedType) -> tuple[int, int]:
    """The primitive type whose class contains the given one.

    The class moves ell to the one ell' in (+-ell + 2mZ) with m*ell' > 0
    and |ell'| <= |m|, and swaps the roles of m and n = m - 3ell' while
    3|ell'| <= 2|m|.  On M = |m| and L = |ell| the shift is
    L <- min(L mod 2M, 2M - L mod 2M), and the swap, as ell' has the
    sign of m, is M <- |M - 3L| with L kept.  L stays odd, so it is never
    0.  While M >= 4L, a swap leaves M - 3L >= L, where the shift keeps L
    and 3L > 2M fails; so those swaps are one step, M <- (M - L) mod 3L + L
    (ell = +-1 then takes at most 2 steps).  Every m of the chain is
    m - 3ell' of the one before, 1 mod 3 as the input's, so M mod 3 gives
    the sign of m and ell takes that sign.
    """
    _check_collision_free(nt)
    big_m, big_l = abs(nt.m), abs(nt.ell)
    while True:
        r = big_l % (2 * big_m)
        big_l = min(r, 2 * big_m - r)
        if 3 * big_l > 2 * big_m:
            break
        if big_m >= 4 * big_l:
            big_m = (big_m - big_l) % (3 * big_l) + big_l
        else:
            big_m = abs(big_m - 3 * big_l)
    m, ell = (big_m, big_l) if big_m % 3 == 1 else (-big_m, -big_l)
    return m, m - 3 * ell
