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

from dataclasses import dataclass
from math import gcd

from .algebra import reduce_frieze
from .errors import CollisionType, DivisibleByThree, InvariantError, NotCoprime


def _sgn(x: int) -> int:
    return 1 if x > 0 else -1


@dataclass(frozen=True)
class NormalizedType:
    """A type with both residues 1 mod 3, plus ell = (m - n) / 3."""

    m: int
    n: int
    ell: int

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


def _signs(nt: NormalizedType, count: int) -> tuple[int, ...]:
    """The first count entries of the sign form of the epsilon sequence.

    bits[k] = floor(x / (2|m|)) mod 2 with x = |ell|(2k - 1), which is 1
    exactly when x mod 4|m| >= 2|m|; the x form an arithmetic progression,
    so the whole sequence is a chain of C-level maps.
    """
    _check_collision_free(nt)
    am, al = abs(nt.m), abs(nt.ell)
    if gcd(am, al) != 1:
        raise NotCoprime(f"gcd(|m|, |ell|) != 1 for {(nt.m, nt.n)}")
    s = _sgn(nt.m * nt.ell)
    xs = range(al, al * (2 * count + 1), 2 * al)
    return tuple(map((-s, s).__getitem__, map((2 * am).__le__, map((4 * am).__rmod__, xs))))


def epsilon_seq(nt: NormalizedType) -> tuple[int, ...]:
    """The 01-sequence bits[k] = floor(|ell|k/|m| - |ell|/(2|m|)) mod 2,
    k = 1..2|m|, whose sign form is sgn(m*ell) * (2*bits[k] - 1).

    Evaluated as floor((2|ell|k - |ell|) / (2|m|)) in exact integers;
    the argument is never an integer since |ell| is odd.
    """
    s = _sgn(nt.m * nt.ell)
    return tuple(int(e == s) for e in _signs(nt, 2 * abs(nt.m)))


# (e_i, e_{i+1}) -> B^{e_i} A^{(e_i - e_{i+1})/2}, with B^-1 written BB
_AB_STEP = {(1, 1): "B", (1, -1): "BA", (-1, -1): "BB", (-1, 1): "BBA"}


def build_W(nt: NormalizedType) -> str:
    """The braid word of one third of the motion's period, in A and B:

        A^{(1 - sgn(m) e_1)/2} B^{e_1} A^{(e_1-e_2)/2} ... B^{e_k} A^{(1 - sgn(m) e_k)/2}

    over the k = 2|m| signs e_i of the epsilon sequence.
    """
    signs, sgn_m = _signs(nt, 2 * abs(nt.m)), _sgn(nt.m)
    head = "A" if sgn_m * signs[0] == -1 else ""
    steps = map(_AB_STEP.__getitem__, zip(signs, signs[1:]))
    last = "B" if signs[-1] == 1 else "BB"
    tail = "A" if sgn_m * signs[-1] == -1 else ""
    return "".join((head, *steps, last, tail))


# sign e_i -> letter of B^{e_i}, keyed by sgn(m)
_H_LETTER = {1: {1: "p", -1: "d"}, -1: {1: "q", -1: "b"}}


def build_H(nt: NormalizedType) -> str:
    """First half of W, as a reduced pbqd-word of odd length.

    As an A/B word, H is W's formula over the first |m| signs with the
    tail exponent (1 - sgn(m) e_1)/2, and B at an even (odd) count of
    A's before it is p (q), B^-1 is b (d).  That count needs no A/B word:
    the A's before B^{e_i} are the head A and one A per sign change, so
    their parity is [sgn(m) e_1 = -1] + [e_i != e_1] mod 2, which is
    [sgn(m) e_i = -1] for either e_1.  So each letter is fixed by its own
    sign and sgn(m): p for +1 and d for -1 when m > 0, q for +1 and b for
    -1 when m < 0.  The half of the epsilon sequence is a palindrome, so
    e_{|m|} = e_1, the sign changes are even in number and the tail A
    matches the head A: the A count is even, as the translation needs.
    """
    table = _H_LETTER[_sgn(nt.m)]
    return reduce_frieze("".join(map(table.__getitem__, _signs(nt, abs(nt.m)))))


def is_primitive(m: int, n: int) -> bool:
    """Membership in the primitive family: mn < 0, residues 1 mod 3,
    m != n mod 6, |m| < |n| <= 2|m|, coprime."""
    if m == 0 or n == 0 or gcd(m, n) != 1:
        return False
    if m % 3 != 1 or n % 3 != 1 or (m - n) % 6 == 0:
        return False
    return m * n < 0 and abs(m) < abs(n) <= 2 * abs(m)


def _window_shift(ell: int, m: int) -> tuple[int, int, int]:
    """Unique ell' in (+-ell + 2mZ) with m*ell' > 0 and |ell'| <= |m|.

    Returns (ell', s, j) with ell' = s*ell + 2*m*j.  Prefers s = +1 when
    both sign classes reach the window (they then agree on ell').  For odd
    ell the residue r of ell mod 2|m| is nonzero, so r or 2|m| - r lies in
    the window: the loop always returns.
    """
    a = abs(m)
    for s in (1, -1):
        r = (s * ell) % (2 * a)
        if m > 0 and 0 < r <= a:
            new = r
        elif m < 0 and r >= a:
            new = r - 2 * a
        else:
            continue
        # new = s*ell (mod 2|m|) by construction, so the division is exact
        return new, s, (new - s * ell) // (2 * m)
    raise InvariantError(f"no window representative for ell={ell}, m={m}")


def reduce_to_p0_detail(nt: NormalizedType) -> tuple[tuple[int, int], bool]:
    """Primitive representative and whether the roles of H got swapped.

    Repeatedly shifts ell into the window m*ell > 0, |ell| <= |m| and
    swaps the roles of m and n while |ell| < (2/3)|m|; each swap strictly
    decreases |m|.  The flag records whether H of the input type equals
    H of the result (False) or of the result with arguments swapped (True).
    """
    _check_collision_free(nt)
    m, ell = nt.m, nt.ell
    swapped = False
    while True:
        ell, s, j = _window_shift(ell, m)
        if (s == -1) != (j % 2 == 1):
            swapped = not swapped
        n = m - 3 * ell
        if 3 * abs(ell) > 2 * abs(m):
            return (m, n), swapped
        swapped = not swapped
        m, ell = n, -ell


def reduce_to_p0(nt: NormalizedType) -> tuple[int, int]:
    """The primitive type whose class contains the given one."""
    return reduce_to_p0_detail(nt)[0]
