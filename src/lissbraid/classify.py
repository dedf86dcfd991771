"""The level/slope correspondence and the cluster construction of H.

Every primitive type (m, n) carries a unique label (N, q/p) with
gcd(p, q) = gcd(p+q, 6) = 1; the correspondence is the pair of exact
integer identities

    p = (3N+1)|ell| - (2N+1)|m|,     |m| = p(3N-2) + q(3N+1),
    q = (2N-1)|m| - (3N-2)|ell|,     |ell| = p(2N-1) + q(2N+1),

and the word H of the type is recovered from the label alone by
concatenating odd clusters whose radii come from the palindromic
conjugate of the Christoffel word of slope q/p.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvalidLabel, NotPrimitive
from .lissajous import is_primitive
from .words import palindromic_christoffel, radius_blocks, varphi_n


class LevelSlope(namedtuple("LevelSlope", "level p q")):
    """Classification label: level N >= 1 and slope q/p >= 0."""

    __slots__ = ()

    def __new__(cls, level: int, p: int, q: int):
        self = tuple.__new__(cls, (level, p, q))
        if level < 1 or p < 1 or q < 0:
            raise InvalidLabel(f"bad label ranges: {self}")
        if gcd(p, q) != 1:
            raise InvalidLabel(f"gcd(p, q) != 1: {self}")
        if gcd(p + q, 6) != 1:
            raise InvalidLabel(f"gcd(p + q, 6) != 1: {self}")
        return self

    @property
    def slope_str(self) -> str:
        return f"{self.q}/{self.p}"

    def to_json_dict(self) -> dict:
        return {"level": self.level, "slope": self.slope_str}

    def __str__(self) -> str:
        return f"(N={self.level}, {self.slope_str})"


class ClusterSeq(namedtuple("ClusterSeq", "radii letters")):
    """Palindromic radii in {N, N+1} and the induced cluster word.

    The word is a concatenation of blocks (xy)^(r-1) x, alternating
    between the left alphabet {b,d} and the right alphabet {p,q}; at
    each junction b pairs with q and d pairs with p, so the blocks cycle
    through (x, y) = (d, b), (p, q) or through (b, d), (q, p).
    """

    __slots__ = ()


def level_slope_of(m: int, n: int) -> LevelSlope:
    """Label of a primitive type, by exact integer inequalities."""
    if not is_primitive(m, n):
        raise NotPrimitive(f"{(m, n)} is not primitive")
    big_m, big_l = abs(m), abs((m - n) // 3)
    # unique N in the half-open interval of length 1 determined by
    # (2N+1)/(3N+1) < |ell|/|m| <= (2N-1)/(3N-2)
    level = (2 * big_l - big_m) // (3 * big_l - 2 * big_m)
    p = (3 * level + 1) * big_l - (2 * level + 1) * big_m
    q = (2 * level - 1) * big_m - (3 * level - 2) * big_l
    return LevelSlope(level, p, q)


def type_of(label: LevelSlope) -> tuple[int, int]:
    """Primitive type of a label; inverse of level_slope_of.

    Every valid label gives a primitive type: m and n have opposite signs,
    |n| = |m| + p + q <= 2|m|, both are 1 mod 3 because 3 does not divide
    |m| = p + q (mod 3), ell is odd because p + q is, and
    gcd(|m|, |n|) = gcd(3q, p + q) = 1.
    """
    level, p, q = label
    big_m = p * (3 * level - 2) + q * (3 * level + 1)
    big_l = p * (2 * level - 1) + q * (2 * level + 1)
    s = 1 if big_m % 3 == 1 else -1
    m = s * big_m
    n = m - 3 * s * big_l
    return m, n


def clusters_of(label: LevelSlope) -> ClusterSeq:
    """Cluster form of H for a label: radii and the word."""
    word = palindromic_christoffel(label.p, label.q)
    # |m| = p(3N-2) + q(3N+1) = p + q (mod 3), and m > 0 iff |m| = 1 (mod 3)
    pairs = ("db", "pq") if (label.p + label.q) % 3 == 1 else ("bd", "qp")
    return ClusterSeq(radii=varphi_n(label.level, word),
                      letters=radius_blocks(label.level, word, pairs))


def enumerate_p0(max_m: int) -> list[tuple[int, int]]:
    """All primitive types with |m| <= max_m, in (|m|, |n|) order.

    n = 1 (mod 3) with m, n of opposite signs and m - n odd says
    |m| + |n| = 3 (mod 6), so |n| runs through that one class mod 6.
    """
    out = []
    for am in range(1, max_m + 1):
        if am % 3 == 0:
            continue
        sign = 1 if am % 3 == 1 else -1
        first = am + 1 + (2 - 2 * am) % 6
        out += [(sign * am, -sign * an) for an in range(first, 2 * am + 1, 6) if gcd(am, an) == 1]
    return out


def enumerate_labels(max_sum: int, max_level: int) -> list[LevelSlope]:
    """All labels with p + q <= max_sum and level <= max_level."""
    out = []
    for s in range(1, max_sum + 1):
        if gcd(s, 6) != 1:
            continue
        for q in range(0, s):
            p = s - q
            if gcd(p, q) != 1:
                continue
            for level in range(1, max_level + 1):
                out.append(LevelSlope(level, p, q))
    return sorted(out, key=lambda l: (l.level, l.p + l.q, l.q))
