"""Reference functions that only the tests call.

Each one restates a property of the paper's objects (letter factors,
inverses, conjugacy and the S3 image of pbqd-words, the level-lifting
substitution, difference sequences and their cluster lengths, the value
of a continued fraction, the square part of a discriminant, reduced
syzygy words, region itineraries and the third-turn symmetry of the
shape curve) that the tests check the package against. No program path
runs them, so they live beside the tests.
"""

from __future__ import annotations

import cmath
import math
from math import gcd

from lissbraid import shapetrace
from lissbraid.algebra import _FACTOR, _INVERSE, check_frieze, reduce_frieze
from lissbraid.lissajous import NormalizedType, _check_collision_free
from lissbraid.shapetrace import _THIRD, DEFAULT_RATIO, psi_values, start_offset
from lissbraid.surd import _PRIMES, _PRIMORIAL, CfExpansion
from lissbraid.words import _check_binary

# --- algebra ---------------------------------------------------------------

_A_CONJUGATE = str.maketrans("pbqd", "qdpb")   # conjugation by A


def factor_of(letter: str) -> int:
    """Free-product factor of a letter: 0 for p,b and 1 for q,d."""
    return _FACTOR[letter]


def frieze_inverse(word: str) -> str:
    """Inverse word (reversed, with each letter inverted in its factor)."""
    return check_frieze(word).translate(_INVERSE)[::-1]


def a_conjugate(word: str) -> str:
    """Conjugation by A, realised letter-wise as p<->q, b<->d."""
    return check_frieze(word).translate(_A_CONJUGATE)


def s3_image(word: str) -> int:
    """Image (123)^k of a pbqd-word in S3 under p,d -> (123), b,q -> (132),
    given as k in {0, 1, 2}: the index-2 subgroup maps onto A3 = <(123)>,
    and (132) = (123)^2, so k = #p + #d + 2(#b + #q) mod 3.
    """
    count = check_frieze(word).count
    return (count("p") + count("d") + 2 * (count("b") + count("q"))) % 3


def _cyclic_reduce(word: str) -> str:
    # each pass conjugates by the last letter, which then merges with the
    # first, so the length drops and the loop ends
    w = reduce_frieze(word)
    while len(w) >= 2 and _FACTOR[w[0]] == _FACTOR[w[-1]]:
        w = reduce_frieze(w[-1] + w[:-1])
    return w


def cyclically_equal(w1: str, w2: str) -> bool:
    """Conjugacy test in the free product: cyclic reductions agree up to rotation."""
    u, v = _cyclic_reduce(w1), _cyclic_reduce(w2)
    if len(u) != len(v):
        return False
    if not u:
        return True
    return v in u + u


# --- words -----------------------------------------------------------------


def phi_n(level: int, word: str) -> str:
    """Letter substitution 0 -> (101)^(N-1) 1,  1 -> (101)^N 1."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    image = {"0": "101" * (level - 1) + "1", "1": "101" * level + "1"}
    return "".join(image[ch] for ch in _check_binary(word))


def difference_seq(m_abs: int, ell_abs: int) -> str:
    """One period (length m) of floor(L(k+1/2)/m) - floor(L(k-1/2)/m), L = ell.

    Entries are in {0,1} for ell <= m; this is the mod-2 difference of the
    epsilon bit sequence of a type with these |m| and |ell|.
    """
    if m_abs < 1 or ell_abs < 1 or ell_abs > m_abs or gcd(m_abs, ell_abs) != 1:
        raise ValueError(f"need coprime 1 <= ell <= m, got {(m_abs, ell_abs)}")
    out = []
    for k in range(1, m_abs + 1):
        hi = (2 * ell_abs * k + ell_abs) // (2 * m_abs)
        lo = (2 * ell_abs * k - ell_abs) // (2 * m_abs)
        out.append(str(hi - lo))
    return "".join(out)


def cluster_lengths(word: str, cyclic: bool = True) -> set[int]:
    """Set of lengths of maximal runs of 1s, optionally in the cyclic reading."""
    _check_binary(word)
    if not word:
        return set()
    if cyclic:
        if "0" not in word:
            raise ValueError(f"cyclic word {word!r} has no 0")
        # rotate a 0 to the front so runs never wrap, then read linearly
        i = word.index("0")
        word = word[i:] + word[:i]
    return {len(run) for run in word.split("0") if run}


# --- surd ------------------------------------------------------------------


def cf_evaluate(cf: CfExpansion, nterms: int = 60) -> float:
    """Float value of the expansion truncated to nterms partial quotients.

    Raises ValueError for nterms < 1 and for an empty period, which has
    no terms to repeat."""
    if nterms < 1 or not cf.period:
        raise ValueError(f"cannot evaluate {nterms} terms of {cf}")
    quots = list(cf.preperiod)
    while len(quots) < nterms:
        quots.extend(cf.period)
    quots = quots[:nterms]
    value = float(quots[-1])
    for a in reversed(quots[:-1]):
        value = a + 1.0 / value
    return value


def split_square_by_primes(d: int) -> tuple[int, int]:
    """surd._split_square by the loop over every prime dividing
    g = gcd(d, product of the primes up to 1000), square or not."""
    c, g = 1, gcd(d, _PRIMORIAL)
    for f in _PRIMES:
        if g == 1:
            break
        if g % f == 0:
            g //= f
            while d % (f * f) == 0:
                d //= f * f
                c *= f
    return c, d


# --- syzygy ----------------------------------------------------------------


def is_reduced(seq: str) -> bool:
    """No two cyclically adjacent letters are equal.

    A single letter cyclically adjoins itself, so length 1 is not reduced.
    """
    if not seq:
        return True
    return all(seq[i] != seq[(i + 1) % len(seq)] for i in range(len(seq)))


# --- shapetrace ------------------------------------------------------------

EQ_PERIOD_TOL = 1e-9        # psi(t + 1/3) = omega psi(t) check


def region_itinerary(nt: NormalizedType) -> list[str]:
    """Regions visited over one third of a period (30000 samples), repeats
    compressed: the thirds I, II, III of the angle, whose borders pass
    through the collision points 1, omega, omega^2, with '-' outside the
    equator and '+' inside.  Samples within 1e-7 of the equator or of a
    border ray, and samples at psi = 0, are skipped."""
    import numpy as np
    _check_collision_free(nt)
    delta = start_offset(nt)
    # through the module, so a test can substitute the curve
    psi = shapetrace.psi_values(nt, DEFAULT_RATIO, np.linspace(delta, 1.0 / 3.0 + delta, 30000))
    r = np.abs(psi)
    theta = np.angle(psi) % (2 * math.pi)
    k = theta // _THIRD
    keep = ((np.abs(r - 1.0) >= 1e-7) & (r != 0.0)
            & (np.minimum(theta - k * _THIRD, (k + 1) * _THIRD - theta) >= 1e-7))
    codes = 2 * k[keep].astype(int) + (r[keep] < 1.0)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return [("I", "II", "III")[c // 2] + "-+"[c % 2] for c in codes.tolist()]


def periodicity_defect(nt: NormalizedType) -> float:
    """max |psi(t + 1/3) - omega psi(t)| over 500 sampled t; near 0 by symmetry."""
    import numpy as np
    delta = start_offset(nt)
    ts = np.linspace(delta, 1.0 / 3.0 + delta, 500)
    omega_c = cmath.exp(2j * math.pi / 3)
    left = psi_values(nt, DEFAULT_RATIO, ts + 1.0 / 3.0)
    right = omega_c * psi_values(nt, DEFAULT_RATIO, ts)
    return float(np.max(np.abs(left - right)))
