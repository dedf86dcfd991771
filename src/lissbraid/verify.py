"""Cross-validation suites wiring the exact and numeric routes together.

Each suite returns a list of (case, ok, detail) triples; the CLI prints
one line per case and fails the run when any case fails.  No suite is
randomized; each keeps an unused `seed` keyword for the benchmark's calls.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd

from .algebra import _ab_to_reduced, ab_to_matrix, frieze_w
from .classify import clusters_of, enumerate_labels, enumerate_p0, level_slope_of, type_of
from .errors import LissbraidError
from .lissajous import build_H, build_W, epsilon_seq, is_collision_free, normalize
from .shapetrace import (
    COLLISION_EPS,
    SEPARATION_EPS,
    collision_scan,
    epsilon_oracle,
    syzygy_oracle,
)
from .surd import cf_expand, far_endpoint, matches_cluster_period
from .syzygy import syzygy_sequence

Case = tuple[str, bool, str]


def normalized_types(max_m: int, max_n: int):
    """All collision-free normalized types in the box, primitive or not."""
    for m in range(-max_m, max_m + 1):
        if m % 3 != 1:
            continue
        for n in range(-max_n, max_n + 1):
            if n % 3 == 1 and gcd(m, n) == 1 and (m - n) // 3 % 2:
                yield m, n


# A suite hands a float oracle at most this many types a call.  An
# epsilon result holds 2|m| ints, so one list for every type at the CLI
# cap |m| <= 2000 would take about 4 GB, and a slice takes at most 8 MB.
# The default box of each suite is one slice.
_ORACLE_SLICE = 256


def _sliced(oracle: Callable[[list], list], items: list):
    """The results of oracle over items, one slice of items a call, so
    that the results of one slice at a time are held."""
    for i in range(0, len(items), _ORACLE_SLICE):
        yield from oracle(items[i:i + _ORACLE_SLICE])


def _clip(detail: str) -> str:
    return detail if len(detail) < 40 else detail[:37] + "..."


def suite_epsilon(max_m: int = 30, seed: int = 0) -> list[Case]:
    """Numeric epsilon bits against the exact ones, whose second half is the
    complement of the first by the proof in lissajous._bits, over the primitive
    types with |m| <= max_m and the fixed box of normalized_types(15, 31)."""
    types = dict.fromkeys(enumerate_p0(max_m))
    types.update(dict.fromkeys(normalized_types(15, 31)))
    nts = [normalize(m, n) for m, n in types]
    out: list[Case] = []
    for (m, n), nt, numeric in zip(types, nts, _sliced(epsilon_oracle, nts), strict=True):
        exact = epsilon_seq(nt)
        out.append((f"epsilon ({m},{n})", numeric == exact, f"{len(exact)} bits"))
    return out


def suite_collision(seed: int = 0) -> list[Case]:
    """Numeric minimum separation against the parity criterion, over the
    fixed box 0 < m <= 10, |n| <= 10 of coprime types prime to 3."""
    pairs = [(m, n) for m in range(1, 11) for n in range(-10, 11)
             if n != 0 and gcd(m, n) == 1 and m % 3 != 0 and n % 3 != 0]
    out: list[Case] = []
    for (m, n), minimum in zip(pairs, collision_scan(pairs), strict=True):
        predicted_free = is_collision_free(m, n)
        ok = minimum > SEPARATION_EPS if predicted_free else minimum < COLLISION_EPS
        out.append(
            (f"collision ({m},{n})", ok,
             f"min={minimum:.2e} predicted={'free' if predicted_free else 'collision'}")
        )
    return out


def suite_bijection(max_m: int = 200, max_sum: int = 100, max_level: int = 10,
                    seed: int = 0) -> list[Case]:
    """Both round trips of the level/slope correspondence.

    Raises LissbraidError when a round trip would run over no type or no
    label: a pass over an empty set checks nothing.
    """
    types, labels = enumerate_p0(max_m), enumerate_labels(max_sum, max_level)
    if not types or not labels:
        raise LissbraidError(f"the bounds select {len(types)} types and {len(labels)} labels; "
                             "each round trip needs at least one")
    out: list[Case] = []
    bad = [t for t in types if type_of(level_slope_of(*t)) != t]
    out.append((f"type->label->type |m|<={max_m}", not bad, f"{len(bad)} failures"))
    bad_labels = [ls for ls in labels if level_slope_of(*type_of(ls)) != ls]
    out.append((f"label->type->label p+q<={max_sum},N<={max_level}", not bad_labels,
                f"{len(bad_labels)} failures"))
    return out


def suite_cf(max_m: int = 60, seed: int = 0) -> list[Case]:
    """The CF of the far endpoint equals [(2r-1)] over the cluster radii."""
    out: list[Case] = []
    for m, n in enumerate_p0(max_m):
        _, mat = frieze_w(build_H(normalize(m, n)))
        cf = cf_expand(far_endpoint(mat))
        radii = clusters_of(level_slope_of(m, n)).radii
        # past 20 terms, "[t1, ..., t20]" has at least 60 characters and agrees
        # with the whole list's string up to its "]", so both clip alike
        out.append((f"cf ({m},{n})", matches_cluster_period(cf, radii),
                    f"period={_clip(str(list(cf.period[:20])))} radii={_clip(str(list(radii[:20])))}"))
    return out


def suite_cluster(max_m: int = 200, seed: int = 0) -> list[Case]:
    """Cluster construction against the direct word, plus word identities.

    The A/B word W_ab translates to W and has its matrix: the two checks of
    ab_to_frieze, made here against the matrix frieze_w already returned.
    frieze_to_matrix builds M(W) as M(H) M(H)^T, so b = c holds by
    construction; the independent product over W_ab is what checks that
    square.  For A = [[0,1],[-1,0]], A M^-1 A = -M^T is M in PSL(2,Z)
    exactly when b = c or M = A, and M(W) has odd trace (frieze_w), so it
    is not A."""
    out: list[Case] = []
    for m, n in enumerate_p0(max_m):
        nt = normalize(m, n)
        h = build_H(nt)
        label = level_slope_of(m, n)
        ok_letters = clusters_of(label).letters == h
        w, mat = frieze_w(h)
        w_ab = build_W(nt)
        ok_w = _ab_to_reduced(w_ab) == w and ab_to_matrix(w_ab) == mat
        ok_sym = mat.b == mat.c
        out.append((f"cluster ({m},{n})", ok_letters and ok_w and ok_sym, f"H={_clip(h)}"))
    return out


def suite_syzygy(max_m: int = 12, seed: int = 0) -> list[Case]:
    """Numeric crossing labels against the symbolic walk, letter for letter."""
    types = enumerate_p0(max_m)
    numerics = _sliced(syzygy_oracle, [normalize(m, n) for m, n in types])
    out: list[Case] = []
    for (m, n), numeric in zip(types, numerics, strict=True):
        symbolic = syzygy_sequence(m, n, periods=1)
        out.append((f"syzygy ({m},{n})", numeric == symbolic, f"{len(symbolic)} letters"))
    return out


SUITES: dict[str, Callable[..., list[Case]]] = {
    "epsilon": suite_epsilon,
    "collision": suite_collision,
    "bijection": suite_bijection,
    "cf": suite_cf,
    "cluster": suite_cluster,
    "syzygy": suite_syzygy,
}
