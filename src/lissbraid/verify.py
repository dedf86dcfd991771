"""Cross-validation suites wiring the exact and numeric routes together.

Each suite returns a list of (case, ok, detail) triples; the CLI prints
one line per case and fails the run when any case fails.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from math import gcd

from .algebra import A_MAT, ab_to_frieze, cyclically_equal, frieze_w
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
        if m == 0 or m % 3 != 1:
            continue
        for n in range(-max_n, max_n + 1):
            if n == 0 or n % 3 != 1 or gcd(m, n) != 1:
                continue
            if ((m - n) // 3) % 2 == 0:
                continue
            yield m, n


def suite_epsilon(max_m: int = 30, nonprimitive_max: int = 15, **_) -> list[Case]:
    """Numeric epsilon bits against the exact floor formula."""
    types = dict.fromkeys(enumerate_p0(max_m))
    types.update(dict.fromkeys(normalized_types(nonprimitive_max, 2 * nonprimitive_max + 1)))
    out: list[Case] = []
    for m, n in types:
        nt = normalize(m, n)
        exact = epsilon_seq(nt)
        numeric = epsilon_oracle(nt)
        out.append((f"epsilon ({m},{n})", numeric == exact, f"{len(exact)} bits"))
    return out


def suite_collision(max_freq: int = 10, **_) -> list[Case]:
    """Numeric minimum separation against the parity criterion."""
    out: list[Case] = []
    for m in range(1, max_freq + 1):
        for n in range(-max_freq, max_freq + 1):
            if n == 0 or gcd(m, n) != 1 or m % 3 == 0 or n % 3 == 0:
                continue
            predicted_free = is_collision_free(m, n)
            minimum = collision_scan(m, n)
            ok = minimum > SEPARATION_EPS if predicted_free else minimum < COLLISION_EPS
            out.append(
                (f"collision ({m},{n})", ok,
                 f"min={minimum:.2e} predicted={'free' if predicted_free else 'collision'}")
            )
    return out


def suite_bijection(max_m: int = 200, max_sum: int = 100, max_level: int = 10, **_) -> list[Case]:
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


def suite_cf(max_m: int = 60, **_) -> list[Case]:
    """CF periods: entries odd and cyclically equal to (2r-1)."""
    out: list[Case] = []
    for m, n in enumerate_p0(max_m):
        _, mat = frieze_w(build_H(normalize(m, n)))
        cf = cf_expand(far_endpoint(mat))
        radii = clusters_of(level_slope_of(m, n)).radii
        odd = all(a % 2 == 1 for a in cf.period)
        match = matches_cluster_period(cf, radii)
        out.append((f"cf ({m},{n})", odd and match,
                    f"period={list(cf.period)} radii={list(radii)}"))
    return out


def suite_cluster(max_m: int = 200, seed: int = 0, **_) -> list[Case]:
    """Cluster construction against the direct word, plus word identities."""
    rng = random.Random(seed)
    out: list[Case] = []
    for m, n in enumerate_p0(max_m):
        nt = normalize(m, n)
        h = build_H(nt)
        label = level_slope_of(m, n)
        ok_letters = clusters_of(label).letters == h
        w, mat = frieze_w(h)
        ok_w = ab_to_frieze(build_W(nt)) == w
        ok_sym = A_MAT * mat.inverse() * A_MAT == mat
        rot = rng.randrange(len(w))
        ok_conj = cyclically_equal(w, w[rot:] + w[:rot])
        out.append((f"cluster ({m},{n})", ok_letters and ok_w and ok_sym and ok_conj,
                    f"H={h if len(h) < 40 else h[:37] + '...'}"))
    return out


def suite_syzygy(max_m: int = 12, **_) -> list[Case]:
    """Numeric crossing labels against the symbolic walk, cyclically."""
    out: list[Case] = []
    for m, n in enumerate_p0(max_m):
        symbolic = syzygy_sequence(m, n, periods=1)
        numeric = syzygy_oracle(normalize(m, n))
        ok = len(symbolic) == len(numeric) and numeric in symbolic + symbolic
        out.append((f"syzygy ({m},{n})", ok, f"{len(symbolic)} letters"))
    return out


SUITES: dict[str, Callable[..., list[Case]]] = {
    "epsilon": suite_epsilon,
    "collision": suite_collision,
    "bijection": suite_bijection,
    "cf": suite_cf,
    "cluster": suite_cluster,
    "syzygy": suite_syzygy,
}
