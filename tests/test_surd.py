import math
import random
from fractions import Fraction
from math import gcd

import pytest

from lissbraid.algebra import Psl2Mat, frieze_w
from lissbraid.classify import LevelSlope, clusters_of, enumerate_p0, level_slope_of, type_of
from lissbraid.errors import InvariantError, NotHyperbolic
from lissbraid.lissajous import build_H, normalize
import lissbraid.surd as surd
from lissbraid.report import build_report
from lissbraid.surd import (
    CfExpansion,
    QuadSurd,
    cf_expand,
    dilatation,
    far_endpoint,
    fixed_points,
    matches_cluster_period,
)
import reference
from reference import (
    cf_evaluate,
    cf_expand_full_walk,
    is_square,
    lehmer_batch,
    mat_inverse,
    quad_surd,
    split_square_by_primes,
)

W45 = Psl2Mat(10, 3, 3, 1)
W_11_16 = Psl2Mat(586, -741, -741, 937)
W_23_28 = Psl2Mat(31162, -103259, -103259, 342161)


def test_quadsurd_normalization_invariant():
    x = quad_surd(1, 3, 2)  # 3 does not divide 2 - 1, so the triple rescales
    assert (x.D - x.P * x.P) % x.Q == 0
    assert abs(x.approx() - (1 + math.sqrt(2)) / 3) < 1e-15


def test_quadsurd_rejects_squares():
    with pytest.raises(ValueError):
        quad_surd(0, 1, 9)
    with pytest.raises(ValueError):
        quad_surd(1, 0, 2)


@pytest.mark.parametrize("surd,text,value", [
    (quad_surd(3, 2, 13), "(3+√13)/2", 3.302775637731995),
    (quad_surd(0, 1, 2), "√2", 1.4142135623730951),
    (quad_surd(9, 38, 1525), "(9+5√61)/38", 1.2645065363035063),
    (quad_surd(-3, -2, 13), "(3-√13)/2", -0.30277563773199456),
])
def test_quadsurd_display_and_approx(surd, text, value):
    assert str(surd) == text
    assert abs(surd.approx() - value) < 1e-12


def test_quadsurd_equality_across_forms():
    assert quad_surd(11, 2, 117) == quad_surd(11, 2, 117)
    assert quad_surd(22, 4, 468) == quad_surd(11, 2, 117)  # scaled by 2
    assert quad_surd(3, 2, 13) != quad_surd(-3, -2, 13)
    # both are 1009*sqrt(2); 1009 is a prime beyond any trial division bound
    x, y = quad_surd(0, 1, 2 * 1009**2), quad_surd(0, 1009, 2 * 1009**4)
    assert x == y and hash(x) == hash(y)
    assert str(x) == str(y) == "√2036162"
    assert quad_surd(1, 1, 2 * 1009**2) != x  # same irrational part, other rational part


def _fraction_key(x):
    """Reference equality key: rational part, square and sign of the
    irrational part.  sqrt(D) is irrational, so equal keys mean equal values."""
    return (Fraction(x.P, x.Q), Fraction(x.D, x.Q * x.Q), x.Q > 0)


def _fraction_approx(x):
    """Reference approx: the same 64-bit-shifted root, rounded through Fraction."""
    try:
        return float((x.P + Fraction(math.isqrt(x.D << 128), 1 << 64)) / x.Q)
    except OverflowError:
        return OverflowError


def test_quadsurd_one_triple_per_value():
    rng = random.Random(31)
    groups = []
    while len(groups) < 400:
        p = rng.randrange(-10**6, 10**6)
        q = rng.choice((-1, 1)) * rng.randrange(1, 10**4)
        if rng.random() < 0.5:  # any triple, rescaled by the constructor
            d = rng.randrange(2, 10**6)
        else:  # already Q | D - P^2
            d = p * p + q * rng.randrange(-10**4, 10**4)
        d *= rng.choice((1, 4, 1009**2, 10007**2))
        if d < 2 or math.isqrt(d) ** 2 == d:
            continue
        x = quad_surd(p, q, d)
        for k in (2, rng.randrange(3, 1010), rng.randrange(2, 10**20)):
            y = quad_surd(k * p, k * q, k * k * d)
            assert (y.P, y.Q, y.D) == (x.P, x.Q, x.D), (p, q, d, k)
            assert hash(y) == hash(x) and str(y) == str(x)
        # the conjugate, a shifted rational part and an unscaled square
        groups.append([x, quad_surd(-p, -q, d), quad_surd(p + q, q, d), quad_surd(p, q, 4 * d),
                       quad_surd(2 * p, 2 * q, 4 * d)])
    assert any(g[0].Q < 0 for g in groups)
    pairs = [(u, v) for g in groups for u in g for v in g]
    pairs += [(rng.choice(rng.choice(groups)), rng.choice(rng.choice(groups))) for _ in range(2000)]
    assert sum(u == v for u, v in pairs) > 2000
    for u, v in pairs:
        assert (u == v) == (_fraction_key(u) == _fraction_key(v)), (u, v)
        assert u != v or (hash(u) == hash(v) and str(u) == str(v))


def test_quadsurd_approx_equals_fraction_rounding():
    rng = random.Random(37)
    surds = []
    while len(surds) < 400:
        p = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 5000))
        q = rng.choice((-1, 1)) * max(1, rng.getrandbits(rng.randrange(1, 5000)))
        d = p * p + q * rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 5000))
        if d > 1 and math.isqrt(d) ** 2 != d:
            surds.append(quad_surd(p, q, d))
    assert max(x.D.bit_length() for x in surds) > 9000
    outcomes = []
    for x in surds:
        try:
            outcomes.append(x.approx())
        except OverflowError:
            outcomes.append(OverflowError)
        assert outcomes[-1] == _fraction_approx(x), x
    assert 50 < outcomes.count(OverflowError) < 350


def _near_power(rng, bits):
    """A positive integer of the given bit length, often at an end of its range."""
    low = 1 << (bits - 1)
    return rng.choice((low, low + 1, 2 * low - 1, low + rng.getrandbits(bits - 1),
                       2 * low - 1 - rng.getrandbits(rng.randrange(bits))))


def test_approx_decides_overflow_from_bit_lengths(monkeypatch):
    # canonical triples (P, Q, D) = (-b, 2a, b^2 - 4ac) whose bit lengths put
    # |P + sqrt(D)| / |Q| within a few bits of 2**1024, with both signs of P
    # and of Q and P near -sqrt(D): approx equals the reference, and with
    # P >= 0 a value of 2**1026 |Q|-bits or more raises before it roots D
    rng = random.Random(43)
    roots = []
    monkeypatch.setattr(surd, "isqrt", lambda n: roots.append(n) or math.isqrt(n))
    outcomes, skipped = [], 0
    while len(outcomes) < 3000:
        q = 2 * rng.choice((-1, 1)) * _near_power(rng, rng.randrange(1, 40))
        r = abs(q).bit_length() + rng.randrange(1021, 1028)
        p = rng.choice((-1, 1)) * _near_power(rng, r + 1 + rng.randrange(-4, 5))
        root = _near_power(rng, r + 1)
        d = p * p - 2 * q * ((p * p - root * root) // (2 * q))
        if d <= 0 or math.isqrt(d) ** 2 == d or math.gcd(q // 2, p, (p * p - d) // (2 * q)) != 1:
            continue
        x = quad_surd(p, q, d)
        assert (x.P, x.Q, x.D) == (p, q, d)
        roots.clear()
        try:
            outcomes.append(x.approx())
        except OverflowError:
            outcomes.append(OverflowError)
        assert outcomes[-1] == _fraction_approx(x), x
        size = ((p << 64) + math.isqrt(d << 128)).bit_length() - 64 - abs(q).bit_length()
        if p >= 0 and size >= 1026:
            assert outcomes[-1] is OverflowError and not roots, x
            skipped += 1
    assert skipped > 100 and 500 < outcomes.count(OverflowError) < 2500


def test_fixed_points_examples():
    plus, minus = fixed_points(W45)
    assert {plus, minus} == {quad_surd(3, 2, 13), quad_surd(-3, -2, 13)}
    plus, minus = fixed_points(W_11_16)
    # content of the quadratic divides out to 19 x^2 - 9 x - 19 = 0
    assert {plus, minus} == {quad_surd(9, 38, 1525), quad_surd(-9, -38, 1525)}
    plus, minus = fixed_points(Psl2Mat(2, 1, 1, 1))
    assert {plus, minus} == {quad_surd(1, 2, 5), quad_surd(-1, -2, 5)}


def test_fixed_points_product_is_minus_b_over_c():
    for mat in (W45, W_11_16, W_23_28, Psl2Mat(2, 1, 1, 1)):
        x, y = fixed_points(mat)
        # exact: ((P1 + sqrt(D))(P2 + sqrt(D))) / (Q1 Q2) with P2 = -P1, Q2 = -Q1
        prod = Fraction(x.D - x.P * x.P, -x.Q * x.Q)
        assert prod == Fraction(-mat.b, mat.c)


def test_fixed_points_require_hyperbolic():
    with pytest.raises(NotHyperbolic):
        fixed_points(Psl2Mat(1, 1, 0, 1))
    with pytest.raises(NotHyperbolic):
        dilatation(Psl2Mat(0, -1, 1, 0))


@pytest.mark.parametrize("mat,expected", [
    (W45, quad_surd(3, 2, 13)),
    (W_11_16, quad_surd(9, 38, 1525)),
    (W_23_28, quad_surd(509, 338, 373325)),
])
def test_far_endpoint_examples(mat, expected):
    assert far_endpoint(mat) == expected


def _abs_cmp(x, y):
    """Reference: sign of |x| - |y| for surds over the same sqrt(D), from
    x^2 - y^2 = u + v sqrt(D) in integers."""
    assert x.D == y.D
    d = x.D
    u = (x.P * x.P + d) * y.Q * y.Q - (y.P * y.P + d) * x.Q * x.Q
    v = 2 * (x.P * y.Q * y.Q - y.P * x.Q * x.Q)
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if (u > 0) == (v > 0):
        return 1 if u > 0 else -1
    lhs, rhs = u * u, v * v * d
    if u > 0:  # u > 0 > v: sign is that of u^2 - v^2 d
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def _random_hyperbolic(rng):
    """Hyperbolic matrices with c != 0: products of T^+-1 and U^+-1, and
    ties a = d with bc = a^2 - 1 split over a divisor of a - 1 and of a + 1."""
    gens = [Psl2Mat(1, 1, 0, 1), Psl2Mat(1, -1, 0, 1), Psl2Mat(1, 0, 1, 1), Psl2Mat(1, 0, -1, 1)]
    mats = []
    while len(mats) < 900:
        mat = Psl2Mat.identity()
        for _ in range(rng.randrange(1, 40)):
            mat = mat * rng.choice(gens)
        if mat.c != 0 and abs(mat.trace()) > 2:
            mats.append(mat)
    for _ in range(300):
        a = rng.choice((1, -1)) * rng.randrange(2, 10**rng.randrange(2, 12))
        c = rng.choice((1, -1)) * math.gcd(a - 1, rng.randrange(1, 10**6)) \
            * math.gcd(a + 1, rng.randrange(1, 10**6))
        mats.append(Psl2Mat(a, (a * a - 1) // c, c, a))
    return mats


def test_far_endpoint_equals_abs_comparison():
    sweep = [frieze_w(build_H(normalize(m, n)))[1] for m, n in enumerate_p0(200)]
    randoms = _random_hyperbolic(random.Random(23))
    signs = [(m.d > m.a) - (m.d < m.a) for m in randoms]
    assert len(sweep) == 2042 and min(signs.count(s) for s in (-1, 0, 1)) >= 100
    for mat in sweep + randoms:
        plus, minus = fixed_points(mat)
        assert far_endpoint(mat) == (minus if _abs_cmp(plus, minus) < 0 else plus), mat


def test_report_surds_equal_the_constructor_triples():
    # fixed_points, far_endpoint and dilatation build their triples without
    # a reduction: each must equal quad_surd's from the unreduced quadratic
    # c x^2 + (d - a) x - b and from x^2 - |t| x + 1
    sweep = [frieze_w(build_H(normalize(m, n)))[1] for m, n in enumerate_p0(200)]
    randoms = [mat for mat in _random_hyperbolic(random.Random(29)) if mat.b != mat.c]
    signs = [(m.d > m.a) - (m.d < m.a) for m in randoms]
    assert len(sweep) == 2042 and min(signs.count(s) for s in (-1, 0, 1)) >= 100
    for mat in sweep + randoms:
        a, b, c, d = mat
        disc, t = (a - d) ** 2 + 4 * b * c, abs(a + d)
        plus, minus = quad_surd(a - d, 2 * c, disc), quad_surd(d - a, -2 * c, disc)
        got = [*fixed_points(mat), far_endpoint(mat), dilatation(mat)]
        want = [plus, minus, minus if d > a else plus, quad_surd(t, 2, t * t - 4)]
        assert all(type(x) is QuadSurd for x in got)
        assert [tuple(x) for x in got] == [tuple(x) for x in want], mat


def test_cf_expand_examples():
    assert cf_expand(quad_surd(3, 2, 13)) == CfExpansion((), (3,))
    cf = cf_expand(quad_surd(9, 38, 1525))
    assert cf.preperiod == ()
    assert cf.period[0] == 1
    assert matches_cluster_period(cf, (1, 2, 1, 2, 1))
    cf = cf_expand(quad_surd(509, 338, 373325))
    assert cf.preperiod == ()
    assert cf.period[0] == 3
    assert matches_cluster_period(cf, (2, 2, 3, 2, 2))


def test_cf_expand_with_preperiod():
    # sqrt(2) = [1; (2)]
    assert cf_expand(quad_surd(0, 1, 2)) == CfExpansion((1,), (2,))
    # (1 + sqrt(2)) / 3 is not reduced, so a nonempty preperiod appears
    cf = cf_expand(quad_surd(1, 3, 2))
    assert cf.period
    assert abs(cf_evaluate(cf, 60) - quad_surd(1, 3, 2).approx()) < 1e-9


def test_cf_negative_q_and_negative_value():
    # negative Q and surds below 1 exercise the exact floor on both signs
    x = quad_surd(-5, -3, 7)          # (5 - sqrt(7)) / 3, about 0.785
    cf = cf_expand(x)
    assert cf.preperiod[0] == 0
    assert cf.period
    assert abs(cf_evaluate(cf, 60) - x.approx()) < 1e-9
    y = quad_surd(-3, 2, 2)           # (-3 + sqrt(2)) / 2, negative
    cf = cf_expand(y)
    assert cf.preperiod[0] == -1
    assert abs(cf_evaluate(cf, 60) - y.approx()) < 1e-9
    # the first partial quotient of every small triple, either sign of Q,
    # is the floor of its float
    for p in range(-12, 13):
        for q in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
            for d in (2, 3, 5, 7, 13):
                z = quad_surd(p, q, d)
                cf = cf_expand(z)
                assert (cf.preperiod + cf.period)[0] == math.floor(z.approx()), (p, q, d)


def _cf_by_division(x):
    """Reference: the textbook loop, one exact division per step."""
    p, q, d = x.P, x.Q, x.D
    terms, seen = [], {}
    while (p, q) not in seen:
        seen[(p, q)] = len(terms)
        s = math.isqrt(d)
        a = (p + s) // q if q > 0 else -((p + s) // (-q) + 1)
        terms.append(a)
        p = a * q - p
        q, rem = divmod(d - p * p, q)
        assert rem == 0
    start = seen[(p, q)]
    return CfExpansion(tuple(terms[:start]), tuple(terms[start:]))


def test_cf_expand_equals_division_loop():
    rng = random.Random(7)
    surds = [quad_surd(-5, -3, 7), quad_surd(-3, 2, 2), quad_surd(1, 3, 2), quad_surd(0, 1, 2),
             quad_surd(509, 338, 373325), far_endpoint(build_report(-500, 997).matrix)]
    while len(surds) < 300:
        # already normalized (Q | D - P^2), so D stays below 2.1e5
        p, q = rng.randrange(-300, 301), rng.choice((-1, 1)) * rng.randrange(1, 300)
        d = p * p + q * rng.randrange(-400, 401)
        if d > 1 and math.isqrt(d) ** 2 != d:
            surds.append(quad_surd(p, q, d))
    assert any(x.Q < 0 for x in surds)
    assert sum(1 for x in surds if cf_expand(x).preperiod) > 100
    for x in surds:
        assert cf_expand(x) == _cf_by_division(x), x


def test_cf_expand_equals_division_loop_on_wide_surds():
    # surds in any form (quad_surd rescales those with Q not dividing D - P^2)
    rng = random.Random(13)
    surds = []
    while len(surds) < 1500:
        p, q = rng.randrange(-10**4, 10**4), rng.choice((-1, 1)) * rng.randrange(1, 100)
        d = rng.randrange(2, 10**4)
        if math.isqrt(d) ** 2 != d:
            surds.append(quad_surd(p, q, d))
    assert sum(1 for x in surds if cf_expand(x).preperiod) > 1400
    for x in surds:
        assert cf_expand(x) == _cf_by_division(x), x


@pytest.mark.parametrize("label,terms", [
    (LevelSlope(1, 1000, 1), {1, 3}),
    (LevelSlope(50, 100, 1), {99, 101}),
])
def test_cf_expand_equals_division_loop_on_kilobit_endpoints(label, terms):
    # the far endpoint is purely periodic; the near one has a preperiod;
    # terms 1 take the unit step, the others the divmod step
    _, mat = frieze_w(build_H(normalize(*type_of(label))))
    assert mat.c.bit_length() > 1000
    cfs = [cf_expand(x) for x in fixed_points(mat)]
    assert cfs == [_cf_by_division(x) for x in fixed_points(mat)]
    assert all(set(cf.period) == terms for cf in cfs)
    assert sorted(bool(cf.preperiod) for cf in cfs) == [False, True]


@pytest.mark.parametrize("surd,pre,period", [
    (quad_surd(86978, -76729, 55622233222), 3, 126476),
    (quad_surd(2361883652, -41847961, 1776320400567), 4, 275938),
])
def test_cf_expand_long_periods(surd, pre, period):
    # periods beyond the former 100 000-step cap of the state dictionary
    cf = cf_expand(surd)
    assert (len(cf.preperiod), len(cf.period)) == (pre, period)
    assert abs(cf_evaluate(cf, 60) - surd.approx()) < 1e-9


def _count_batches(monkeypatch):
    """Wrap surd._batch; the list gets each batch's quotient count, 0 for
    one that gave way to an exact step."""
    taken = []

    def counted(*args):
        batch = batch_of(*args)
        taken.append(len(batch[0]) if batch else 0)
        return batch

    batch_of = surd._batch
    monkeypatch.setattr(surd, "_batch", counted)
    return taken


@pytest.mark.parametrize("label", [
    LevelSlope(1, 3000, 1), LevelSlope(1, 2998, 1), LevelSlope(2, 1000, 3), LevelSlope(1, 10000, 1),
])
def test_batched_cf_expand_equals_cluster_terms(label, monkeypatch):
    # above the threshold the cycle is crossed in batches; the oracle reads
    # the terms off the label alone
    taken = _count_batches(monkeypatch)
    _, mat = frieze_w(build_H(normalize(*type_of(label))))
    x = far_endpoint(mat)
    assert math.isqrt(x.D).bit_length() > surd._BATCH_BITS
    cf = cf_expand(x)
    assert cf == CfExpansion((), tuple(2 * r - 1 for r in clusters_of(label).radii))
    # every batch passes its certificate; the far endpoint starts on its own
    # mirror, so the walk stops past the middle of the period (each exit has
    # J >= k/2), at the latest on the first probe past it, one probe gap on
    assert taken and 0 not in taken, taken
    half = len(cf.period) // 2
    assert half - surd._BATCH <= sum(taken) <= half + surd._PROBE_GAP * max(taken)


def _fixed_point_above_one(cycle):
    # x = [cycle; x]: the root above 1 of c x^2 + (d - a) x - b = 0 for the
    # product [[a, b], [c, d]] of the [[t, 1], [1, 0]]
    a, b, c, d = 1, 0, 0, 1
    for t in cycle:
        a, b, c, d = a * t + b, a, c * t + d, c
    return quad_surd(a - d, 2 * c, (a - d) ** 2 + 4 * b * c)


def test_batched_cf_expand_on_seeded_cycles(monkeypatch):
    # primitive cycles of either parity, around and far past the warm-up
    # length; terms 2^70 + 1 leave no divisor in the 62-bit window and take
    # the exact step
    taken = _count_batches(monkeypatch)
    rng = random.Random(29)
    big = 2**70 + 1
    few = (big, big, big, 2, 1)
    mixed = (1, 3, 50, big)
    many = (1, 1, 1, 2, 3, 50)
    cases = [(30, few), (63, mixed), (64, mixed), (65, mixed), (66, mixed), (129, mixed),
             (130, mixed)] + [(rng.randrange(350, 800), many) for _ in range(10)]
    parities = set()
    for length, terms in cases:
        while True:
            cycle = tuple(big if terms is many and i % 20 == 0 else rng.choice(terms)
                          for i in range(length))
            x = _fixed_point_above_one(cycle)
            primitive = all(cycle != cycle[k:] + cycle[:k] for k in range(1, length))
            if primitive and math.isqrt(x.D).bit_length() > surd._BATCH_BITS:
                break
        assert cf_expand(x) == CfExpansion((), cycle), cycle
        parities.add(length % 2)
    assert parities == {0, 1}
    assert sum(taken) > 2000 and 0 in taken


def test_batch_equals_the_counted_reference_batch(monkeypatch):
    # the batch loop, with its quotient-1 branch and no step counter,
    # returns what the counted loop returns, None included, on the states
    # of the batched full walks of three far endpoints and of seeded cycles
    # whose 62-bit windows hold long runs of 1 and quotients of 2^30 or
    # more; the walks run on the reference batch, so the states do not
    # depend on the loop under test
    states = []
    monkeypatch.setattr(reference, "lehmer_batch",
                        lambda *state: states.append(state) or lehmer_batch(*state))
    for label in (LevelSlope(1, 10000, 1), LevelSlope(2, 1000, 3), LevelSlope(3, 29001, 1000)):
        cf_expand_full_walk(far_endpoint(frieze_w(build_H(normalize(*type_of(label))))[1]))
    rng = random.Random(47)
    for _ in range(12):
        cycle = []
        while len(cycle) < 1000:
            kind = rng.randrange(3)
            cycle += ([1] * rng.randrange(20, 90) if kind == 0 else
                      [rng.randrange(2**30, 2**50)] if kind == 1 else [rng.randrange(2, 50)])
        x = _fixed_point_above_one(cycle)
        assert math.isqrt(x.D).bit_length() > surd._BATCH_BITS
        cf_expand_full_walk(x)
    results = [lehmer_batch(*state) for state in states]
    assert [surd._batch(*state) for state in states] == results
    assert len(states) >= 2000 and None in results
    assert max(len(batch[0]) for batch in results if batch and set(batch[0]) == {1}) >= 40
    windows = [(u >> u.bit_length() - 62, q >> u.bit_length() - 62) for u, q, _, _ in states]
    assert max(n // d for n, d in windows if d) >= 2**30


def _palindrome(rng, length, terms):
    """A primitive palindromic cycle of the given length."""
    while True:
        half = [rng.choice(terms) for _ in range((length + 1) // 2)]
        cycle = tuple(half + half[:length // 2][::-1])
        word = ",".join(map(str, cycle)) + ","
        if (word + word).find(word, 1) == len(word):
            return cycle


def test_mirror_exit_on_seeded_palindromic_cycles(monkeypatch):
    # a palindromic cycle's fixed point above one starts on its own mirror
    # (Q = Q_prev) and stops at the middle: lengths of both parities (no
    # palindrome of length 2 is primitive) on the exact loop and past the
    # batch threshold, where terms 2^70 + 1 leave no divisor in the 62-bit
    # window and take exact steps between the batches
    taken = _count_batches(monkeypatch)
    rng = random.Random(41)
    big = 2**70 + 1
    cases = [(length, (1, 2, 3, 50)) for length in range(1, 41) if length != 2]
    cases += [(rng.randrange(41, 900), (1, 1, 1, 2, 3, 50)) for _ in range(30)]
    cases += [(length, (1, 1, 2, 3, 50) * 20 + (big,)) for length in (898, 899, 900)]
    batched = set()
    for length, terms in cases:
        cycle = _palindrome(rng, length, terms)
        x = _fixed_point_above_one(cycle)
        assert (x.D - x.P * x.P) // x.Q == x.Q
        taken.clear()
        cf = cf_expand(x)
        assert cf == CfExpansion((), cycle) == cf_expand_full_walk(x), cycle
        if math.isqrt(x.D).bit_length() > surd._BATCH_BITS:
            # the warm-up, the batches and one exact step per failed batch
            # stop short of the whole cycle
            assert surd._BATCH + sum(taken) + taken.count(0) < length, (length, taken)
            batched.add((length % 2, 0 in taken))
    assert batched == {(0, False), (0, True), (1, False), (1, True)}


def test_mirror_exit_equals_full_walk_on_endpoints():
    # far endpoints start on their own mirror and take the mirror exit; near
    # endpoints have a preperiod and walk their whole cycle.  The sweep's
    # roots are under the batch threshold; the seeded labels, at levels 1 to
    # 3 with |m| from 1500 to 3000, are kept when their roots are above it
    sweep = [frieze_w(build_H(normalize(m, n)))[1] for m, n in enumerate_p0(200)]
    for mat in sweep:
        x = far_endpoint(mat)
        assert cf_expand(x) == cf_expand_full_walk(x), mat
    rng = random.Random(43)
    labels = set()
    while len(labels) < 150:
        level = rng.choice((1, 1, 2, 3))
        s = rng.randrange(1500 // (3 * level - 2), 3000 // (3 * level - 2))
        q = rng.randrange(s)
        if gcd(s, 6) != 1 or gcd(s, q) != 1:
            continue
        label = LevelSlope(level, s - q, q)
        _, mat = frieze_w(build_H(normalize(*type_of(label))))
        far = far_endpoint(mat)
        if label in labels or math.isqrt(far.D).bit_length() <= surd._BATCH_BITS:
            continue
        labels.add(label)
        near = next(x for x in fixed_points(mat) if x != far)
        for x in (far, near):
            assert cf_expand(x) == cf_expand_full_walk(x), (label, x == far)
    assert {label.level for label in labels} == {1, 2, 3}


def test_mirror_probe_rejects_fingerprint_collisions(monkeypatch):
    # with a zero mask every probe's first state matches the newest kept
    # batch end; the exact certificate rejects each match, so the walk runs
    # on and closes on the whole cycle
    monkeypatch.setattr(surd, "_MASK", 0)
    taken = _count_batches(monkeypatch)
    results = []

    def recorded(*args):
        results.append(mirror_of(*args))
        return results[-1]

    mirror_of = surd._mirror
    monkeypatch.setattr(surd, "_mirror", recorded)
    for label in (LevelSlope(1, 3000, 1), LevelSlope(2, 1000, 3)):
        x = far_endpoint(frieze_w(build_H(normalize(*type_of(label))))[1])
        taken.clear()
        results.clear()
        cf = cf_expand(x)
        assert cf == cf_expand_full_walk(x)
        assert len(cf.period) - surd._BATCH <= sum(taken) < len(cf.period)
        # two batches in every _PROBE_GAP probed, from the second on, and
        # each probe rejected
        probed = [b for b in range(2, len(taken) + 1) if b % surd._PROBE_GAP < 2]
        assert len(results) == len(probed) >= 4 and not any(results)


@pytest.mark.parametrize("label", [LevelSlope(1, 2998, 1), LevelSlope(2, 1000, 3)])
def test_batched_cf_expand_with_preperiod_equals_division_loop(label, monkeypatch):
    taken = _count_batches(monkeypatch)
    _, mat = frieze_w(build_H(normalize(*type_of(label))))
    near = next(x for x in fixed_points(mat) if x != far_endpoint(mat))
    assert math.isqrt(near.D).bit_length() > surd._BATCH_BITS
    cf = cf_expand(near)
    assert cf.preperiod and sum(taken) > len(cf.period) // 2
    assert cf == _cf_by_division(near)


def _split_square_by_every_f(d):
    """Reference: peel f^2 for every f up to 1000, then a perfect-square check."""
    if math.isqrt(d) ** 2 == d:
        return math.isqrt(d), 1
    c = 1
    for f in range(2, 1001):
        while d % (f * f) == 0:
            d //= f * f
            c *= f
    if math.isqrt(d) ** 2 == d:
        c, d = c * math.isqrt(d), 1
    return c, d


def test_split_square_equals_trial_division_by_every_f():
    assert surd._PRIMES == tuple(f for f in range(2, 1001) if all(f % g for g in range(2, f)))
    rng = random.Random(17)
    crafted = [k * f2 for k in (1, 2, 3, 5, 7, 1009, 2 * 1009**2, 10**12 + 39)
               for f2 in (4, 9, 49, 997**2, 30**2, 4 * 9 * 49 * 997**2, 30**4)]
    randoms = [rng.randrange(2, 10**e) for e in (4, 30) for _ in range(300)]
    for d in crafted + randoms:
        assert surd._split_square(d) == _split_square_by_every_f(d), d


def test_split_square_equals_the_loop_over_every_prime_of_g():
    # h = gcd(g, d // g) keeps only the primes whose square divides d; the
    # sweep's D are the dilatations' and far endpoints' of every |m| <= 200
    sweep = []
    for m, n in enumerate_p0(200):
        _, mat = frieze_w(build_H(normalize(m, n)))
        sweep += [dilatation(mat).D, far_endpoint(mat).D]
    assert len(sweep) == 4084
    rng = random.Random(29)
    planted = [rng.randrange(1, 10**rng.randrange(1, 40)) * rng.choice(surd._PRIMES) ** 2
               * rng.choice((1, rng.choice(surd._PRIMES) ** 2, 997**2, 997**4))
               for _ in range(2000)]
    for d in sweep + planted + [997**2 * 5, 997**3, 2 * 3 * 997**2 * 991**2]:
        assert surd._split_square(d) == split_square_by_primes(d), d


def test_is_square_equals_root_check():
    # the residue table only skips roots: every answer equals the root check
    def by_root(n):
        return n >= 0 and math.isqrt(n) ** 2 == n

    rng = random.Random(23)
    near_squares = [k * k + e for k in range(20000) for e in (-1, 0, 1)]
    randoms = [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(20000)]
    for n in [-4, -1] + list(range(200000)) + near_squares + randoms:
        assert is_square(n) == by_root(n), n
    assert all(is_square(rng.getrandbits(2000) ** 2) for _ in range(200))


def test_cf_expand_rejects_unnormalized_state():
    x = QuadSurd(3, 3, 13)  # 3 does not divide 13 - 9
    with pytest.raises(InvariantError):
        cf_expand(x)


def test_cf_reevaluation_matches_approx():
    for mat in (W45, W_11_16, W_23_28, Psl2Mat(2, 1, 1, 1)):
        x = far_endpoint(mat)
        assert abs(cf_evaluate(cf_expand(x), 60) - x.approx()) < 1e-9


def test_cf_evaluate_rejects_empty_period_and_no_terms():
    # an empty period has nothing to repeat, and no terms have no last term
    with pytest.raises(ValueError):
        cf_evaluate(CfExpansion((1, 2), ()))
    for nterms in (0, -3):
        with pytest.raises(ValueError):
            cf_evaluate(CfExpansion((), (1,)), nterms)


def test_cf_float_oracle():
    # first quotients agree with a plain floating continued fraction
    for surd in (quad_surd(9, 38, 1525), quad_surd(509, 338, 373325), quad_surd(3, 2, 13)):
        cf = cf_expand(surd)
        quots = list(cf.preperiod) + list(cf.period) * 4
        x = surd.approx()
        for a in quots[:12]:
            assert math.floor(x) == a
            x = 1.0 / (x - a)


# the rows are the CFs of (4,-5), (-8,13), (7,-8) and (-11,16)
@pytest.mark.parametrize("period,radii,expected", [
    ((3,), (2,), True),
    ((1, 1, 3, 1, 1), (1, 1, 2, 1, 1), True),
    ((3,), (1,), False),
    ((5,), (3,), True),
    ((1, 3, 1, 3, 1), (1, 2, 1, 2, 1), True),
])
def test_matches_cluster_period(period, radii, expected):
    cf = CfExpansion((), period)
    assert matches_cluster_period(cf, radii) is expected


def test_matches_cluster_period_is_exact():
    # a rotation, a repetition and a nonempty preperiod of [(2r-1)] all fail
    radii = (1, 2, 1, 2, 1)
    assert not matches_cluster_period(CfExpansion((), (3, 1, 3, 1, 1)), radii)
    assert not matches_cluster_period(CfExpansion((), (3, 3)), (2,))
    assert not matches_cluster_period(CfExpansion((1,), (1, 3, 1, 3, 1)), radii)


def test_dilatation_examples():
    assert dilatation(Psl2Mat(2, 1, 1, 1)) == quad_surd(3, 2, 5)
    assert dilatation(W45) == quad_surd(11, 2, 117)
    # trace invariance under inversion
    assert dilatation(mat_inverse(W45)) == dilatation(W45)


def test_deep_family_member_big_integers():
    # trace has hundreds of digits; everything must stay exact and approx finite
    report = build_report(-500, 997)
    assert report.trace > 10**200
    assert 0 < report.dilatation_approx < float("inf")
    assert all(a % 2 == 1 for a in report.cf.period)
    assert matches_cluster_period(report.cf, clusters_of(level_slope_of(-500, 997)).radii)


def test_family_cf_periods_odd_and_matching():
    for m, n in enumerate_p0(30):
        report = build_report(m, n)
        cf = report.cf
        assert all(a % 2 == 1 for a in cf.period)
        radii = clusters_of(level_slope_of(m, n)).radii
        assert matches_cluster_period(cf, radii)
        # the far endpoint really is the larger fixed point in absolute value
        x, y = fixed_points(report.matrix)
        far = report.far_endpoint
        others = [z for z in (x, y) if z != far]
        assert len(others) == 1
        assert abs(far.approx()) > abs(others[0].approx())


def test_report_trace_is_odd_and_each_d_is_5_mod_8():
    # the odd trace (algebra.frieze_w) that lets the cluster suite read
    # A M^-1 A = M off the entries, the symmetry that frieze_to_matrix's
    # square gives, and the residue of each D, over the sweep and the
    # ladder labels
    ladder = [type_of(LevelSlope(level, p, 1))
              for level, p in ((1, 100), (1, 1000), (50, 100), (1, 10000))]
    for m, n in enumerate_p0(200) + ladder:
        report = build_report(m, n)
        assert report.trace % 2 == 1, (m, n)
        assert report.matrix.b == report.matrix.c, (m, n)
        assert report.dilatation_exact.D % 8 == report.far_endpoint.D % 8 == 5, (m, n)


def test_report_takes_each_full_size_root_once(monkeypatch):
    # isqrt is quadratic in the bit length on CPython 3.10 and 3.11, and gcd
    # on every version, so a report takes only the roots it needs: building
    # it roots the CF's D; the dilatation and the far endpoint are built as
    # canonical triples, with no square check, printing a D takes none, and the
    # dilatation's float overflows before its root.  Printing a surd takes
    # two gcds of its size.  This root is above surd._BATCH_BITS, so the
    # CF takes batches, which need no root and no gcd.
    m, n = type_of(LevelSlope(1, 3000, 1))
    report = build_report(m, n)
    mat = report.matrix
    half = max(abs(mat.a), abs(mat.b), abs(mat.c), abs(mat.d)).bit_length() // 2
    assert math.isqrt(report.far_endpoint.D).bit_length() > surd._BATCH_BITS
    calls = {"isqrt": 0, "gcd": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += any(abs(x).bit_length() > half for x in args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(surd, "isqrt", counted("isqrt", math.isqrt))
    monkeypatch.setattr(surd, "gcd", counted("gcd", math.gcd))
    report = build_report(m, n)
    counts = [dict(calls)]
    for render in (report.to_json_dict, report.to_text):
        calls.update(isqrt=0, gcd=0)
        render()
        counts.append(dict(calls))
    assert [c["isqrt"] for c in counts] == [1, 0, 0], counts
    assert all(c["gcd"] <= 4 for c in counts), counts
