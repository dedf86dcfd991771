import cmath
import math
import pathlib
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lissbraid import shapetrace
from lissbraid.algebra import Psl2Mat
from lissbraid.classify import enumerate_p0, level_slope_of
from lissbraid.errors import CollisionType, LissbraidError, Unstable
from lissbraid.lissajous import epsilon_seq, is_collision_free, normalize
from lissbraid.shapetrace import (
    COLLISION_EPS,
    DEFAULT_RATIO,
    RHO,
    SEPARATION_EPS,
    collision_scan,
    csv_shape,
    epsilon_oracle,
    farey_edges,
    psi_values,
    start_offset,
    svg_halfplane,
    svg_shape,
    syzygy_oracle,
)
from lissbraid.syzygy import omega, syzygy_sequence
from lissbraid.verify import normalized_types
import reference
from reference import EQ_PERIOD_TOL, periodicity_defect, region_itinerary


def test_curve_endpoints():
    nt = normalize(4, -5)
    # psi(0) = rho exactly, psi(1/3) = -1 exactly (the offset only nudges t)
    assert abs(complex(psi_values(nt, 0.05, np.array([0.0]))[0]) - RHO) < 1e-12
    assert abs(complex(psi_values(nt, 0.05, np.array([1 / 3]))[0]) + 1.0) < 1e-9


def test_equator_times():
    nt = normalize(-11, 16)
    for k in range(1, 12):
        t = k / (6 * abs(nt.ell))
        assert abs(abs(complex(psi_values(nt, 0.05, np.array([t]))[0])) - 1.0) < 1e-12


def test_periodicity_third_turn():
    for mn in [(4, -5), (-8, 13), (1, -2)]:
        assert periodicity_defect(normalize(*mn)) < EQ_PERIOD_TOL


@pytest.mark.parametrize("mn,expected", [
    ((1, -2), (0, 1)),
    ((4, -5), (0, 1, 1, 0, 1, 0, 0, 1)),
])
def test_epsilon_oracle_examples(mn, expected):
    assert epsilon_oracle([normalize(*mn)]) == [expected]


def test_epsilon_oracle_22_bits():
    nt = normalize(-11, 16)
    assert epsilon_oracle([nt]) == [epsilon_seq(nt)]


def test_epsilon_oracle_matches_formula():
    nts = [normalize(m, n) for m, n in enumerate_p0(20)]
    assert epsilon_oracle(nts) == [epsilon_seq(nt) for nt in nts]


def test_epsilon_oracle_nonprimitive_types():
    # normalized collision-free types outside the primitive family
    nts = [normalize(m, n) for m, n in [(1, 4), (-2, -5), (7, -2), (4, 19), (-8, 1), (13, -32)]]
    assert epsilon_oracle(nts) == [epsilon_seq(nt) for nt in nts]


def test_collision_scan_examples():
    free, collision, other = collision_scan([(4, -5), (-5, 7), (3, 2)])
    assert free > 1e-3
    assert collision < 1e-6
    assert other < 1e-6
    with pytest.raises(ValueError):
        collision_scan([(2, 4)])


def test_collision_scan_converges(monkeypatch):
    # every coprime pair with 1 <= m <= 18, |n| <= 18 and 3 not dividing mn
    pairs = [(m, n) for m in range(1, 19) for n in range(-18, 19)
             if n != 0 and gcd(m, n) == 1 and (m * n) % 3 != 0]
    assert len(pairs) == 198
    for (m, n), minimum in zip(pairs, collision_scan(pairs), strict=True):
        assert (minimum > SEPARATION_EPS) == is_collision_free(m, n), (m, n)
        if not is_collision_free(m, n):
            assert minimum < 1e-12, (m, n, minimum)
    # a second time shift moves the coarse grid to other points: a minimum
    # at float noise, not merely below COLLISION_EPS, again shows that the
    # refinement ran to the end
    pairwise_min = shapetrace._pairwise_min
    monkeypatch.setattr(shapetrace, "_pairwise_min",
                        lambda m, n, ts: pairwise_min(m, n, ts + math.pi * 1e-5))
    for (m, n), minimum in zip(pairs, collision_scan(pairs), strict=True):
        if not is_collision_free(m, n):
            assert minimum < 1e-12, (m, n)


def test_collision_scan_zoom_finds_what_the_grid_misses(monkeypatch):
    # the coarse grid alone stays above COLLISION_EPS on every collision
    # type of the collision suite's box, so the suite's verdict rests on the zoom
    coarse = []
    pairwise_min = shapetrace._pairwise_min

    def recording(m, n, ts):
        dist = pairwise_min(m, n, ts)
        if ts.ndim == 1:
            coarse.append(float(dist.min()))
        return dist

    monkeypatch.setattr(shapetrace, "_pairwise_min", recording)
    pairs = [(m, n) for m in range(1, 11) for n in range(-10, 11)
             if n != 0 and gcd(m, n) == 1 and (m * n) % 3 != 0 and not is_collision_free(m, n)]
    assert len(pairs) == 14
    minima = collision_scan(pairs)
    for (m, n), minimum, coarse_minimum in zip(pairs, minima, coarse, strict=True):
        assert minimum < COLLISION_EPS, (m, n)
        assert coarse_minimum > COLLISION_EPS, (m, n)


def test_region_of_examples(monkeypatch):
    points = [
        1.5 * cmath.exp(0.3j),                       # I-
        0.5 * cmath.exp(0.3j),                       # I+
        0.5 * cmath.exp(0.2j),                       # I+ again: compressed
        1.5 * cmath.exp(1j * (0.3 + 2 * math.pi / 3)),  # II-
        0.5 * cmath.exp(1j * (0.3 + 4 * math.pi / 3)),  # III+
    ]
    monkeypatch.setattr(shapetrace, "psi_values", lambda nt, ratio, ts: np.array(points))
    assert region_itinerary(normalize(4, -5)) == ["I-", "I+", "II-", "III+"]


def test_region_of_borders(monkeypatch):
    borders = [
        cmath.exp(0.4j),                             # on the equator
        1.5 + 0j,                                    # on the ray through 1
        (1 + 1e-9) * cmath.exp(0.35j),               # within 1e-7 of the equator
        complex(-0.0, -0.0),                         # psi = 0, at angle pi
        1.5 * cmath.exp(1j * (2 * math.pi / 3 - 1e-9)),  # within 1e-7 of a ray
        1.5 * cmath.exp(2j * math.pi / 3),           # on the ray through omega
    ]
    monkeypatch.setattr(shapetrace, "psi_values", lambda nt, ratio, ts: np.array(borders))
    assert region_itinerary(normalize(4, -5)) == []
    # border samples between two samples of I+ leave them compressed into one
    points = [0.5 * cmath.exp(0.3j)] + borders + [0.5 * cmath.exp(0.2j)]
    monkeypatch.setattr(shapetrace, "psi_values", lambda nt, ratio, ts: np.array(points))
    assert region_itinerary(normalize(4, -5)) == ["I+"]


def test_region_itineraries():
    assert region_itinerary(normalize(1, -2)) == ["I-", "I+", "III+", "III-", "II-"]
    assert region_itinerary(normalize(1, 4)) == ["I-", "III-", "III+", "II+", "II-"]
    assert region_itinerary(normalize(-2, 1)) == [
        "I-", "II-", "III-", "III+", "I+", "II+", "II-"]
    assert region_itinerary(normalize(-2, -5)) == [
        "I-", "I+", "II+", "III+", "III-", "I-", "II-"]


def test_syzygy_oracle_nonprimitive_smoke():
    # works for any collision-free normalized type; (1,4) shares the class
    # of (1,-2) and crosses the same arcs
    [seq] = syzygy_oracle([normalize(1, 4)])
    assert len(seq) == 6
    assert seq in "132132132132"


def test_syzygy_oracle_examples():
    got, small = syzygy_oracle([normalize(-8, 13), normalize(1, -2)])
    expected = syzygy_sequence(-8, 13)
    assert len(got) == len(expected)
    assert got in expected + expected
    assert small in "132132132132"


def test_syzygy_oracle_crossing_count():
    types = [(4, -5), (-8, 13), (7, -8)]
    for (m, n), seq in zip(types, syzygy_oracle([normalize(m, n) for m, n in types]), strict=True):
        label = level_slope_of(m, n)
        assert len(seq) == 6 * len(omega(label))


def test_syzygy_oracle_matches_symbolic():
    types = enumerate_p0(20)
    numerics = syzygy_oracle([normalize(m, n) for m, n in types])
    for (m, n), numeric in zip(types, numerics, strict=True):
        symbolic = syzygy_sequence(m, n)
        assert numeric in symbolic + symbolic
        # the crossing nearest an integer time comes first, as the walk's arc 1
        assert numeric == symbolic, (m, n)


def _recording_batches(monkeypatch):
    # the lengths of the batches each oracle call runs, one list per call
    calls = []
    batches = shapetrace._batches

    def recording(items, check, size):
        calls.append([])
        for batch in batches(items, check, size):
            calls[-1].append(len(batch))
            yield batch

    monkeypatch.setattr(shapetrace, "_batches", recording)
    return calls


@pytest.mark.parametrize("cap", [shapetrace._BATCH_SAMPLES, 100])
def test_batched_oracles_equal_the_one_type_oracles(monkeypatch, cap):
    # at the cap of 100 samples every oracle splits its list into several
    # batches, some of several types and some of one type above the cap
    monkeypatch.setattr(shapetrace, "_BATCH_SAMPLES", cap)
    calls = _recording_batches(monkeypatch)
    types = dict.fromkeys(enumerate_p0(60))
    types.update(dict.fromkeys(normalized_types(15, 31)))
    nts = [normalize(m, n) for m, n in types]
    assert epsilon_oracle(nts) == [reference.epsilon_oracle(nt) for nt in nts]
    pairs = [(m, n) for m in range(1, 11) for n in range(-10, 11)
             if n != 0 and gcd(m, n) == 1 and m % 3 != 0 and n % 3 != 0]
    assert len(pairs) == 58
    assert collision_scan(pairs) == [reference.collision_scan(m, n) for m, n in pairs]
    nts = [normalize(m, n) for m, n in enumerate_p0(20)]
    assert syzygy_oracle(nts) == [reference.syzygy_oracle(nt) for nt in nts]
    assert [sum(lengths) for lengths in calls] == [len(types), 58, 21]
    if cap == 100:
        assert all(len(lengths) > 2 and max(lengths) > 1 and min(lengths) == 1
                   for lengths in calls[::2]), calls
        assert set(calls[1]) == {3, 1}, calls   # 33 samples a pair


def _reflect_radii(monkeypatch, flips):
    # flips maps a type to the ratios at which its radii are reflected in the
    # unit circle, which flips each of its epsilon bits; the samples of a
    # type are those with its slow rate.  Returns the per-call sample counts.
    psi_of = shapetrace._psi
    rates = {shapetrace._rates(nt)[1]: ratios for nt, ratios in flips.items()}
    samples = []

    def reflected(exp, fast, slow, ratio):
        psi = psi_of(exp, fast, slow, ratio)
        flip = np.isin(slow, [rate for rate, ratios in rates.items() if ratio in ratios])
        samples.append(np.size(slow))

        def psi_flipped(t):
            z = psi(t)
            return np.where(flip, z / np.abs(z) ** 2, z)
        return psi_flipped

    monkeypatch.setattr(shapetrace, "_psi", reflected)
    return samples


def test_epsilon_oracle_finishes_each_type_at_its_own_ratio(monkeypatch):
    # the bits of (-11, 16) first agree at the fourth ratio and those of
    # (7, -8) at the sixth, the others' at the second; wrong bits at an
    # earlier ratio show a type that finished at another type's ratio
    r = [DEFAULT_RATIO / 2**k for k in range(6)]
    nts = [normalize(m, n) for m, n in [(4, -5), (-11, 16), (1, -2), (7, -8), (-8, 13)]]
    samples = _reflect_radii(monkeypatch, {nts[1]: {r[1]}, nts[3]: {r[1], r[3]}})
    got = epsilon_oracle(nts)
    assert got == [reference.epsilon_oracle(nt) for nt in nts] == [epsilon_seq(nt) for nt in nts]
    # one pass per round over the types still open: all of them, then
    # (-11, 16) and (7, -8), then (7, -8) alone
    assert samples[:6] == [2 * (4 + 11 + 1 + 7 + 8)] * 2 + [2 * (11 + 7)] * 2 + [2 * 7] * 2


def test_oracles_raise_for_the_first_failing_type(monkeypatch):
    # a failure raises the error of the first failing type in input order,
    # with the message of the one-type oracle, wherever the batches split
    monkeypatch.setattr(shapetrace, "_BATCH_SAMPLES", 40)
    ok, collision, late = normalize(4, -5), normalize(-5, 7), normalize(-11, 16)
    with pytest.raises(CollisionType, match=r"^type \(-5, 7\) has even ell = -4$"):
        epsilon_oracle([ok, late, collision, ok])
    with pytest.raises(CollisionType, match=r"^type \(-5, 7\) has even ell = -4$"):
        syzygy_oracle([ok, normalize(1, -2), collision, late])
    with pytest.raises(ValueError, match=r"^gcd\(2, 4\) != 1$"):
        collision_scan([(4, -5), (1, 2), (2, 4), (5, 7)])
    huge = normalize(1, -2 - 3 * 10**310)
    with pytest.raises(LissbraidError, match="too large for float time"):
        syzygy_oracle([ok, huge, collision])
    # radii reflected at every other ratio: the bits of (-11, 16) never agree
    _reflect_radii(monkeypatch, {late: {DEFAULT_RATIO / 2**k for k in range(0, 21, 2)}})
    with pytest.raises(Unstable) as unstable:
        reference.epsilon_oracle(late)
    for nts in ([ok, late, collision], [late, ok], [ok, late, late]):
        with pytest.raises(Unstable, match=f"^{re.escape(str(unstable.value))}$"):
            epsilon_oracle(nts)
    with pytest.raises(CollisionType):
        epsilon_oracle([ok, collision, late])


def test_syzygy_oracle_retries_only_the_failed_types(monkeypatch):
    # (-8, 13) loses a bracket at the first ratio, so it alone runs again at
    # half the ratio; (1, -2) loses one at every ratio and raises Unstable
    # once the batch is done, with the one-type oracle's message
    brackets = shapetrace._brackets
    calls = []

    def losing(nt, ratio):
        calls.append(((nt.m, nt.n), ratio))
        lo, hi, flo = brackets(nt, ratio)
        if (nt.m, nt.n) == (1, -2) or ((nt.m, nt.n), ratio) == ((-8, 13), DEFAULT_RATIO):
            return lo[1:], hi[1:], flo[1:]
        return lo, hi, flo

    monkeypatch.setattr(shapetrace, "_brackets", losing)
    types = [(4, -5), (-8, 13), (7, -8)]
    assert syzygy_oracle([normalize(m, n) for m, n in types]) == [
        syzygy_sequence(m, n) for m, n in types]
    assert calls == [(mn, DEFAULT_RATIO) for mn in types] + [((-8, 13), DEFAULT_RATIO / 2)]
    with pytest.raises(Unstable, match=r"^could not isolate 6 crossings for \(1, -2\)$"):
        syzygy_oracle([normalize(4, -5), normalize(1, -2), normalize(7, -8), normalize(-5, 7)])


def test_float_oracles_reject_collision_types(tmp_path):
    with pytest.raises(CollisionType):
        region_itinerary(normalize(-5, 7))
    with pytest.raises(CollisionType):
        csv_shape(normalize(-5, 7), 0.05, 6000, str(tmp_path / "c.csv"))
    assert not (tmp_path / "c.csv").exists()


def _polyline_points(path):
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    poly = root.find(f"{ns}polyline")
    pts = []
    for tok in poly.attrib["points"].split():
        x, y = tok.split(",")
        pts.append((float(x), float(y)))
    return pts


def test_svg_shape(tmp_path):
    nt = normalize(4, -5)
    out = str(tmp_path / "shape.svg")
    assert svg_shape(nt, 0.05, 6000, out) == out
    pts = _polyline_points(out)
    # start point within 0.01 of the compressed rho (radius 1/2, angle 60 deg)
    cx, cy, scale = 500.0, 500.0, 450.0
    x0 = (pts[0][0] - cx) / scale
    y0 = (cy - pts[0][1]) / scale
    target = 0.5 * cmath.exp(1j * math.pi / 3)
    assert abs(complex(x0, y0) - target) < 0.01
    # full-period curve crosses the compressed equator 6*|omega| times;
    # vertices rounded onto the circle itself are skipped
    radii = [math.hypot(x - cx, cy - y) / scale for x, y in pts]
    sides = [r > 0.5 for r in radii if abs(r - 0.5) > 1e-6]
    crossings = sum(1 for s0, s1 in zip(sides, sides[1:]) if s0 != s1)
    assert crossings == 6 * len(omega(level_slope_of(4, -5)))


def test_csv_shape(tmp_path):
    nt = normalize(4, -5)
    out = str(tmp_path / "shape.csv")
    csv_shape(nt, 0.05, 100, out)
    lines = pathlib.Path(out).read_text().splitlines()
    assert lines[0] == "t,re_psi,im_psi"
    assert len(lines) == 101
    t, re, im = map(float, lines[1].split(","))
    assert abs(t - start_offset(nt)) < 1e-15
    # the rows run from the offset time delta to 1/3 + delta
    assert abs(complex(re, im) - RHO) < 0.05
    t, re, im = map(float, lines[-1].split(","))
    assert abs(t - 1 / 3 - start_offset(nt)) < 1e-11
    assert abs(complex(re, im) + 1.0) < 0.05


def _numpy_curve(nt, ratio, t1, steps):
    # the figures' numpy formula before they moved to cmath, kept as their oracle
    delta = start_offset(nt)
    ts = np.linspace(delta, t1 + delta, steps)
    osc = np.exp(6j * math.pi * nt.ell * ts)
    return ts, RHO * np.exp(-4j * math.pi * nt.m * ts) * (1 + 1j * ratio * osc) / (1 + 1j * ratio / osc)


def _sphere_xy_reference(z):
    # reference: the compression as one complex division, which _sphere_xy
    # does component by component
    r = abs(z)
    w = z / (1.0 + r) if r > 0 else 0j
    return (500 + 450.0 * w.real, 500 - 450.0 * w.imag)


def test_svg_shape_equals_the_numpy_formula(tmp_path):
    out = str(tmp_path / "shape.svg")
    types = enumerate_p0(60)
    assert len(types) == 180
    for m, n in types:
        nt = normalize(m, n)
        ts, psis = _numpy_curve(nt, 0.05, 1.0, 6000)
        delta = start_offset(nt)
        assert shapetrace._sample_times(delta, 1.0 + delta, 6000) == ts.tolist()
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(_sphere_xy_reference, psis.tolist()))
        svg = pathlib.Path(svg_shape(nt, 0.05, 6000, out)).read_text()
        assert f'<polyline points="{pts}"' in svg, (m, n)


def test_figures_reject_fewer_than_two_steps(tmp_path):
    for figure in (svg_shape, csv_shape):
        with pytest.raises(ValueError):
            figure(normalize(4, -5), 0.05, 1, str(tmp_path / "figure"))
    assert not (tmp_path / "figure").exists()


def _rounds_near(text, value):
    # text is the 12-digit rounding of a float within 1e-15 absolute or 2e-12
    # relative of value: rounding is monotonic, so it lies between the ends' roundings
    tol = max(1e-15, 2e-12 * abs(value))
    return float(f"{value - tol:.12g}") <= float(text) <= float(f"{value + tol:.12g}")


def test_csv_shape_equals_the_numpy_formula(tmp_path):
    # cmath divides where numpy multiplies by a reciprocal, so the last bits
    # of psi may differ, and with them a 12th digit
    out = str(tmp_path / "shape.csv")
    for m, n in enumerate_p0(60):
        nt = normalize(m, n)
        ts, psis = _numpy_curve(nt, 0.05, 1.0 / 3.0, 6000)
        expected = [f"{t:.12g},{z.real:.12g},{z.imag:.12g}" for t, z in zip(ts.tolist(), psis.tolist())]
        rows = pathlib.Path(csv_shape(nt, 0.05, 6000, out)).read_text().splitlines()
        assert rows[0] == "t,re_psi,im_psi" and len(rows) == 6001
        for row, want, z in zip(rows[1:], expected, psis.tolist()):
            if row != want:
                t_text, re_text, im_text = row.split(",")
                assert t_text == want.split(",")[0], (m, n, row)
                assert _rounds_near(re_text, z.real) and _rounds_near(im_text, z.imag), (m, n, row)


def _farey_brute(x0, x1, max_denominator):
    # every pair of reduced fractions in [x0, x1] tested for |ad - bc| = 1
    fracs = sorted({Fraction(p, q) for q in range(1, max_denominator + 1)
                    for p in range(x0 * q, x1 * q + 1) if gcd(p, q) == 1})
    return [
        (u, v)
        for i, u in enumerate(fracs)
        for v in fracs[i + 1:]
        if abs(u.numerator * v.denominator - u.denominator * v.numerator) == 1
    ]


def test_farey_edges_oracle():
    assert len(_farey_brute(0, 1, 3)) == 7
    for x0, x1 in [(0, 1), (-2, 5), (-3, -1)]:
        for max_denominator in range(1, 13):
            assert farey_edges(x0, x1, max_denominator) == _farey_brute(x0, x1, max_denominator)
    assert len(farey_edges(-2, 5, 80)) == 27517
    # max denominator 1: consecutive integers only
    assert farey_edges(0, 3, 1) == [
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(3))
    ]


def test_svg_halfplane(tmp_path):
    out = str(tmp_path / "axis.svg")
    svg_halfplane(Psl2Mat(10, 3, 3, 1), 3, out)
    text = pathlib.Path(out).read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "3.302776" in text and "-0.302776" in text
