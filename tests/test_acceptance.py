"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import functools
import math

from lissbraid.algebra import Psl2Mat, ab_to_matrix, frieze_w, s3_image, trace_class
from lissbraid.classify import enumerate_p0, level_slope_of
from lissbraid.lissajous import build_H, build_W, epsilon_seq, normalize
from lissbraid.report import build_report
from lissbraid.shapetrace import region_itinerary
from lissbraid.surd import CfExpansion, QuadSurd, cf_expand, far_endpoint
from lissbraid.syzygy import omega, syzygy_sequence
from lissbraid.verify import SUITES


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


@criterion(1, "worked-example classifications are exact")
def test_worked_examples():
    r = build_report(4, -5)
    assert (r.label.level, r.label.slope_str) == (2, "0/1")
    assert r.matrix == Psl2Mat(10, 3, 3, 1)
    assert r.frieze_h == "dbd" and r.frieze_w == "dbd" + "pqp"

    r = build_report(-11, 16)
    assert (r.label.level, r.label.slope_str) == (1, "2/3")
    assert r.matrix == Psl2Mat(586, -741, -741, 937)
    assert r.frieze_w == "bqpqbqpqb" + "qbdbqbdbq"

    r = build_report(-23, 28)
    assert (r.label.level, r.label.slope_str) == (2, "1/4")
    assert r.matrix == Psl2Mat(31162, -103259, -103259, 342161)


@criterion(2, "metallic-ratio family: exact matrices, dilatations to 1e-12")
def test_metallic_family():
    for level in range(1, 21):
        m, n = 3 * level - 2, 1 - 3 * level
        k = 2 * level - 1
        w_mat = ab_to_matrix(build_W(normalize(m, n)))
        assert w_mat == Psl2Mat(1 + k * k, k, k, 1)
        dil = build_report(m, n).dilatation_approx
        metallic = (k + math.sqrt(k * k + 4)) / 2
        assert abs(dil - metallic**2) <= 1e-12 * metallic**2


@criterion(3, "far endpoints and CF periods match the three displays exactly")
def test_continued_fractions():
    far = far_endpoint(Psl2Mat(10, 3, 3, 1))
    assert far == QuadSurd(3, 2, 13)
    assert cf_expand(far) == CfExpansion((), (3,))

    far = far_endpoint(Psl2Mat(586, -741, -741, 937))
    assert far == QuadSurd(9, 38, 1525)  # (9 + 5*sqrt(61)) / 38
    assert cf_expand(far) == CfExpansion((), (1, 3, 1, 3, 1))

    far = far_endpoint(Psl2Mat(31162, -103259, -103259, 342161))
    assert far == QuadSurd(509, 338, 373325)  # (509 + 5*sqrt(14933)) / 338
    assert cf_expand(far) == CfExpansion((), (3, 3, 5, 3, 3))


@criterion(4, "syzygy of (-8,13): omega and the 42-letter period are exact")
def test_syzygy_example():
    assert omega(level_slope_of(-8, 13)) == "+++-+++"
    assert syzygy_sequence(-8, 13) == "123131231232312312123123131231232312312123"


def assert_suite(name, cases, **bounds):
    """Run a verify suite at the given bounds: exactly `cases` cases, all ok."""
    results = SUITES[name](**bounds)
    assert len(results) == cases, (name, len(results))
    failures = [c for c in results if not c[1]]
    assert not failures, failures[:5]


@criterion(5, "level/slope correspondence is a bijection on the stated ranges")
def test_bijection():
    assert_suite("bijection", 2, max_m=200, max_sum=100, max_level=10)


@criterion(6, "cluster construction equals the direct word; W splits into halves")
def test_dual_construction():
    assert_suite("cluster", 2042, max_m=200)


@criterion(7, "numeric oracles agree with the exact routes")
def test_oracle_agreement():
    assert_suite("epsilon", 129, max_m=30)
    assert_suite("collision", 58)
    assert_suite("syzygy", 7, max_m=12)


@criterion(8, "structural invariants hold over the whole family")
def test_structural_invariants():
    for m, n in enumerate_p0(200):
        nt = normalize(m, n)
        bits = epsilon_seq(nt)
        am = abs(m)
        for k in range(1, am + 1):
            assert bits[k - 1] == bits[am - k]
            assert bits[am + k - 1] == bits[2 * am - k]
            assert bits[k - 1] + bits[am + k - 1] == 1
        h = build_H(nt)
        w, mat = frieze_w(h)
        assert s3_image(w) == 2  # (132) = (123)^2
        assert s3_image(h) == 1  # (123)
        assert trace_class(mat) == "hyperbolic"
        label = level_slope_of(m, n)
        assert len(h) % 2 == 1
        assert len(h) == label.p * (2 * label.level - 1) + label.q * (2 * label.level + 1)
    assert_suite("cf", 180, max_m=60)


@criterion(9, "region itineraries match the two anchors exactly")
def test_itinerary_anchors():
    assert region_itinerary(normalize(1, -2)) == ["I-", "I+", "III+", "III-", "II-"]
    assert region_itinerary(normalize(1, 4)) == ["I-", "III-", "III+", "II+", "II-"]
