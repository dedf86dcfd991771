import pytest

from lissbraid.classify import LevelSlope, clusters_of, enumerate_p0, level_slope_of
from lissbraid.errors import NotPrimitive
from lissbraid.syzygy import omega, syzygy_sequence
from reference import is_reduced

FULL_PERIOD_42 = "123131231232312312123123131231232312312123"


@pytest.mark.parametrize("label,expected", [
    (LevelSlope(1, 4, 1), "+++-+++"),
    (LevelSlope(1, 1, 0), "+"),
    (LevelSlope(2, 1, 0), "+-+"),
    (LevelSlope(1, 3, 2), "++-+++-++"),
])
def test_omega_examples(label, expected):
    assert omega(label) == expected


def test_omega_length_identity():
    for m, n in enumerate_p0(60):
        label = level_slope_of(m, n)
        assert len(omega(label)) == label.p * (2 * label.level - 1) + label.q * (2 * label.level + 1)


def test_syzygy_42_letter_example():
    assert syzygy_sequence(-8, 13) == FULL_PERIOD_42
    assert len(FULL_PERIOD_42) == 42


def test_syzygy_small_examples():
    # frozen from the geometric crossing oracle (see test_shapetrace)
    assert syzygy_sequence(1, -2) == "132132"
    assert syzygy_sequence(4, -5) == "131323212131323212"


def test_syzygy_requires_primitive():
    with pytest.raises(NotPrimitive):
        syzygy_sequence(1, 4)


def test_syzygy_periods_parameter():
    one = syzygy_sequence(-8, 13, periods=1)
    two = syzygy_sequence(-8, 13, periods=2)
    assert two == one * 2
    with pytest.raises(ValueError):
        syzygy_sequence(-8, 13, periods=0)


def test_syzygy_reduced_and_length():
    for m, n in enumerate_p0(100):
        seq = syzygy_sequence(m, n)
        label = level_slope_of(m, n)
        assert len(seq) == 6 * (label.p * (2 * label.level - 1) + label.q * (2 * label.level + 1))
        assert is_reduced(seq)


@pytest.mark.parametrize("seq,expected", [
    ("123123", True),
    ("1123", False),
    (FULL_PERIOD_42, True),
    ("", True),
    ("1", False),
    ("12", True),
])
def test_is_reduced(seq, expected):
    assert is_reduced(seq) is expected


def _walk_by_letter(m, n):
    """Reference: the per-letter walk over one period, six copies of omega
    built radius by radius; the arcs it visits and the arc it ends at."""
    drive = "".join("+-" * (r - 1) + "+" for r in clusters_of(level_slope_of(m, n)).radii) * 6
    direction = -1 if m > 0 else 1
    arc, out = 1, []
    for sign in drive:
        out.append(arc)
        step = direction if sign == "+" else -direction
        arc = (arc - 1 + step) % 3 + 1
    return "".join(map(str, out)), arc


def test_syzygy_equals_per_letter_walk():
    types = enumerate_p0(200)
    assert len(types) == 2042
    for m, n in types:
        label = level_slope_of(m, n)
        assert omega(label) == "".join("+-" * (r - 1) + "+" for r in clusters_of(label).radii)
        # the walk is deterministic and one period brings it back to arc 1,
        # so the walk over k periods is the one-period walk repeated k times
        walk, end = _walk_by_letter(m, n)
        assert end == 1, (m, n)
        for periods in (1, 2, 3):
            assert syzygy_sequence(m, n, periods) == walk * periods, (m, n)
