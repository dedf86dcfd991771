from math import gcd

import pytest

from lissbraid.algebra import frieze_w
from lissbraid.classify import (
    LevelSlope,
    clusters_of,
    enumerate_labels,
    enumerate_p0,
    level_slope_of,
    type_of,
)
from lissbraid.errors import InvalidLabel, NotPrimitive
from lissbraid.lissajous import build_H, normalize
from lissbraid.surd import CfExpansion, cf_expand, far_endpoint


@pytest.mark.parametrize("mn,label", [
    ((4, -5), (2, 1, 0)),
    ((-11, 16), (1, 3, 2)),
    ((-23, 28), (2, 4, 1)),
    ((1, -2), (1, 1, 0)),
    ((-8, 13), (1, 4, 1)),
])
def test_level_slope_examples(mn, label):
    level, p, q = label
    assert level_slope_of(*mn) == LevelSlope(level, p, q)


def test_level_slope_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        level_slope_of(1, 4)


@pytest.mark.parametrize("label,mn", [
    (LevelSlope(1, 3, 2), (-11, 16)),
    (LevelSlope(1, 4, 1), (-8, 13)),
    (LevelSlope(2, 4, 1), (-23, 28)),
])
def test_type_of_examples(label, mn):
    assert type_of(label) == mn


def test_type_of_slope_zero_family():
    for level in range(1, 21):
        assert type_of(LevelSlope(level, 1, 0)) == (3 * level - 2, 1 - 3 * level)


def test_invalid_labels_rejected():
    with pytest.raises(InvalidLabel):
        LevelSlope(1, 2, 1)   # p + q = 3
    with pytest.raises(InvalidLabel):
        LevelSlope(1, 2, 2)   # gcd(p, q) = 2
    with pytest.raises(InvalidLabel):
        LevelSlope(0, 1, 0)


@pytest.mark.parametrize("label,radii,letters", [
    (LevelSlope(1, 3, 2), (1, 2, 1, 2, 1), "bqpqbqpqb"),
    (LevelSlope(2, 4, 1), (2, 2, 3, 2, 2), "bdbqpqbdbdbqpqbdb"),
    (LevelSlope(2, 1, 0), (2,), "dbd"),
])
def test_clusters_of_examples(label, radii, letters):
    cs = clusters_of(label)
    assert cs.radii == radii
    assert cs.letters == letters
    assert cs.radii == cs.radii[::-1]


def test_cluster_junction_rule():
    # clusters alternate alphabets; junction letters pair b<->q and d<->p
    pairs = {("b", "q"), ("q", "b"), ("d", "p"), ("p", "d")}
    for m, n in enumerate_p0(40):
        cs = clusters_of(level_slope_of(m, n))
        pos = 0
        for r in cs.radii[:-1]:
            pos += 2 * r - 1
            assert (cs.letters[pos - 1], cs.letters[pos]) in pairs


def test_enumerate_p0_examples():
    assert enumerate_p0(1) == [(1, -2)]
    assert enumerate_p0(4) == [(1, -2), (4, -5)]
    assert enumerate_p0(7) == [(1, -2), (4, -5), (7, -8)]


def test_enumerate_p0_against_filter_oracle():
    max_m = 60
    brute = sorted(
        (
            (m, n)
            for m in range(-max_m, max_m + 1)
            for n in range(-2 * max_m, 2 * max_m + 1)
            if m and n and gcd(m, n) == 1
            and m % 3 == 1 and n % 3 == 1 and (m - n) % 6 != 0
            and m * n < 0 and abs(m) < abs(n) <= 2 * abs(m)
        ),
        key=lambda t: (abs(t[0]), abs(t[1])),
    )
    assert enumerate_p0(max_m) == brute


def test_enumerate_labels_examples():
    assert {l.slope_str for l in enumerate_labels(1, 1)} == {"0/1"}
    assert {l.slope_str for l in enumerate_labels(5, 1)} == {"0/1", "1/4", "2/3", "3/2", "4/1"}
    sums = {l.p + l.q for l in enumerate_labels(12, 2)}
    assert sums == {1, 5, 7, 11}


def test_round_trip_small():
    for t in enumerate_p0(40):
        assert type_of(level_slope_of(*t)) == t
    for label in enumerate_labels(20, 4):
        assert level_slope_of(*type_of(label)) == label


def test_cluster_letters_equal_direct_word_small():
    for m, n in enumerate_p0(40):
        assert clusters_of(level_slope_of(m, n)).letters == build_H(normalize(m, n))


@pytest.mark.parametrize("label", [LevelSlope(1, 1000, 1), LevelSlope(50, 100, 1)])
def test_clusters_and_cf_at_large_m(label):
    h = build_H(normalize(*type_of(label)))
    assert clusters_of(label).letters == h
    _, mat = frieze_w(h)
    cf = cf_expand(far_endpoint(mat))
    assert cf == CfExpansion((), tuple(2 * r - 1 for r in clusters_of(label).radii))


def test_h_length_identity():
    for m, n in enumerate_p0(60):
        label = level_slope_of(m, n)
        h = build_H(normalize(m, n))
        assert len(h) == label.p * (2 * label.level - 1) + label.q * (2 * label.level + 1)
        assert len(h) % 2 == 1


def test_sign_resolution_yields_opposite_signs():
    # |m| + |n| = 3|ell| forces opposite residues mod 3, hence mn < 0
    for label in enumerate_labels(30, 5):
        m, n = type_of(label)
        assert m * n < 0
        assert (abs(m) + abs(n)) % 3 == 0
