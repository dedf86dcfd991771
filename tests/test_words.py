import random
from math import gcd

import pytest

from lissbraid.classify import enumerate_p0, level_slope_of
from lissbraid.errors import MultiplePalindromes, NoPalindrome
from lissbraid.lissajous import epsilon_seq, normalize
from lissbraid.words import (
    _mechanical,
    christoffel,
    palindromic_christoffel,
    palindromic_conjugate,
    rotations,
    varphi_n,
)
from reference import cluster_lengths, difference_seq, phi_n


@pytest.mark.parametrize("p,q,expected", [
    (1, 0, "0"),
    (7, 4, "00100100101"),
    (3, 2, "00101"),
    (1, 1, "01"),
    (4, 1, "00001"),
])
def test_christoffel_examples(p, q, expected):
    assert christoffel(p, q) == expected


def test_christoffel_rejects_bad_input():
    with pytest.raises(ValueError):
        christoffel(2, 4)
    with pytest.raises(ValueError):
        christoffel(0, 1)


def _coprime_pairs(max_sum, rng=None, sample=None):
    pairs = [(p, q) for s in range(1, max_sum + 1)
             for q in range(s) for p in [s - q] if gcd(p, q) == 1]
    if sample is not None:
        pairs = rng.sample(pairs, min(sample, len(pairs)))
    return pairs


def test_christoffel_length_and_counts():
    for p, q in _coprime_pairs(500):
        w = christoffel(p, q)
        assert len(w) == p + q
        assert w.count("1") == q and w.count("0") == p


def _mechanical_by_symbol(p, q, rho):
    """Reference: the mechanical word one floor difference at a time."""
    s = p + q
    return "".join(str((q * k + rho) // s - (q * (k - 1) + rho) // s) for k in range(1, s + 1))


def test_mechanical_equals_floor_differences():
    rng = random.Random(11)
    for p, q in _coprime_pairs(150):
        s = p + q
        for rho in (0, (s - 1) // 2, rng.randrange(s)):
            assert _mechanical(p, q, rho) == _mechanical_by_symbol(p, q, rho), (p, q, rho)


def test_christoffel_balanced():
    rng = random.Random(1)
    for p, q in [(7, 4), (13, 8), (21, 34), (89, 55), (3, 2)]:
        w = christoffel(p, q) * 2
        for _ in range(200):
            k = rng.randrange(1, p + q)
            i, j = rng.randrange(p + q), rng.randrange(p + q)
            u, v = w[i:i + k], w[j:j + k]
            assert abs(u.count("0") - v.count("0")) <= 1


@pytest.mark.parametrize("w,expected", [
    ("00101", "01010"),
    ("00001", "00100"),
    ("0", "0"),
])
def test_palindromic_conjugate_examples(w, expected):
    assert palindromic_conjugate(w) == expected


def test_palindromic_conjugate_unique_for_odd_christoffel():
    for p, q in _coprime_pairs(60):
        if (p + q) % 2 == 0:
            continue
        pal = palindromic_conjugate(christoffel(p, q))
        assert pal == pal[::-1]
        assert sorted(pal) == sorted(christoffel(p, q))


def test_palindromic_christoffel_equals_rotation_scan():
    for p, q in _coprime_pairs(150):
        if (p + q) % 2:
            assert palindromic_christoffel(p, q) == palindromic_conjugate(christoffel(p, q))
        else:
            with pytest.raises(NoPalindrome):
                palindromic_christoffel(p, q)
    with pytest.raises(ValueError):
        palindromic_christoffel(3, 6)


def test_palindromic_conjugate_errors():
    with pytest.raises(NoPalindrome):
        palindromic_conjugate("01")
    with pytest.raises(MultiplePalindromes):
        palindromic_conjugate("0110")


@pytest.mark.parametrize("level,w,expected", [
    (1, "0", "1"),
    (1, "1", "1011"),
    (2, "0", "1011"),
    (2, "1", "1011011"),
])
def test_phi_n_examples(level, w, expected):
    assert phi_n(level, w) == expected


def test_phi_n_length_identity():
    for level in (1, 2, 3, 5):
        for w in ("", "0", "1", "00101", "110100"):
            img = phi_n(level, w)
            assert len(img) == w.count("0") * (3 * level - 2) + w.count("1") * (3 * level + 1)


@pytest.mark.parametrize("level,w,expected", [
    (1, "01010", (1, 2, 1, 2, 1)),
    (2, "00100", (2, 2, 3, 2, 2)),
    (1, "", ()),
])
def test_varphi_n_examples(level, w, expected):
    assert varphi_n(level, w) == expected


def test_varphi_n_matches_per_letter_form():
    rng = random.Random(5)
    for _ in range(200):
        level = rng.randint(1, 60)
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
        assert varphi_n(level, w) == tuple(level + int(ch) for ch in w)


@pytest.mark.parametrize("level,w", [(0, "01"), (1, "012"), (2, "0a")])
def test_varphi_n_rejects_bad_input(level, w):
    with pytest.raises(ValueError):
        varphi_n(level, w)


@pytest.mark.parametrize("m,l,expected", [
    (4, 3, "1011"),
    (1, 1, "1"),
])
def test_difference_seq_examples(m, l, expected):
    assert difference_seq(m, l) == expected


def test_difference_seq_floor_oracle():
    # brute-force floor evaluation with fractions
    from fractions import Fraction
    for m, l in [(4, 3), (11, 9), (23, 17), (7, 5), (13, 9)]:
        slope = Fraction(l, m)
        expected = "".join(
            str((slope * (2 * k + 1) / 2).__floor__() - (slope * (2 * k - 1) / 2).__floor__())
            for k in range(1, m + 1)
        )
        assert difference_seq(m, l) == expected


def test_difference_seq_conjugate_to_christoffel():
    # one period is a rotation of the Christoffel word of slope l/(m-l)
    for m, l in [(11, 9), (4, 3), (23, 17), (31, 21)]:
        w = difference_seq(m, l)
        cw = christoffel(m - l, l)
        assert any(r == cw for r in rotations(w))


def test_difference_seq_is_eps_increment():
    for m, n in enumerate_p0(50):
        nt = normalize(m, n)
        bits = epsilon_seq(nt)
        delta = difference_seq(abs(nt.m), abs(nt.ell))
        am = abs(nt.m)
        for k in range(2 * am - 1):
            assert (bits[k + 1] - bits[k]) % 2 == int(delta[k % am])


def test_zeros_isolated_in_primitive_range():
    for m, n in enumerate_p0(60):
        nt = normalize(m, n)
        w = difference_seq(abs(nt.m), abs(nt.ell))
        assert "00" not in w + w[0]


def test_cluster_length_lemma():
    # cyclic 1-cluster lengths are {e} or {e, e+1} with e = floor(l/(m-l))
    for m, n in enumerate_p0(60):
        nt = normalize(m, n)
        am, al = abs(nt.m), abs(nt.ell)
        if am == al:  # the constant-1 word has no 0
            continue
        lengths = cluster_lengths(difference_seq(am, al), cyclic=True)
        e = al // (am - al)
        assert lengths in ({e}, {e, e + 1})


@pytest.mark.parametrize("w,expected", [
    ("1011", {3}),
    ("00100", {1}),
    ("110111", {5}),
])
def test_cluster_lengths_cyclic_examples(w, expected):
    assert cluster_lengths(w, cyclic=True) == expected


def test_cluster_lengths_linear_and_errors():
    assert cluster_lengths("1011", cyclic=False) == {1, 2}
    assert cluster_lengths("", cyclic=True) == set()
    with pytest.raises(ValueError, match="has no 0"):
        cluster_lengths("111", cyclic=True)


def test_phi_n_lifts_christoffel_to_difference_seq():
    for m, n in enumerate_p0(200):
        nt = normalize(m, n)
        label = level_slope_of(m, n)
        lifted = phi_n(label.level, christoffel(label.p, label.q))
        w = difference_seq(abs(nt.m), abs(nt.ell))
        assert len(lifted) == len(w) and w in lifted + lifted
