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
    radius_blocks,
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
    """Reference: the mechanical word as the differences of consecutive
    floors (q k + rho) // (p + q), k = 0 .. p + q, each floor taken once;
    as 0 <= q < p + q, each difference is 0 or 1."""
    s = p + q
    floors = [(q * k + rho) // s for k in range(s + 1)]
    return "".join(["01"[b - a] for a, b in zip(floors, floors[1:])])


def test_mechanical_equals_floor_differences():
    rng = random.Random(11)
    for p, q in _coprime_pairs(150):
        s = p + q
        for rho in (0, (s - 1) // 2, rng.randrange(s)):
            assert _mechanical(p, q, rho) == _mechanical_by_symbol(p, q, rho), (p, q, rho)


def test_mechanical_equals_floor_differences_on_long_words():
    for p, q in [(61803, 38197), (38197, 61803), (1, 99999), (99999, 1)]:
        s = p + q
        for rho in (0, (s - 1) // 2, 12345):
            assert _mechanical(p, q, rho) == _mechanical_by_symbol(p, q, rho), (p, q, rho)


def test_mechanical_takes_any_integer_intercept():
    # the floor differences depend only on rho mod (p+q)
    rng = random.Random(13)
    for p, q in _coprime_pairs(40) + [(89, 55), (1, 1000)]:
        s = p + q
        for rho in (-1, -s, -s - 1, s, s + 1, 2 * s + 3, -7 * s + 2, rng.randrange(-10**6, 10**6)):
            word = _mechanical(p, q, rho)
            assert word == _mechanical_by_symbol(p, q, rho) == _mechanical(p, q, rho % s), (p, q, rho)


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
    # levels to 254 translate bytes, higher ones map letters through a dict
    rng = random.Random(5)
    for _ in range(300):
        level = rng.choice((rng.randint(1, 60), 253, 254, 255, 256, 10**6))
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
        assert varphi_n(level, w) == tuple(level + int(ch) for ch in w)


@pytest.mark.parametrize("level,w", [(0, "01"), (1, "012"), (2, "0a"), (300, "01x")])
def test_varphi_n_rejects_bad_input(level, w):
    with pytest.raises(ValueError):
        varphi_n(level, w)


def _radius_blocks_by_letter(level, word, pairs):
    """Reference: radius_blocks one letter at a time."""
    blocks = []
    for i, ch in enumerate(word):
        x, y = pairs[i % len(pairs)]
        blocks.append((x + y) * (level - 1 + int(ch)) + x)
    return "".join(blocks)


def test_radius_blocks_equals_per_letter_reference():
    rng = random.Random(23)
    for pairs in [("+-",), ("db", "pq"), ("bd", "qp"), ("12", "23", "31")]:
        for _ in range(300):
            level = rng.randint(1, 12)
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 60)))
            assert radius_blocks(level, word, pairs) == _radius_blocks_by_letter(level, word, pairs), \
                (level, word, pairs)


@pytest.mark.parametrize("level,w,pairs,match", [
    (0, "01", ("+-",), "level"),
    (1, "012", ("+-",), "not a word"),
    (2, "0a", ("db", "pq"), "not a word"),
    (1, "01", (), "pairs"),
    (1, "01", ("\x01+",), "pairs"),
    (1, "01", ("db", "p\x03"), "pairs"),
    (1, "01", ("\u0101\u0102",) * 65, "pairs"),
])
def test_radius_blocks_rejects_bad_input(level, w, pairs, match):
    # a pair letter below chr(2 len(pairs)) would be read as a letter's tag
    with pytest.raises(ValueError, match=match):
        radius_blocks(level, w, pairs)


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
