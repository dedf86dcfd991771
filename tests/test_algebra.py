import random

import pytest
from hypothesis import given, strategies as st

import lissbraid.algebra as algebra
from lissbraid.algebra import (
    A_MAT,
    LETTER_MATS,
    Psl2Mat,
    ab_to_frieze,
    ab_to_matrix,
    check_ab,
    frieze_to_matrix,
    frieze_w,
    reduce_frieze,
    second_half,
    trace_class,
)
from lissbraid.classify import enumerate_p0
from lissbraid.errors import InvariantError, NotPalindromic, OddACount
from lissbraid.lissajous import build_H, build_W, normalize
from lissbraid.words import _check_binary
from reference import (
    a_conjugate, cyclically_equal, factor_of, frieze_inverse, mat_inverse, s3_image)

frieze_words = st.text(alphabet="pbqd", max_size=50)


# --- reduction -------------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    ("pp", "b"),
    ("pb", ""),
    ("bp", ""),
    ("qd", ""),
    ("ppp", ""),
    ("dppd", "dbd"),
    ("dppdpddp", "dbdpqp"),
    ("dppdqbbq", ""),
])
def test_reduce_frieze_examples(raw, expected):
    assert reduce_frieze(raw) == expected
    # matrix oracle: reduction must not change the group element
    assert frieze_to_matrix(raw) == frieze_to_matrix(expected)


@given(frieze_words)
def test_reduce_idempotent_and_alternating(w):
    r = reduce_frieze(w)
    assert reduce_frieze(r) == r
    assert all(factor_of(a) != factor_of(b) for a, b in zip(r, r[1:]))


@given(frieze_words, frieze_words)
def test_reduce_is_group_homomorphism(u, v):
    assert frieze_to_matrix(reduce_frieze(u + v)) == frieze_to_matrix(u) * frieze_to_matrix(v)


@given(frieze_words)
def test_inverse_word(w):
    assert frieze_to_matrix(w) * frieze_to_matrix(frieze_inverse(w)) == Psl2Mat.identity()


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_frieze("px")


# --- matrices --------------------------------------------------------------

def test_frieze_to_matrix_examples():
    assert frieze_to_matrix("dbdpqp") == Psl2Mat(10, 3, 3, 1)
    assert frieze_to_matrix("") == Psl2Mat.identity()
    assert frieze_to_matrix("dp") == Psl2Mat(2, 1, 1, 1)


def _left_fold(mats):
    """Reference: the per-letter product, one 2x2 multiplication at a time."""
    out = Psl2Mat.identity()
    for mat in mats:
        out = out * mat
    return out


_AB_MATS = {"A": A_MAT, "B": LETTER_MATS["p"]}
_RNG = random.Random(5)
_RANDOM_FRIEZE = ["", "p", "b", "q", "d"] + [
    "".join(_RNG.choice("pbqd") for _ in range(_RNG.randrange(2, 700))) for _ in range(40)]
_RANDOM_AB = ["", "A", "B", "BB"] + [
    "".join(_RNG.choice("AB") for _ in range(_RNG.randrange(2, 700))) for _ in range(40)]


def test_frieze_to_matrix_equals_left_fold():
    for word in _RANDOM_FRIEZE:
        assert frieze_to_matrix(word) == _left_fold(LETTER_MATS[ch] for ch in word), word


def test_ab_word_matrix_equals_left_fold():
    for word in _RANDOM_AB:
        assert ab_to_matrix(word) == _left_fold(_AB_MATS[ch] for ch in word), word


def _alternating_word(rng, length, first_factor):
    return "".join(rng.choice("pb" if (first_factor + i) % 2 == 0 else "qd")
                   for i in range(length))


def test_alternating_and_ab_words_equal_left_fold_at_every_leaf_tail():
    # lengths 0 to 50 end in every partial 16-letter leaf, and 0 to 40 cover
    # the A/B words up to two full leaves and a partial third
    rng = random.Random(11)
    for length in range(51):
        for first_factor in (0, 1):
            word = _alternating_word(rng, length, first_factor)
            assert frieze_to_matrix(word) == _left_fold(LETTER_MATS[ch] for ch in word), word
    for length in range(41):
        for _ in range(4):
            word = "".join(rng.choice("AB") for _ in range(length))
            assert ab_to_matrix(word) == _left_fold(_AB_MATS[ch] for ch in word), word


def _leaves(words):
    """The leaves _product reads from the memo, sliced without multiplying."""
    size = algebra._LEAF
    return {w[i:i + size] for w in words for i in range(0, len(w), size)}


def test_leaf_memo_stops_at_its_cap(monkeypatch):
    leaves = algebra._Leaves()
    monkeypatch.setattr(algebra, "_LEAVES", leaves)
    rng = random.Random(13)
    words = [_alternating_word(rng, rng.randrange(100, 400), rng.randrange(2)) for _ in range(300)]
    assert len(_leaves(words)) > leaves.maxsize
    for word in words + words:
        assert frieze_to_matrix(word) == _left_fold(LETTER_MATS[ch] for ch in word), word
    assert len(leaves) == leaves.maxsize


def test_pipeline_leaves_fit_half_the_leaf_memo():
    # the words the pipeline multiplies reuse few 16-letter leaves (Sturmian
    # words have n + 1 factors of length n): W and the A/B word of every
    # type of the family sweep take 654 + 171 of them; 24-letter leaves
    # would take 1975 for W alone
    words = []
    for m, n in enumerate_p0(200):
        nt = normalize(m, n)
        h = build_H(nt)
        words += [h + second_half(h), build_W(nt)]
    assert len(_leaves(words)) <= algebra._Leaves.maxsize // 2


@pytest.mark.parametrize("check,alphabet,other", [
    (algebra.check_frieze, "pbqd", "A"),
    (algebra.check_ab, "AB", "p"),
    (_check_binary, "01", "p"),
])
def test_letter_checks_reject_every_other_character(check, alphabet, other):
    for word in ("", alphabet, alphabet[::-1] * 3):
        assert check(word) == word
    for word in ("√", "P", "p\n", other, alphabet + other):
        with pytest.raises(ValueError):
            check(word)


def test_random_word_products_keep_the_leaf_memo_bounded(monkeypatch):
    leaves = algebra._Leaves()
    monkeypatch.setattr(algebra, "_LEAVES", leaves)
    rng = random.Random(9)
    words = ["pp" * 40, "qbpd" * 20]
    for _ in range(500):
        word = "".join(rng.choice("pbqd") for _ in range(rng.randrange(0, 301)))
        words += [word, reduce_frieze(word)]
    for w in words:
        assert frieze_to_matrix(w) == _left_fold(LETTER_MATS[ch] for ch in w), w
    ab_words = ["".join(rng.choice("AB") for _ in range(rng.randrange(0, 301))) for _ in range(500)]
    for ab_word in ab_words:
        assert ab_to_matrix(ab_word) == _left_fold(_AB_MATS[ch] for ch in ab_word), ab_word
    assert len(_leaves(words + ab_words)) > leaves.maxsize
    assert len(leaves) == leaves.maxsize


def test_sign_normalization():
    m = Psl2Mat(-2, -1, -1, -1)
    assert (m.a, m.b, m.c, m.d) == (2, 1, 1, 1)
    assert Psl2Mat(0, -1, 1, 0) == Psl2Mat(0, 1, -1, 0)
    # normalizing twice is normalizing once, and the value is hashable
    assert Psl2Mat(m.a, m.b, m.c, m.d) == m
    assert len({m, Psl2Mat(-2, -1, -1, -1)}) == 1


def test_bad_determinant_rejected():
    with pytest.raises(ValueError):
        Psl2Mat(1, 0, 0, 2)


@pytest.mark.parametrize("mat,expected", [
    (Psl2Mat(10, 3, 3, 1), "hyperbolic"),
    (Psl2Mat(1, 1, 0, 1), "parabolic"),
    (Psl2Mat(0, -1, 1, 0), "elliptic"),
])
def test_trace_class(mat, expected):
    assert trace_class(mat) == expected


# --- A,B-words -------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("ABBAB", "dp"),
    ("BABBA", "pd"),
    ("BB", "b"),
])
def test_ab_to_frieze_examples(text, expected):
    assert ab_to_frieze(text) == expected


def test_ab_word_roundtrip_printing():
    # A/B words are plain strings: validation returns the word as printed
    assert check_ab("ABBAB") == "ABBAB"
    assert ab_to_matrix("ABBAB") == A_MAT * LETTER_MATS["b"] * A_MAT * LETTER_MATS["p"]
    for bad in ("ABx", "ApA", "a"):
        with pytest.raises(ValueError):
            ab_to_matrix(bad)
        with pytest.raises(ValueError):
            ab_to_frieze(bad)


def test_ab_translation_check_is_a_real_error(monkeypatch):
    # a translation that loses group equality raises, also under python -O
    monkeypatch.setattr(algebra, "reduce_two_letter", lambda word, x, y: word + "p")
    with pytest.raises(InvariantError):
        ab_to_frieze("ABBAB")


def test_odd_a_count_rejected():
    with pytest.raises(OddACount):
        ab_to_frieze("AB")


ab_words = st.text(alphabet="AB", max_size=80)


@given(ab_words)
def test_ab_translation_preserves_matrix(word):
    if word.count("A") % 2:
        word += "A"
    assert frieze_to_matrix(ab_to_frieze(word)) == ab_to_matrix(word)


# --- S3 image --------------------------------------------------------------

def test_s3_image_examples():
    # the image is (123)^k, given as k
    assert s3_image("dp") == 2
    assert s3_image("dbd") == 1
    assert s3_image("") == 0


@given(frieze_words, frieze_words)
def test_s3_image_homomorphism(u, v):
    assert s3_image(u + v) == (s3_image(u) + s3_image(v)) % 3


@given(frieze_words)
def test_s3_image_conjugation(w):
    # A maps to the transposition (13), and conjugating a 3-cycle by it inverts it
    assert s3_image(a_conjugate(w)) == -s3_image(w) % 3


# --- conjugation and halves ------------------------------------------------

def test_a_conjugate_examples():
    assert a_conjugate("dbd") == "bdb"
    assert a_conjugate("pq") == "qp"
    assert a_conjugate("") == ""


@given(frieze_words)
def test_a_conjugate_matrix(w):
    m = frieze_to_matrix(w)
    assert frieze_to_matrix(a_conjugate(w)) == A_MAT * m * A_MAT


def test_second_half_examples():
    assert second_half("dbd") == "pqp"
    assert second_half("bqpqbqpqb") == "qbdbqbdbq"
    assert second_half("p") == "d"


def test_second_half_is_a_inverse_a():
    for h in ("dbd", "bqpqbqpqb", "p", "bdbqpqbdbdbqpqbdb"):
        lhs = frieze_to_matrix(second_half(h))
        assert lhs == A_MAT * mat_inverse(frieze_to_matrix(h)) * A_MAT


def test_second_half_needs_palindrome():
    with pytest.raises(NotPalindromic):
        second_half("pq")


@pytest.mark.parametrize("h,w,mat", [
    ("dbd", "dbdpqp", Psl2Mat(10, 3, 3, 1)),
    ("bqpqbqpqb", "bqpqbqpqbqbdbqbdbq", Psl2Mat(586, -741, -741, 937)),
    ("p", "pd", Psl2Mat(2, -1, -1, 1)),
])
def test_frieze_w_examples(h, w, mat):
    assert frieze_w(h) == (w, mat)
    assert reduce_frieze(w) == w


# --- cyclic equality -------------------------------------------------------

@pytest.mark.parametrize("w1,w2,expected", [
    ("dbdpqp", "pqpdbd", True),
    ("dbdpqp", "dbdpqb", False),
    ("pbq", "q", True),
    ("", "", True),
    ("p", "b", False),
])
def test_cyclically_equal_examples(w1, w2, expected):
    assert cyclically_equal(w1, w2) is expected


@given(frieze_words, st.integers(0, 49))
def test_cyclic_equality_invariances(w, k):
    r = reduce_frieze(w)
    if r:
        k %= len(r)
        rotated = r[k:] + r[:k]
        assert cyclically_equal(r, rotated)
        assert cyclically_equal(a_conjugate(r), a_conjugate(rotated))


@given(frieze_words, frieze_words)
def test_cyclic_equality_symmetric(u, v):
    assert cyclically_equal(u, v) == cyclically_equal(v, u)
