import random
from math import gcd

import pytest

from lissbraid.algebra import A_MAT, ab_to_frieze, frieze_w, reduce_frieze, reduce_two_letter
from lissbraid.classify import enumerate_p0
from lissbraid.errors import CollisionType, DivisibleByThree, NotCoprime
from lissbraid.lissajous import (
    NormalizedType,
    _bits,
    build_H,
    build_W,
    epsilon_seq,
    is_collision_free,
    is_primitive,
    normalize,
    reduce_to_p0,
)
from lissbraid.verify import normalized_types
from reference import mat_inverse


def test_normalize_examples():
    assert normalize(4, -5) == NormalizedType(4, -5, 3)
    assert normalize(2, 5) == NormalizedType(-2, -5, 1)
    assert normalize(1, 1) == NormalizedType(1, 1, 0)


def test_normalize_errors():
    with pytest.raises(DivisibleByThree):
        normalize(3, 2)
    with pytest.raises(NotCoprime):
        normalize(2, 4)
    with pytest.raises(NotCoprime):
        normalize(0, 1)


def test_collision_free_examples():
    assert is_collision_free(4, -5)
    assert not is_collision_free(-5, 7)
    assert not is_collision_free(3, 2)


def test_epsilon_seq_examples():
    nt = NormalizedType(1, -2, 1)
    assert epsilon_seq(nt) == (0, 1) and _signs(nt, 2) == (-1, 1)
    nt = NormalizedType(-2, 1, -1)
    assert epsilon_seq(nt) == (0, 0, 1, 1) and _signs(nt, 4) == (-1, -1, 1, 1)
    bits = epsilon_seq(NormalizedType(-11, 16, -9))
    assert "".join(map(str, bits)) == "0100101001010110101101"


def test_epsilon_seq_sign_rule():
    # signs[k] = sgn(m*ell) * (2 bits[k] - 1), for either sign of m*ell
    for nt in (NormalizedType(-2, 1, -1), NormalizedType(4, -5, 3)):
        s = 1 if nt.m * nt.ell > 0 else -1
        signs = _signs(nt, 2 * abs(nt.m))
        assert signs == tuple(s * (2 * b - 1) for b in epsilon_seq(nt))


def test_epsilon_seq_collision_rejected():
    with pytest.raises(CollisionType):
        epsilon_seq(NormalizedType(-5, 7, -4))


def test_epsilon_double_palindromicity_small():
    for m, n in enumerate_p0(40):
        nt = normalize(m, n)
        bits = epsilon_seq(nt)
        am = abs(m)
        for k in range(1, am + 1):
            assert bits[k - 1] == bits[am - k]
            assert bits[am + k - 1] == bits[2 * am - k]
            assert bits[k - 1] + bits[am + k - 1] == 1


@pytest.mark.parametrize("mn,expected", [
    ((1, -2), "ABBAB"),
    ((-2, 1), "BBBBABBA"),
    ((1, 4), "BABBA"),
    ((-2, -5), "ABBABBBB"),
])
def test_build_w_examples(mn, expected):
    assert str(build_W(normalize(*mn))) == expected


@pytest.mark.parametrize("mn,expected", [
    ((4, -5), "dbd"),
    ((-11, 16), "bqpqbqpqb"),
    ((-23, 28), "bdbqpqbdbdbqpqbdb"),
    ((1, -2), "d"),
    ((1, 4), "p"),
])
def test_build_h_examples(mn, expected):
    assert build_H(normalize(*mn)) == expected


def test_h_halves_compose_to_w():
    for m, n in enumerate_p0(30):
        nt = normalize(m, n)
        h = build_H(nt)
        assert len(h) % 2 == 1
        w_from_h, mat = frieze_w(h)
        assert w_from_h == ab_to_frieze(build_W(nt))
        assert mat == A_MAT * mat_inverse(mat) * A_MAT


def test_word_anchors_beyond_primitive():
    # the half decomposition, S3 anchors and hyperbolicity hold for every
    # collision-free normalized type, not only the primitive family
    from lissbraid.algebra import trace_class
    from reference import s3_image

    for m in range(-13, 14):
        for n in range(-27, 28):
            if m == 0 or n == 0 or m % 3 != 1 or n % 3 != 1:
                continue
            if gcd(m, n) != 1 or ((m - n) // 3) % 2 == 0:
                continue
            nt = NormalizedType(m, n, (m - n) // 3)
            h = build_H(nt)
            assert h == h[::-1] and len(h) % 2 == 1
            w, mat = frieze_w(h)
            assert w == ab_to_frieze(build_W(nt))
            assert s3_image(h) == 1  # (123)
            assert s3_image(w) == 2  # (132)
            assert trace_class(mat) == "hyperbolic"


@pytest.mark.parametrize("mn,expected", [
    ((1, 4), (1, -2)),
    ((-2, -5), (1, -2)),
    ((4, -5), (4, -5)),
])
def test_reduce_to_p0_examples(mn, expected):
    assert reduce_to_p0(normalize(*mn)) == expected


def test_reduce_to_p0_flag_tracks_h():
    # H of a type is H of its p0 or of p0 with m and n swapped, and the two differ
    pairs = [(1, 4), (-2, -5), (4, -5), (1, -8), (4, 19), (-2, 7), (7, -20), (-5, 16)]
    box = list(normalized_types(40, 80))
    assert len(box) == 662
    for m, n in pairs + box:
        nt = normalize(m, n)
        m0, n0 = reduce_to_p0(nt)
        candidates = build_H(normalize(m0, n0)), build_H(normalize(n0, m0))
        assert candidates[0] != candidates[1] and build_H(nt) in candidates, (m, n)


def _window_reduce(nt):
    """Reference: one window shift and one swap per pass, with signs.

    Shifts ell to the one ell' in (+-ell + 2mZ) with m*ell' > 0 and
    |ell'| <= |m|, and swaps the roles of m and n = m - 3ell' while
    3|ell'| <= 2|m|.
    """
    m, ell = nt.m, nt.ell
    while True:
        a = abs(m)
        for s in (1, -1):
            r = (s * ell) % (2 * a)
            if m > 0 and 0 < r <= a:
                ell = r
                break
            if m < 0 and r >= a:
                ell = r - 2 * a
                break
        n = m - 3 * ell
        if 3 * abs(ell) > 2 * abs(m):
            return m, n
        m, ell = n, -ell


def test_reduce_to_p0_equals_window_loop():
    box = [normalize(m, n) for m, n in normalized_types(400, 400)]
    assert len(box) == 32504
    rng = random.Random(5)
    big = []
    while len(big) < 600:
        m, n = (rng.randrange(1, 10 ** rng.randrange(4, 61)) * rng.choice((1, -1)) for _ in "mn")
        if m % 3 and n % 3 and gcd(m, n) == 1 and normalize(m, n).ell % 2:
            big.append(normalize(m, n))
    for nt in box + big:
        assert reduce_to_p0(nt) == _window_reduce(nt), nt


def test_reduce_to_p0_ell_one_types_at_huge_m():
    # the window loop descends by 3 per pass here; (M - L) mod 3L + L jumps to M = 1
    for big in (10**12, 10**100):
        for n in (big - 3, big + 3):
            assert abs(normalize(big, n).ell) == 1
            assert reduce_to_p0(normalize(big, n)) == (1, -2)


def test_reduce_to_p0_lands_in_p0():
    for m in range(-25, 26):
        for n in range(-25, 26):
            if m == 0 or n == 0 or m % 3 != 1 or n % 3 != 1:
                continue
            if gcd(m, n) != 1 or ((m - n) // 3) % 2 == 0:
                continue
            m0, n0 = reduce_to_p0(NormalizedType(m, n, (m - n) // 3))
            assert is_primitive(m0, n0)
    with pytest.raises(CollisionType):
        reduce_to_p0(normalize(-5, 7))


def test_reciprocity():
    for m, n in [(4, -5), (1, 4), (-2, -5), (7, -20), (-5, 16), (10, -17), (-8, 13)]:
        nt, tn = normalize(m, n), normalize(n, m)
        assert reduce_to_p0(nt) == reduce_to_p0(tn)


def test_shift_identities():
    # H is invariant (up to the role swap) under ell -> ell + 2mj and ell -> -ell
    for m, n in enumerate_p0(30):
        nt = normalize(m, n)
        h = build_H(nt)
        h_swap = build_H(normalize(n, m))
        for j in range(-3, 4):
            n_shift = n - 6 * m * j
            expected = h if j % 2 == 0 else h_swap
            assert build_H(normalize(m, n_shift)) == expected
            n_flip = 2 * m - n + 6 * m * j
            expected = h_swap if j % 2 == 0 else h
            assert build_H(normalize(m, n_flip)) == expected


def test_class_words_are_conjugate():
    # W of any type is a cyclic rotation of W of its primitive representative
    from reference import cyclically_equal

    for m in range(-13, 14):
        for n in range(-27, 28):
            if m == 0 or n == 0 or m % 3 != 1 or n % 3 != 1:
                continue
            if gcd(m, n) != 1 or ((m - n) // 3) % 2 == 0:
                continue
            nt = NormalizedType(m, n, (m - n) // 3)
            rep = normalize(*reduce_to_p0(nt))
            w = ab_to_frieze(build_W(nt))
            w_rep = ab_to_frieze(build_W(rep))
            assert cyclically_equal(w, w_rep), (m, n, rep)


def test_is_primitive_examples():
    assert is_primitive(4, -5)
    assert is_primitive(1, -2)
    assert not is_primitive(1, 4)
    assert not is_primitive(-5, 4)


# --- the per-letter kernels, kept as the reference ---------------------------

def _signs(nt, count):
    """The first count entries of the sign form s * (2*bits[k] - 1)."""
    s, bits = _bits(nt, count)
    return tuple(map((-s, s).__getitem__, bits))


def _signs_by_loop(nt):
    """Reference: epsilon_seq's bits and _signs's signs over 2|m|, per index."""
    am, al = abs(nt.m), abs(nt.ell)
    bits = tuple(((2 * al * k - al) // (2 * am)) % 2 for k in range(1, 2 * am + 1))
    s = 1 if nt.m * nt.ell > 0 else -1
    return bits, tuple(s * (2 * b - 1) for b in bits)


def _ab_by_loop(signs, sgn_m, last_exp_from_first):
    """Reference: the A/B word over the signs, one sign at a time; the tail
    exponent reads the first sign for H and the last sign for W."""
    symbols = []
    if (1 - sgn_m * signs[0]) // 2:
        symbols.append("A")
    for i, e in enumerate(signs):
        symbols.append("B" if e == 1 else "BB")
        if i + 1 < len(signs) and (signs[i] - signs[i + 1]) // 2 != 0:
            symbols.append("A")
    end_sign = signs[0] if last_exp_from_first else signs[-1]
    if (1 - sgn_m * end_sign) // 2:
        symbols.append("A")
    return "".join(symbols)


def _frieze_by_parity_scan(word):
    """Reference: ab_to_frieze, keeping the parity of A's one letter at a
    time; each B is p or q, and reduction turns BB into b or d."""
    parity, letters = 0, []
    for ch in word:
        if ch == "A":
            parity ^= 1
        else:
            letters.append("p" if parity == 0 else "q")
    assert parity == 0
    return reduce_frieze("".join(letters))


def test_word_kernels_equal_per_letter_loops():
    types = [NormalizedType(m, n, (m - n) // 3)
             for m in range(-40, 41) for n in range(-90, 91)
             if m % 3 == 1 and n % 3 == 1 and gcd(m, n) == 1 and ((m - n) // 3) % 2]
    assert len(types) > 500 and sum(not is_primitive(t.m, t.n) for t in types) > 400
    for nt in types:
        bits, signs = _signs_by_loop(nt)
        assert epsilon_seq(nt) == bits and _signs(nt, 2 * abs(nt.m)) == signs, nt
        sgn_m = 1 if nt.m > 0 else -1
        h_word = _ab_by_loop(signs[:abs(nt.m)], sgn_m, True)
        w_word = build_W(nt)
        assert w_word == _ab_by_loop(signs, sgn_m, False), nt
        h = _frieze_by_parity_scan(h_word)
        assert ab_to_frieze(h_word) == h and build_H(nt) == h, nt
        assert ab_to_frieze(w_word) == _frieze_by_parity_scan(w_word), nt


def test_build_W_equals_per_letter_loop_for_both_signs_of_m():
    # the sign string's A insertion at both orders of a sign change and the
    # head and tail A, for m of either sign; kernels take any coprime m, odd ell
    cases = [(m, ell) for m in (1, -1, 2, -2, 4, -4) for ell in range(-13, 14, 2)
             if gcd(m, ell) == 1]
    cases += [(1003, -667), (-1003, 667)]
    for m, ell in cases:
        nt = NormalizedType(m, m - 3 * ell, ell)
        signs = _signs_by_loop(nt)[1]
        assert build_W(nt) == _ab_by_loop(signs, 1 if m > 0 else -1, False), nt
    assert {_signs_by_loop(NormalizedType(m, m - 3 * ell, ell))[1][0] * m > 0
            for m, ell in cases} == {True, False}


def _nested(depth, rng, x="p", y="q"):
    """A word over x, y whose cube deletion nests depth levels deep:
    each level wraps the word in u^a ... u^(3-a), u alternating x, y."""
    word = y * 3
    for level in range(depth):
        u, a = (x, y)[level % 2], rng.randrange(1, 3)
        word = u * a + word + u * (3 - a)
    return word


def _ab_of(pq_word):
    """The A/B word whose parity translation is this p/q word."""
    ab = pq_word.replace("pq", "pAq").replace("qp", "qAp").replace("p", "B").replace("q", "B")
    return ("A" if pq_word[:1] == "q" else "") + ab + ("A" if pq_word[-1:] == "q" else "")


def test_ab_to_frieze_on_deeply_nested_words():
    rng = random.Random(17)
    for depth in (10**4, 10**4 + 1):
        head = "".join(rng.choice("pq") for _ in range(40))
        tail = "".join(rng.choice("pq") for _ in range(40))
        word = _ab_of(head + _nested(depth, rng) + tail)
        once = _nested(depth, rng).replace("ppp", "").replace("qqq", "")
        assert len(once) == 3 * depth and ("ppp" in once or "qqq" in once)
        assert ab_to_frieze(word) == _frieze_by_parity_scan(word) != ""
        assert ab_to_frieze(_ab_of(_nested(depth, rng))) == ""


def test_reduce_two_letter_equals_reduce_frieze():
    rng = random.Random(19)
    for x in "pb":
        for y in "qd":
            for length in list(range(12)) * 20 + [rng.randrange(12, 400) for _ in range(200)]:
                word = "".join(rng.choice((x, y)) for _ in range(length))
                assert reduce_two_letter(word, x, y) == reduce_frieze(word), word
            for depth in (1, 2, 3, 50, 3000):
                word = rng.choice((x, y, "")) + _nested(depth, rng, x, y) + rng.choice((x, y, ""))
                assert reduce_two_letter(word, x, y) == reduce_frieze(word)


def _cube_rounds(signs):
    """Passes of repeated cube deletion these signs need: the nesting depth
    of their cubes."""
    word, rounds = "".join("x" if e == 1 else "y" for e in signs), 0
    while "xxx" in word or "yyy" in word:
        word, rounds = word.replace("xxx", "").replace("yyy", ""), rounds + 1
    return rounds


def test_build_H_equals_parity_scan_on_large_types():
    # non-primitive types reach H with cubes in the sign word; (2374, -389)
    # takes three rounds of deletion
    rng = random.Random(11)
    types = [NormalizedType(2374, -389, 921)]
    while len(types) < 60:
        m, n = rng.randrange(-2999, 3000), rng.randrange(-59999, 60000)
        if m and n and m % 3 == 1 and n % 3 == 1 and gcd(m, n) == 1 and ((m - n) // 3) % 2 \
                and not is_primitive(m, n):
            types.append(NormalizedType(m, n, (m - n) // 3))
    rounds = []
    for nt in types:
        signs = _signs_by_loop(nt)[1][:abs(nt.m)]
        rounds.append(_cube_rounds(signs))
        h_word = _ab_by_loop(signs, 1 if nt.m > 0 else -1, True)
        assert build_H(nt) == _frieze_by_parity_scan(h_word), nt
    assert rounds[0] == 3 and rounds.count(0) > 5 and rounds.count(2) > 5


def test_primitive_sign_words_have_no_cube():
    # so on these types build_H's reduction returns at its no-cube test
    types = list(enumerate_p0(200))
    assert len(types) == 2042
    for m, n in types:
        assert _cube_rounds(_signs(normalize(m, n), abs(m))) == 0, (m, n)
