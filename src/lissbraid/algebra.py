"""Word and matrix algebra for the 3-braid quotient group.

The quotient of the 3-strand braid group by its center is PSL(2,Z),
generated by A (order 2) and B (order 3).  Its index-2 subgroup is the
free product Z/3 * Z/3 with free factors {1, p, b} and {1, q, d}, where

    p = B,  b = B^2,  q = ABA,  d = AB^2A.

Elements of the subgroup are handled as reduced words over the four
letters "pbqd", words of the full group as words over "AB" with B^-1
written BB (both plain strings), and elements of the full group as 2x2
integer matrices of determinant 1 up to sign.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError, NotPalindromic, OddACount

FRIEZE_LETTERS = "pbqd"
_FRIEZE_SET = frozenset(FRIEZE_LETTERS)

# free-product factor and exponent (p = g, b = g^2 in the first factor, etc.)
_FACTOR = {"p": 0, "b": 0, "q": 1, "d": 1}
_EXPONENT = {"p": 1, "b": 2, "q": 1, "d": 2}
_LETTER = {(0, 1): "p", (0, 2): "b", (1, 1): "q", (1, 2): "d"}
_FACTOR_DIGIT = str.maketrans("pbqd", "0011")

_HALF_SWAP = str.maketrans("pbqd", "dqbp")     # p<->d, b<->q
_INVERSE = str.maketrans("pbqd", "bpdq")       # x -> x^-1 within its factor


def check_frieze(word: str) -> str:
    if not _FRIEZE_SET.issuperset(word):
        raise ValueError(f"not a word over 'pbqd': {word!r}")
    return word


def reduce_frieze(word: str) -> str:
    """Unique reduced form of a word over p,b,q,d.

    Stack-based left-to-right scan; adjacent letters of a common factor
    combine by exponent addition mod 3 (so pp -> b, pb -> empty, ...).
    The result alternates factors, and a word that already alternates is
    returned as it is.
    """
    return _reduce(check_frieze(word))


def _reduce(word: str) -> str:
    """reduce_frieze on a word known to be over p,b,q,d."""
    factors = word.translate(_FACTOR_DIGIT)
    if "00" not in factors and "11" not in factors:
        return word
    stack: list[tuple[int, int]] = []
    for ch in word:
        fac, exp = _FACTOR[ch], _EXPONENT[ch]
        while stack and stack[-1][0] == fac:
            exp = (stack.pop()[1] + exp) % 3
            if exp == 0:
                break
        if exp != 0:
            stack.append((fac, exp))
    return "".join(_LETTER[item] for item in stack)


def reduce_two_letter(word: str, x: str, y: str) -> str:
    """Reduced form of a word over one letter x of each free factor.

    One pass deletes the cubes xxx, yyy and merges the squares xx, yy into
    x^-1, y^-1: group identities, so the element stays.  With no cube the
    runs of x and y alternate and are at most 2 long, so the result
    alternates; otherwise reduce_frieze's scan reduces the nested cubes
    in one linear pass, not one pass per level of nesting.
    """
    cube_free = word.replace(x * 3, "").replace(y * 3, "")
    xx, yy = (x + y).translate(_INVERSE)
    merged = cube_free.replace(x + x, xx).replace(y + y, yy)
    return merged if len(cube_free) == len(word) else _reduce(merged)


def second_half(half: str) -> str:
    """The word A h^-1 A for a palindromic word h: interchange p<->d, b<->q.

    Raises NotPalindromic when the letter sequence is not its own reverse
    (the letter-wise form of A h^-1 A needs palindromicity).
    """
    check_frieze(half)
    if half != half[::-1]:
        raise NotPalindromic(f"{half!r} is not a letter palindrome")
    return half.translate(_HALF_SWAP)


def _cyclic_reduce(word: str) -> str:
    # each pass conjugates by the last letter, which then merges with the
    # first, so the length drops and the loop ends
    w = reduce_frieze(word)
    while len(w) >= 2 and _FACTOR[w[0]] == _FACTOR[w[-1]]:
        w = reduce_frieze(w[-1] + w[:-1])
    return w


def cyclically_equal(w1: str, w2: str) -> bool:
    """Conjugacy test in the free product: cyclic reductions agree up to rotation."""
    u, v = _cyclic_reduce(w1), _cyclic_reduce(w2)
    if len(u) != len(v):
        return False
    if not u:
        return True
    return v in u + u


class Psl2Mat(namedtuple("Psl2Mat", "a b c d")):
    """Sign-normalized 2x2 integer matrix of determinant 1.

    The representative of {M, -M} with the first nonzero entry of
    (a, b, c, d) positive, so instances are canonical and hashable.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant is not 1: {(a, b, c, d)}")
        if (a or b or c or d) < 0:  # the first nonzero entry
            a, b, c, d = -a, -b, -c, -d
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def identity(cls) -> "Psl2Mat":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "Psl2Mat") -> "Psl2Mat":
        return Psl2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Psl2Mat":
        return Psl2Mat(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        """Trace of the sign-normalized representative."""
        return self.a + self.d

    def to_rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __str__(self) -> str:
        return f"±[[{self.a},{self.b}],[{self.c},{self.d}]]"


A_MAT = Psl2Mat(0, 1, -1, 0)

LETTER_MATS = {
    "p": Psl2Mat(1, 1, -1, 0),
    "b": Psl2Mat(0, 1, -1, -1),
    "q": Psl2Mat(0, -1, 1, -1),
    "d": Psl2Mat(1, -1, 1, 0),
}


_ENTRIES = dict(LETTER_MATS, A=A_MAT, B=LETTER_MATS["p"])  # (a, b, c, d) tuples
_CHUNK = 8


class _ChunkEntries(dict):
    """Integer entries of the product over each word chunk of 1 to 8
    letters, filled on first use.  Only validated words are chunked, and a
    pbqd chunk is kept only when it alternates free factors (2^(k+1) such
    chunks of k letters), so the keys are at most 4 + 8 + ... + 512 = 1020
    pbqd strings and 2 + 4 + ... + 256 = 510 A/B strings: the memo is
    bounded by construction.  Every word the pipeline multiplies is
    reduced; a chunk of any other word is multiplied out on each use.
    Its values depend on the key alone, so every caller can share it."""

    def __missing__(self, chunk):
        a, b, c, d = 1, 0, 0, 1
        for e, f, g, h in map(_ENTRIES.__getitem__, chunk):
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        entries = (a, b, c, d)
        factors = chunk.translate(_FACTOR_DIGIT)
        if "00" not in factors and "11" not in factors:  # alternating, or A/B
            self[chunk] = entries
        return entries


_CHUNK_ENTRIES = _ChunkEntries()


def _product(word: str) -> Psl2Mat:
    """Product of the letter matrices of a validated pbqd or A/B word.

    The word is read in chunks of at most 8 letters through the chunk memo,
    and the chunk products are multiplied pairwise level by level, so both
    operands of each product have about the same size and the big products
    use CPython's subquadratic multiplication.  The determinant check and
    the sign normalization run once, on the result."""
    factors = [_CHUNK_ENTRIES[word[i:i + _CHUNK]] for i in range(0, len(word), _CHUNK)]
    while len(factors) > 1:
        pairs = iter(factors)
        merged = [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                  for (a, b, c, d), (e, f, g, h) in zip(pairs, pairs)]
        if len(factors) % 2:
            merged.append(factors[-1])
        factors = merged
    return Psl2Mat(*factors[0]) if factors else Psl2Mat.identity()


def frieze_to_matrix(word: str) -> Psl2Mat:
    """Product of the per-letter matrices, as a balanced product tree; the
    empty word is the identity."""
    return _product(check_frieze(word))


def frieze_w(half: str) -> tuple[str, Psl2Mat]:
    """The word W = H A H^-1 A of a reduced palindromic half H, and its matrix.

    second_half moves every letter into the other free factor, so after
    the palindrome H (which ends in its first letter) it continues to
    alternate factors: W is reduced without a reduction pass.
    """
    w = half + second_half(half)
    return w, frieze_to_matrix(w)


def trace_class(mat: Psl2Mat) -> str:
    """'elliptic', 'parabolic' or 'hyperbolic' by |trace| against 2."""
    t = abs(mat.trace())
    if t < 2:
        return "elliptic"
    if t == 2:
        return "parabolic"
    return "hyperbolic"


_AB_SET = frozenset("AB")


def check_ab(word: str) -> str:
    if not _AB_SET.issuperset(word):
        raise ValueError(f"not a word over 'AB': {word!r}")
    return word


def ab_to_matrix(word: str) -> Psl2Mat:
    """Product of the A and B matrices of an A/B word, as a balanced
    product tree; no group relations are applied at the word level."""
    return _product(check_ab(word))


def _ab_to_reduced(word: str) -> str:
    """ab_to_frieze without its matrix check.

    Each B is p at even parity of the A's before it and q at odd parity,
    so B^-1 = BB gives pp = b or qq = d.  Splitting the word at its A's
    puts the odd-parity pieces at the odd indices.
    """
    pieces = check_ab(word).split("A")
    if len(pieces) % 2 == 0:
        raise OddACount(f"odd number of A's in {word}")
    if len(pieces) > 1:
        pieces[1::2] = "A".join(pieces[1::2]).replace("B", "q").split("A")
    return reduce_two_letter("".join(pieces).replace("B", "p"), "p", "q")


def ab_to_frieze(word: str) -> str:
    """Translate an A/B word with evenly many A's into a reduced pbqd-word,
    and check that both words have the same matrix."""
    reduced = _ab_to_reduced(word)
    if frieze_to_matrix(reduced) != ab_to_matrix(word):
        raise InvariantError(f"translation of {word} lost group equality")
    return reduced
