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
_NOT_FRIEZE = str.maketrans("", "", FRIEZE_LETTERS)  # translate deletes the alphabet

# free-product factor and exponent (p = g, b = g^2 in the first factor, etc.)
_FACTOR = {"p": 0, "b": 0, "q": 1, "d": 1}
_EXPONENT = {"p": 1, "b": 2, "q": 1, "d": 2}
_LETTER = {(0, 1): "p", (0, 2): "b", (1, 1): "q", (1, 2): "d"}
_FACTOR_DIGIT = str.maketrans("pbqd", "0011")

_HALF_SWAP = str.maketrans("pbqd", "dqbp")     # p<->d, b<->q
_INVERSE = str.maketrans("pbqd", "bpdq")       # x -> x^-1 within its factor


def check_frieze(word: str) -> str:
    if word.translate(_NOT_FRIEZE):
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
_LEAF = 16


class _Leaves(dict):
    """Integer entries of the product over each leaf of 1 to 16 letters,
    multiplied out on first use and kept while fewer than maxsize are
    held; past that, a new leaf is multiplied out on each use.

    The words the pipeline multiplies are built from Christoffel words,
    and a Sturmian word has only n + 1 factors of length n, so few
    distinct leaves recur: 786 over the half H of every W of the family
    sweep (frieze_to_matrix multiplies H alone), 171 more over the A/B
    words of the cluster suite to |m| = 200, and 983 over that suite on
    1950 < |m| <= 2000.  2048 entries (about 0.4 MB) hold all of them.
    The values depend on the key alone, so every caller shares the memo."""

    maxsize = 2048

    def __missing__(self, leaf):
        a, b, c, d = 1, 0, 0, 1
        for e, f, g, h in map(_ENTRIES.__getitem__, leaf):
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        entries = (a, b, c, d)
        if len(self) < self.maxsize:
            self[leaf] = entries
        return entries


_LEAVES = _Leaves()


def _product(word: str) -> Psl2Mat:
    """Product of the letter matrices of a validated pbqd or A/B word.

    The word is read in leaves of at most 16 letters through the leaf
    memo, and the leaf products are multiplied pairwise level by level,
    so both operands of each product have about the same size and the
    big products use CPython's subquadratic multiplication.  The
    determinant check and the sign normalization run once, on the result."""
    factors = [_LEAVES[word[i:i + _LEAF]] for i in range(0, len(word), _LEAF)]
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
    empty word is the identity.

    A word h + second_half(h) of a palindrome h = x_1 ... x_n, the shape of
    every W, has the matrix M(h) M(h)^T, from the product over h alone.
    second_half swaps p<->d, b<->q, which is x -> x' = A x^-1 A letter by
    letter (A b A = d, A p A = q), so as h reads x_n ... x_1 backwards,
    second_half(h) = x_n' ... x_1' = A h^-1 A, since A^2 = 1.  For
    A = [[0,1],[-1,0]], A X^-1 A = -X^T, which is X^T in PSL(2,Z).

    The square skips Psl2Mat's checks, as it passes both: _product(h) is
    a Psl2Mat that passed its own determinant check, and
    det(X X^T) = det(X)^2 = 1; its first entry a^2 + b^2 >= 1 is positive,
    so it is already the sign-normalized representative."""
    check_frieze(word)
    h = word[:len(word) // 2]
    if len(word) % 2 or h != h[::-1] or word[len(h):] != h.translate(_HALF_SWAP):
        return _product(word)
    a, b, c, d = _product(h)
    s = a * c + b * d
    return tuple.__new__(Psl2Mat, (a * a + b * b, s, s, c * c + d * d))


def frieze_w(half: str) -> tuple[str, Psl2Mat]:
    """The word W = H A H^-1 A of a reduced palindromic half H, and its matrix.

    second_half moves every letter into the other free factor, so after
    the palindrome H (which ends in its first letter) it continues to
    alternate factors: W is reduced without a reduction pass.

    For H = build_H of a type, tr M(W) is odd.  Unreduced, H has |m| letters
    from {p, d} (m > 0) or {q, b} (m < 0); mod 2, p = d = s = [[1,1],[1,0]]
    and q = b = s^2, of order 3 in SL(2,F_2) = S_3, so with |m| = 1 (m > 0)
    or 2 (m < 0) mod 3, M(H) = s.  A = t = [[0,1],[1,0]] is a transposition
    not commuting with s, so M(W) = (s t s^-1) t is a 3-cycle, of trace 1.
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


_NOT_AB = str.maketrans("", "", "AB")


def check_ab(word: str) -> str:
    if word.translate(_NOT_AB):
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
