"""Exact quadratic irrationals and periodic continued fractions.

A surd is (P + sqrt(D)) / Q with integer P, Q != 0 and nonsquare D > 0,
kept in the classical normalized form Q | D - P*P so the continued
fraction recurrence stays in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .algebra import Psl2Mat, trace_class
from .errors import InvariantError, NotHyperbolic, TranslationForm

# the 168 primes up to 1000
_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
    283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397,
    401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503,
    509, 521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619,
    631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743,
    751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863,
    877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
)


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


_PRIMORIAL = prod(_PRIMES)


def _split_square(d: int) -> tuple[int, int]:
    """d = c*c * rest with rest free of the squares of primes up to 1000.

    Only the squares of the 168 primes up to 1000 are extracted, followed
    by a perfect-square check; used for display only.  A prime whose
    square divides d divides g = gcd(d, product of the primes), so one
    gcd picks the primes to peel and the big d is divided only by those.
    This equals peeling f^2 for every f up to 1000: once the squares of
    all primes below f are peeled, f^2 cannot divide the rest for
    composite f, whose smallest prime factor h has h^2 | f^2.
    """
    if _is_square(d):
        return isqrt(d), 1
    c, g = 1, gcd(d, _PRIMORIAL)
    for f in _PRIMES:
        if g == 1:
            break
        if g % f == 0:
            g //= f
            while d % (f * f) == 0:
                d //= f * f
                c *= f
    if _is_square(d):
        c, d = c * isqrt(d), 1
    return c, d


def _floor_surd(p: int, q: int, root: int) -> int:
    """Exact floor((p + sqrt(d)) / q) for nonsquare d > 0, given root = isqrt(d)."""
    # sqrt(d) is irrational, so floor(p + sqrt(d)) = p + root
    if q > 0:
        return (p + root) // q
    return -((p + root) // (-q) + 1)


@dataclass(frozen=True)
class QuadSurd:
    """The real quadratic irrational (P + sqrt(D)) / Q."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        if self.D <= 0 or _is_square(self.D):
            raise ValueError(f"D must be a positive nonsquare, got {self.D}")
        if (self.D - self.P * self.P) % self.Q != 0:
            # scale P, Q by |Q| and D by Q^2 to restore divisibility
            q = abs(self.Q)
            object.__setattr__(self, "P", self.P * q)
            object.__setattr__(self, "D", self.D * q * q)
            object.__setattr__(self, "Q", self.Q * q)

    def approx(self) -> float:
        # sqrt via a 64-bit-shifted integer root so huge D (beyond float
        # range) still yields a correctly rounded quotient
        root = Fraction(isqrt(self.D << 128), 1 << 64)
        return float((self.P + root) / self.Q)

    def floor(self) -> int:
        return _floor_surd(self.P, self.Q, isqrt(self.D))

    def _key(self) -> tuple[Fraction, Fraction, bool]:
        """Rational part, square and sign of the irrational part: sqrt(D) is
        irrational, so equal keys mean equal values, without any factoring."""
        return (Fraction(self.P, self.Q), Fraction(self.D, self.Q * self.Q), self.Q > 0)

    def _display(self) -> tuple[int, int, int, int]:
        """(P, c, d, Q) with value (P + c*sqrt(d))/Q, Q > 0, gcd(P,c,Q) = 1."""
        c, d = _split_square(self.D)
        p, q = self.P, self.Q
        if q < 0:
            p, c, q = -p, -c, -q
        g = gcd(gcd(abs(p), abs(c)), q)
        return (p // g, c // g, d, q // g)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        """(P + c√d)/Q in lowest terms, with c√d = √D.  Only the squares of
        primes up to 1000 are moved out of D, so two equal surds whose D
        differ by the square of a larger prime can print differently;
        equality itself is exact."""
        p, c, d, q = self._display()
        root = f"{abs(c)}√{d}" if abs(c) != 1 else f"√{d}"
        sign = "+" if c > 0 else "-"
        if p == 0:
            head = root if c > 0 else f"-{root}"
            return head if q == 1 else f"{head}/{q}"
        body = f"{p}{sign}{root}"
        return body if q == 1 else f"({body})/{q}"


@dataclass(frozen=True)
class CfExpansion:
    """Eventually periodic continued fraction: preperiod then minimal cycle."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"[{pre};({per})]" if pre else f"[({per})]"


def cf_expand(x: QuadSurd) -> CfExpansion:
    """Regular continued fraction of a quadratic surd, split where its
    period starts.

    The complete quotients are (P_k + sqrt(D)) / Q_k with Q_k | D - P_k^2.
    With Q_{-1} = (D - P_0^2) / Q_0, the step is a_k = floor of the surd,
    P_{k+1} = a_k Q_k - P_k and Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}),
    which needs no division: the identity P^2 + Q Q_prev = D, once true,
    holds for every integer a, because
    D - (aQ - P)^2 = Q (Q_prev + 2aP - a^2 Q).  It is checked at entry
    and again on the state that closes the cycle.

    The period starts at the first reduced complete quotient: one that
    is > 1 with its conjugate in (-1, 0).  By Galois' theorem a surd has
    a purely periodic expansion exactly when it is reduced, so every
    quotient of the cycle is reduced and none before it is; the expansion
    closes when that quotient comes back, and only its state is kept.
    With r = isqrt(D) and Q > 0 (which both conditions force), the value
    is > 1 iff r >= Q - P, and the conjugate is < 0 iff P <= r and > -1
    iff r < P + Q, since sqrt(D) is irrational.
    """
    p, q, d = x.P, x.Q, x.D
    q_prev, rem = divmod(d - p * p, q)
    if rem:
        raise InvariantError(f"{x!r} violates Q | D - P^2")
    root = isqrt(d)
    terms: list[int] = []
    start = -1  # index of the first reduced complete quotient, once seen
    p0 = q0 = 0
    while True:
        if start < 0:
            if 0 < q and p <= root < p + q and q - p <= root:
                start, p0, q0 = len(terms), p, q
        elif p == p0 and q == q0:
            break
        a = _floor_surd(p, q, root)
        terms.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
    if p * p + q * q_prev != d:
        raise InvariantError(f"continued fraction state {(p, q)} left P^2 + Q Q_prev = D")
    return CfExpansion(tuple(terms[:start]), tuple(terms[start:]))


def cf_evaluate(cf: CfExpansion, nterms: int = 60) -> float:
    """Float value of the expansion truncated to nterms partial quotients."""
    quots = list(cf.preperiod)
    while len(quots) < nterms:
        quots.extend(cf.period)
    quots = quots[:nterms]
    value = float(quots[-1])
    for a in reversed(quots[:-1]):
        value = a + 1.0 / value
    return value


def _primitive_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    n = len(seq)
    for length in range(1, n + 1):
        if n % length == 0 and seq == seq[:length] * (n // length):
            return seq[:length]
    return seq


def matches_cluster_period(cf: CfExpansion, radii) -> bool:
    """Whether the CF period and (2r-1 for r in radii) generate the same
    bi-infinite sequence (equal primitive cycles up to rotation)."""
    u = _primitive_cycle(tuple(cf.period))
    v = _primitive_cycle(tuple(2 * r - 1 for r in radii))
    if len(u) != len(v):
        return False
    return any(v[i:] + v[:i] == u for i in range(len(v)))


def _check_hyperbolic(mat: Psl2Mat) -> None:
    if trace_class(mat) != "hyperbolic":
        raise NotHyperbolic(f"{mat} has |trace| <= 2")


def fixed_points(mat: Psl2Mat) -> tuple[QuadSurd, QuadSurd]:
    """The two real fixed points of a hyperbolic matrix, as exact surds.

    Roots of c x^2 + (d - a) x - b = 0 with the content divided out.
    """
    _check_hyperbolic(mat)
    if mat.c == 0:
        raise TranslationForm(f"{mat} fixes infinity")
    ca, cb, cc = mat.c, mat.d - mat.a, -mat.b
    g = gcd(gcd(abs(ca), abs(cb)), abs(cc))
    ca, cb, cc = ca // g, cb // g, cc // g
    disc = cb * cb - 4 * ca * cc
    return QuadSurd(-cb, 2 * ca, disc), QuadSurd(cb, -2 * ca, disc)


def far_endpoint(mat: Psl2Mat) -> QuadSurd:
    """The fixed point of larger absolute value (+sqrt branch on ties).

    The fixed points are (u +- sqrt(D)) / 2c' with u = (a - d)/g and g > 0
    the content, and |u + sqrt(D)| > |u - sqrt(D)| exactly when u > 0.  So
    the -sqrt branch is farther exactly when d > a, and u = 0 is a tie.
    """
    plus, minus = fixed_points(mat)
    return minus if mat.d > mat.a else plus


def dilatation(mat: Psl2Mat) -> QuadSurd:
    """Larger eigenvalue (|t| + sqrt(t^2 - 4)) / 2 of a hyperbolic matrix."""
    _check_hyperbolic(mat)
    t = abs(mat.trace())
    return QuadSurd(t, 2, t * t - 4)
