"""Exact quadratic irrationals and periodic continued fractions.

A surd is (P + sqrt(D)) / Q with integer P, Q != 0 and nonsquare D > 0,
kept in the classical normalized form Q | D - P*P so the continued
fraction recurrence stays in integers.  Each value has one stored triple,
read off its primitive minimal polynomial, so equal surds compare, hash
and print alike; the printed d is free of the squares of primes up to
1000 only.
"""

from __future__ import annotations

from collections import namedtuple
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


# the squares mod 64, 63, 65 and 11: fewer than 1 in 100 nonsquares pass all
# four tests, so most take no root (Cohen, A Course in Computational
# Algebraic Number Theory, 1993, Algorithm 1.7.3); 45045 = 63 * 65 * 11
_SQUARE_MODS = tuple((k, frozenset(i * i % k for i in range(k))) for k in (63, 65, 11))
_SQUARES_64 = frozenset(i * i % 64 for i in range(64))


def _is_square(n: int) -> bool:
    if n < 0 or n & 63 not in _SQUARES_64:
        return False
    r = n % 45045
    return all(r % k in squares for k, squares in _SQUARE_MODS) and isqrt(n) ** 2 == n


_PRIMORIAL = prod(_PRIMES)


def _split_square(d: int) -> tuple[int, int]:
    """d = c*c * rest with rest free of the squares of primes up to 1000.

    Only the squares of the 168 primes up to 1000 are extracted, followed
    by a perfect-square check; used for display only.  A prime whose
    square divides d divides g = gcd(d, product of the primes), so one
    gcd picks the primes to peel and the big d is divided only by those.
    This equals peeling f^2 for every f up to 1000: once the squares of
    all primes below f are peeled, f^2 cannot divide the rest for
    composite f, whose smallest prime factor h has h^2 | f^2.  Any d >= 1
    works, squares too: peeling prime squares off a square leaves a square.
    """
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


class QuadSurd(namedtuple("QuadSurd", "P Q D")):
    """The real quadratic irrational (P + sqrt(D)) / Q, stored as its one
    canonical triple: (-b, 2a, b^2 - 4ac) for the primitive minimal
    polynomial a x^2 + b x + c, with the sign of a picking the root.  So
    equal values have equal fields, and == and hash are exact."""

    __slots__ = ()

    def __new__(cls, P: int, Q: int, D: int):
        p, q, d = P, Q, D
        if q == 0:
            raise ValueError("Q must be nonzero")
        if d <= 0 or _is_square(d):
            raise ValueError(f"D must be a positive nonsquare, got {d}")
        r, rem = divmod(p * p - d, q)
        if rem:
            # scale P, Q by |Q| and D by Q^2 to restore Q | D - P^2
            r = p * p - d if q > 0 else d - p * p
            p, q, d = p * abs(q), q * abs(q), d * q * q
        # the value is a root of q x^2 - 2p x + r; divide out its content
        g = gcd(q, 2 * p, r)
        return tuple.__new__(cls, (2 * p // g, 2 * q // g, 4 * d // (g * g)))

    def approx(self) -> float:
        # sqrt via a 64-bit-shifted integer root; int / int rounds correctly
        # and raises OverflowError only when the quotient leaves float range,
        # raised before the root when bit lengths give |P + sqrt(D)| >= 2**e
        # with e >= |Q|.bit_length() + 1024: 2**r <= sqrt(D) < 2**(r+1) and
        # 2**(k-1) <= |P| < 2**k; a negative P needs a term 2 bits ahead
        k, r = abs(self.P).bit_length(), (self.D.bit_length() - 1) // 2
        e = max(k - 1, r) if self.P >= 0 else r - 1 if r > k else k - 2 if k > r + 2 else 0
        if e - abs(self.Q).bit_length() >= 1024:
            raise OverflowError("integer division result too large for a float")
        return ((self.P << 64) + isqrt(self.D << 128)) / (self.Q << 64)

    def __str__(self) -> str:
        """(P + c√d)/Q in lowest terms, with c√d = √D and d free of the
        squares of primes up to 1000.  The triple is canonical, so equal
        surds print the same way."""
        c, d = _split_square(self.D)
        p, q = self.P, self.Q
        if q < 0:
            p, c, q = -p, -c, -q
        g = gcd(p, c, q)
        p, c, q = p // g, c // g, q // g
        root = f"{abs(c)}√{d}" if abs(c) != 1 else f"√{d}"
        sign = "+" if c > 0 else "-"
        if p == 0:
            head = root if c > 0 else f"-{root}"
            return head if q == 1 else f"{head}/{q}"
        body = f"{p}{sign}{root}"
        return body if q == 1 else f"({body})/{q}"


class CfExpansion(namedtuple("CfExpansion", "preperiod period")):
    """Eventually periodic continued fraction: preperiod then minimal cycle."""

    __slots__ = ()

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

    Both loops run on u = P + r in place of P, with r = isqrt(D).  As
    sqrt(D) is irrational, a = floor((u + f) / Q) with 0 < f < 1, which is
    u // Q for Q > 0 and (u + 1) // Q for Q < 0.  The next state is
    u' = P' + r = aQ - u + 2r = 2r - (u - aQ), and P - P' = u - u', so
    Q' = Q_prev + a (u - u').  The quotient is reduced iff
    0 < Q <= u <= 2r < u + Q: it is > 1 iff r >= Q - P, and its conjugate
    is < 0 iff P <= r and > -1 iff r < P + Q, both forcing Q > 0.

    In the cycle Q > 0 and a >= 1, so u >= Q.  Hence with t = u - Q,
    a = 1 exactly when t < Q, and the remainder u - aQ is t; otherwise
    a - 1, t mod Q = divmod(t, Q).  Q' needs no multiply when a = 1.
    (u, Q) determines (P, Q), so the cycle closes when (u, Q) comes back.
    """
    p, q, d = x
    q_prev, rem = divmod(d - p * p, q)
    if rem:
        raise InvariantError(f"{x!r} violates Q | D - P^2")
    root = isqrt(d)
    two_root, u = 2 * root, p + root
    terms: list[int] = []
    append = terms.append
    while not 0 < q <= u <= two_root < u + q:
        a = (u + (q < 0)) // q
        append(a)
        u_next = two_root - (u - a * q)
        q, q_prev = q_prev + a * (u - u_next), q
        u = u_next
    start, u0, q0 = len(terms), u, q
    while True:
        t = u - q
        if t < q:
            append(1)
            u_next = two_root - t
            q, q_prev = q_prev + (u - u_next), q
        else:
            a, t = divmod(t, q)
            a += 1
            append(a)
            u_next = two_root - t
            q, q_prev = q_prev + a * (u - u_next), q
        u = u_next
        if u == u0 and q == q0:
            break
    p = u - root
    if p * p + q * q_prev != d:
        raise InvariantError(f"continued fraction state {(p, q)} left P^2 + Q Q_prev = D")
    return CfExpansion(tuple(terms[:start]), tuple(terms[start:]))


def matches_cluster_period(cf: CfExpansion, radii) -> bool:
    """Whether cf is exactly [(2r-1 for r in radii)], with no preperiod.

    An identity for a report: cf_expand returns the minimal cycle from the
    first reduced complete quotient; the far endpoint, the root > 1 of
    x = R x for R = prod [[2r-1, 1], [1, 0]], is reduced (its conjugate is
    in (-1, 0)), so no preperiod; the radii word is primitive (a conjugate
    of a Christoffel word, p and q coprime), so the cycle is the whole tuple.
    """
    return cf == CfExpansion((), tuple(2 * r - 1 for r in radii))


def _check_hyperbolic(mat: Psl2Mat) -> None:
    if trace_class(mat) != "hyperbolic":
        raise NotHyperbolic(f"{mat} has |trace| <= 2")


def _fixed_point_quadratic(mat: Psl2Mat) -> tuple[int, int, int]:
    """(c', u, D): the fixed points' c x^2 + (d - a) x - b = 0 with its content
    g > 0 divided out is c' x^2 - u x - b' = 0, of discriminant u^2 + 4 c' b'."""
    _check_hyperbolic(mat)
    if mat.c == 0:
        raise TranslationForm(f"{mat} fixes infinity")
    g = gcd(mat.c, mat.d - mat.a, mat.b)
    c, u, b = mat.c // g, (mat.a - mat.d) // g, mat.b // g
    return c, u, u * u + 4 * c * b


def fixed_points(mat: Psl2Mat) -> tuple[QuadSurd, QuadSurd]:
    """The two real fixed points (u +- sqrt(D)) / 2c' of a hyperbolic matrix."""
    c, u, disc = _fixed_point_quadratic(mat)
    return QuadSurd(u, 2 * c, disc), QuadSurd(-u, -2 * c, disc)


def far_endpoint(mat: Psl2Mat) -> QuadSurd:
    """The fixed point of larger absolute value (+sqrt branch on ties).

    The fixed points are (u +- sqrt(D)) / 2c' with u = (a - d)/g and g > 0
    the content, and |u + sqrt(D)| > |u - sqrt(D)| exactly when u > 0.  So
    the -sqrt branch is farther exactly when d > a, and u = 0 is a tie.
    """
    c, u, disc = _fixed_point_quadratic(mat)
    return QuadSurd(-u, -2 * c, disc) if mat.d > mat.a else QuadSurd(u, 2 * c, disc)


def dilatation(mat: Psl2Mat) -> QuadSurd:
    """Larger eigenvalue (|t| + sqrt(t^2 - 4)) / 2 of a hyperbolic matrix."""
    _check_hyperbolic(mat)
    t = abs(mat.trace())
    return QuadSurd(t, 2, t * t - 4)
