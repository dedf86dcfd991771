"""Exact quadratic irrationals and periodic continued fractions.

A surd is (P + sqrt(D)) / Q with integer P, Q != 0 and nonsquare D > 0,
kept in the classical normalized form Q | D - P*P so the continued
fraction recurrence stays in integers.  Each value has one stored triple,
read off its primitive minimal polynomial, so equal surds compare, hash
and print alike; the printed d is free of the squares of primes up to
1000 only.

The period of a continued fraction is crossed one exact step per quotient
while isqrt(D) has at most 1024 bits.  Past that, cf_expand reads batches
of quotients off the top 62 bits of the state in small integers, moves the
exact state across each batch with a few big-by-small products, and keeps
a batch only after an exact certificate; the result is the same.  On
CPython 3.11 (2-vCPU Xeon), exact steps alone take 15 ms at |m| = 10^4
(label (1, 1/10000)) and 1.4 s at |m| = 10^5 (label (1, 10/99991)); with
the batches, 5 ms and 0.25 s.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod

from .algebra import Psl2Mat, trace_class
from .errors import InvariantError, NotHyperbolic

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


# the squares mod 64 reject 52 of the 64 residues without a root
_SQUARES_64 = frozenset(i * i % 64 for i in range(64))


def _is_square(n: int) -> bool:
    return n >= 0 and n & 63 in _SQUARES_64 and isqrt(n) ** 2 == n


_PRIMORIAL = prod(_PRIMES)


def _split_square(d: int) -> tuple[int, int]:
    """d = c*c * rest with rest free of the squares of primes up to 1000.

    Only the squares of the 168 primes up to 1000 are extracted; used for
    display only.  g = gcd(d, product of the primes) is squarefree, so a
    prime f <= 1000 divides h = gcd(g, d // g) exactly when f^2 divides d:
    h is the product of the primes to peel, and the big d is divided only
    by those (for most D, h = 1 and nothing is peeled).  d // g is taken
    mod g, as (d mod g^2) // g, so no gcd sees a number of d's size.  This
    equals peeling f^2 for every f up to 1000: once the squares of all
    primes below f are peeled, f^2 cannot divide the rest for composite f,
    whose smallest prime factor p has p^2 | f^2.  The one caller,
    QuadSurd.__str__, passes a nonsquare D, so the rest is no square s^2:
    D = (cs)^2 would be one.
    """
    g = gcd(d, _PRIMORIAL)
    c, h = 1, gcd(g, d % (g * g) // g)
    for f in _PRIMES:
        if h == 1:
            break
        if h % f == 0:
            h //= f
            while d % (f * f) == 0:
                d //= f * f
                c *= f
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


# cf_expand takes Lehmer batches once its root has more bits than this (the
# measured crossover on CPython 3.11 and 3.12); no sweep root comes near it
_BATCH_BITS = 1024
# the most quotients in one batch, and the exact steps that open a cycle
_BATCH = 64


def _batch(u: int, q: int, q_prev: int, root: int):
    """(quotients, u', Q', Q'_prev) of a batch from the reduced state
    (u, Q, Q_prev) read off the top 62 bits of (u, Q), or None where an
    exact step goes instead; cf_expand's docstring has the proof."""
    s = u.bit_length() - 62
    n0, d0 = u >> s, q >> s
    if not d0:
        return None
    n, d, a, b = n0, d0, 1, 0
    quotients = []
    for _ in range(_BATCH):
        t, r = 1, n - d
        if r >= d:
            t, r = divmod(n, d)
        a_next = t * a + b
        if r < a_next or d - r < a_next + a:
            break
        quotients.append(t)
        n, d = d, r
        a, b = a_next, a
    if not quotients:
        return None
    sigma = -1 if len(quotients) & 1 else 1
    c, e = (a * d0 - sigma * d) // n0, (b * d0 + sigma * n) // n0
    p = u - root
    x, y = q * a - p * c, p * a + q_prev * c
    x2, y2 = q * b - p * e, p * b + q_prev * e
    a, b, c, e = sigma * a, sigma * b, sigma * c, sigma * e
    q_next, u_next = a * x - c * y, e * y - b * x + root
    if 0 < q_next <= u_next:
        return quotients, u_next, q_next, e * y2 - b * x2
    return None


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

    Past _BATCH_BITS bits of r, the cycle also takes Lehmer batches (Knuth,
    TAOCP vol. 2, 4.5.2, Algorithm L).  With s = bitlen(u) - 62, n = u >> s
    and m = Q >> s, x = (u + f) / Q is (n + e) / (m + e') for some
    0 <= e, e' < 1.  Euclid on n >= m > 0 in small integers gives quotients
    a_i >= 1 and g = prod [[a_i, 1], [1, 0]] = [[A, B], [C, E]] with
    sigma = det g = (-1)^j, and ends on (n_j, m_j) = g^-1 (n, m); the row
    (A, B) is tracked and (C, E) follow by exact division.  g^-1 takes the
    box to (n_j + sigma(E e - B e')) / (m_j + sigma(A e' - C e)), which is
    > 1 when m_j >= A and n_j - m_j >= A + B, as A >= C and B >= E.  So the
    loop stops before the first quotient that breaks this (a condition of
    Jebelean's kind), or after _BATCH of them, which it never reaches:
    n > A m_j >= A^2 and A >= Fibonacci(j + 1) give j <= 45.

    With x = g y, y is a root of the form Q X^2 - 2P XY - Q_prev Y^2
    composed with g and scaled by sigma:
        Q' = sigma (Q A^2 - 2P AC - Q_prev C^2),
        P' = -sigma (Q AB - P (AE + BC) - Q_prev CE),
        Q'_prev = -sigma (Q B^2 - 2P BE - Q_prev E^2);
    det g = +-1 keeps P'^2 + Q' Q'_prev = D, and j = 1 is the exact step,
    so y = (P' + sqrt(D)) / Q' by induction on j.  Certificate: a batch is
    kept only if 0 < Q' <= u' = P' + r, so y > 1.  Then the a_i are x's
    regular quotients, as x = [a_0; ..., a_{j-1}, y]: from y_j = y > 1
    back, y_i = a_i + 1 / y_{i+1} has floor a_i and, as a_i >= 1, is > 1.
    So y is the j-th complete quotient and (P', Q') its state (sqrt(D) is
    irrational).  A failed batch gives way to one exact step, so the stop
    rule sets the speed, never the result.

    Closure: the first _BATCH states of the cycle are kept as
    {(u, Q): index}, and a period L <= _BATCH closes on the exact steps.
    Otherwise a batch that ends at index t on kept state i closes
    L = t - i: the states of one period are distinct, so no batch ends on a
    kept state before index L, and the one that passes L, by at most
    _BATCH steps, ends on index L + i with i < _BATCH.
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
    seen = {} if root.bit_length() > _BATCH_BITS else None
    while True:
        if seen is not None:
            k = len(terms) - start
            if k < _BATCH:
                seen[u, q] = k
            elif batch := _batch(u, q, q_prev, root):
                quotients, u, q, q_prev = batch
                terms += quotients
                k = seen.get((u, q))
                if k is None:
                    continue
                del terms[len(terms) - k:]
                break
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


def _canonical(p: int, q: int, d: int) -> QuadSurd:
    """The QuadSurd of a triple canonical by construction, without
    __new__'s checks and reduction.  The callers build
    - (u, 2c', D) and (-u, -2c', D), the fixed points, from c' x^2 - u x - b',
      primitive as _fixed_point_quadratic divides out its content, c' != 0;
    - (|t|, 2, t^2 - 4), the dilatation, from x^2 - |t| x + 1, primitive.
    Each is (-b, 2a, b^2 - 4ac) of its polynomial a x^2 + b x + c, negated
    to pick the -sqrt root.  D > 0 is no square, so the polynomial is
    minimal: D g^2 = (d - a)^2 + 4bc = t^2 - 4 for the content g, and
    t^2 - 4 = s^2 with s >= 0 gives (|t| - s)(|t| + s) = 4, two factors of
    equal parity, so |t| = 2, which _check_hyperbolic rejects."""
    return tuple.__new__(QuadSurd, (p, q, d))


def _fixed_point_quadratic(mat: Psl2Mat) -> tuple[int, int, int]:
    """(c', u, D): the fixed points' c x^2 + (d - a) x - b = 0 with its content
    g > 0 divided out is c' x^2 - u x - b' = 0, of discriminant u^2 + 4 c' b'.
    c' != 0: c = 0 and det 1 force a = d = +-1, which _check_hyperbolic rejects.
    The content is gcd(b, c, d - a) in this order, so a symmetric matrix,
    as every M(W) is, takes one full-size gcd, and b' = c'."""
    _check_hyperbolic(mat)
    a, b, c, d = mat
    g = gcd(b, c, d - a)
    c1, u = c // g, (a - d) // g
    b1 = c1 if b == c else b // g
    return c1, u, u * u + 4 * c1 * b1


def fixed_points(mat: Psl2Mat) -> tuple[QuadSurd, QuadSurd]:
    """The two real fixed points (u +- sqrt(D)) / 2c' of a hyperbolic matrix."""
    c, u, disc = _fixed_point_quadratic(mat)
    return _canonical(u, 2 * c, disc), _canonical(-u, -2 * c, disc)


def far_endpoint(mat: Psl2Mat) -> QuadSurd:
    """The fixed point of larger absolute value (+sqrt branch on ties).

    The fixed points are (u +- sqrt(D)) / 2c' with u = (a - d)/g and g > 0
    the content, and |u + sqrt(D)| > |u - sqrt(D)| exactly when u > 0.  So
    the -sqrt branch is farther exactly when d > a, and u = 0 is a tie.
    """
    return fixed_points(mat)[mat.d > mat.a]


def dilatation(mat: Psl2Mat) -> QuadSurd:
    """Larger eigenvalue (|t| + sqrt(t^2 - 4)) / 2 of a hyperbolic matrix."""
    _check_hyperbolic(mat)
    t = abs(mat.trace())
    return _canonical(t, 2, t * t - 4)
