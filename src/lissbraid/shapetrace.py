"""Floating-point oracle and plot emitter for the shape curve.

Everything here re-derives data from the geometry of

    psi(t) = rho * exp(-4 pi i m t) * (1 + i r e^{6 pi i l t}) / (1 + i r e^{-6 pi i l t})

with rho = exp(i pi/3), l = ell and a small amplitude ratio r = B/A,
independently of the exact integer formulas, so the two routes can be
checked against each other.  SVG and CSV emission for the shape sphere
and the upper half plane live here as well.  The oracles evaluate psi
over numpy arrays and the figures point by point with cmath, through one
formula; numpy is imported inside the oracles, so only they load it and
every CLI command but `verify --suite epsilon|collision|syzygy` runs
without it.

Each oracle takes a list of types and refines a batch of them in one
numpy pass per round.  A type's samples meet the same float operations
as when it ran alone, element by element (numpy's complex multiply,
divide, exp, abs and angle, and its sin, are elementwise), so every
type keeps the bits it had alone.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable
from math import gcd

from .algebra import Psl2Mat
from .errors import BorderHit, LissbraidError, Unstable
from .lissajous import NormalizedType, _check_collision_free
from .surd import fixed_points

RHO = cmath.exp(1j * math.pi / 3)

DEFAULT_RATIO = 0.05
CROSSING_GUARD = 1e-9       # min distance of a crossing from a collision point
COLLISION_EPS = 1e-6        # refined minimum below this means collision
SEPARATION_EPS = 1e-3       # refined minimum above this means collision-free

_THIRD = 2 * math.pi / 3


def start_offset(nt: NormalizedType) -> float:
    """Start time just before (ell > 0) or after (ell < 0) zero.

    A type whose 600 |m ell| exceeds the largest float has no float time
    scale, which is an input error."""
    if 600 * abs(nt.m * nt.ell) > sys.float_info.max:
        raise LissbraidError(f"type {(nt.m, nt.n)} is too large for float time: "
                             f"600 |m ell| exceeds {sys.float_info.max:g}")
    sgn_l = 1 if nt.ell > 0 else -1
    return -sgn_l / (600.0 * abs(nt.m * nt.ell))


def _rates(nt: NormalizedType) -> tuple[complex, complex]:
    """The exponent rates of psi's two factors, 6 pi i ell and -4 pi i m."""
    return 6j * math.pi * nt.ell, -4j * math.pi * nt.m


def _psi(exp, fast, slow, ratio: float):
    """psi as a function of t, from the rates fast and slow of _rates.

    Over floats with exp = cmath.exp and scalar rates (the figures); over
    float arrays with exp = numpy.exp and scalar rates (one type) or rates
    repeated per sample (a batch of types).  The constants are the
    products that the formula evaluates left to right, so both give the
    same bits up to the two complex divisions (numpy multiplies by a
    reciprocal).  numpy's complex multiply, divide, exp, abs and angle act
    element by element, so a sample's bits do not depend on the batch
    around it."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0,1), got {ratio}")
    ir = 1j * ratio

    def psi(t):
        osc = exp(fast * t)
        return RHO * exp(slow * t) * (1 + ir * osc) / (1 + ir / osc)
    return psi


def psi_values(nt: NormalizedType, ratio: float, ts: np.ndarray) -> np.ndarray:
    import numpy as np
    return _psi(np.exp, *_rates(nt), ratio)(np.asarray(ts, dtype=float))


def _sample_times(t0: float, t1: float, steps: int) -> list[float]:
    """numpy.linspace(t0, t1, steps) for steps >= 2, as floats, bit for bit."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    step = (t1 - t0) / (steps - 1)
    return [i * step + t0 for i in range(steps - 1)] + [t1]


# A batch takes types in input order until the next would push its
# samples per round past this cap; a larger type runs alone.  One
# epsilon_oracle call over the 2127 types of the epsilon suite at
# |m| <= 200 (Python 3.11.7, numpy 2.4.6, 2-vCPU Xeon, best of 5) takes
# 0.32 s one type at a time, 0.11, 0.09 and 0.11 s at caps of 2^10, 2^12
# and 2^14 samples, 0.11 s unbounded; its peak RSS is 34-36 MB up to
# 2^14 and 97 MB unbounded.  syzygy_oracle over |m| <= 100 peaks at
# 38 MB at 2^12 and at 59 MB unbounded.
_BATCH_SAMPLES = 1 << 12


def _batches(items, check, size):
    """Consecutive runs of items whose sizes sum to at most _BATCH_SAMPLES,
    an item larger than that alone.  Each item passes check before its run
    is yielded; the first that fails raises after the run before it, so
    the first failing item in input order raises, as when each ran alone."""
    batch, total = [], 0
    for item in items:
        try:
            check(item)
        except (LissbraidError, ValueError):
            if batch:
                yield batch
            raise
        if batch and total + size(item) > _BATCH_SAMPLES:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += size(item)
    if batch:
        yield batch


def epsilon_oracle(nts: Iterable[NormalizedType]) -> list[tuple[int, ...]]:
    """Bits from geometry, one tuple per type: bit k is 0 iff
    sign(1 - |psi(t_k)|) = sign(ell), at the collision-passage times
    t_k = 1/(12|m|) + (k-1)/(6|m|).

    The amplitude ratio is halved, at most 20 times, until two
    consecutive ratios agree for a type.  Each round evaluates the
    samples of every type of a batch not yet agreed in one pass.
    """
    return [bits for batch in _batches(nts, _check_collision_free, lambda nt: 2 * abs(nt.m))
            for bits in _epsilon_batch(batch)]


def _epsilon_batch(nts: list[NormalizedType]) -> list[tuple[int, ...]]:
    import numpy as np
    counts = np.array([2 * abs(nt.m) for nt in nts])
    am = np.repeat(counts // 2, counts)
    k = np.arange(len(am)) - np.repeat(counts.cumsum() - counts, counts)    # k - 1 of each type
    # the same float operations as 1.0 / (12 * am) + (k - 1) / (6.0 * am) on Python numbers
    ts = 1.0 / (12 * am) + k / (6.0 * am)
    fast, slow = (np.repeat(rate, counts) for rate in zip(*map(_rates, nts)))
    sgn_l = np.repeat([1 if nt.ell > 0 else -1 for nt in nts], counts)
    out: list = [None] * len(nts)
    live = np.arange(len(nts))      # the types not yet agreed, by batch index

    def bits_at(ratio: float) -> np.ndarray:
        radii = np.abs(_psi(np.exp, fast, slow, ratio)(ts))
        return np.where((1.0 - radii) * sgn_l > 0, 0, 1)

    ratio = DEFAULT_RATIO
    prev = bits_at(ratio)
    for _ in range(20):
        ratio /= 2.0
        cur = bits_at(ratio)
        starts = counts.cumsum() - counts
        agreed = np.logical_and.reduceat(cur == prev, starts)
        bits = cur.tolist()
        for i, a, c in zip(live[agreed].tolist(), starts[agreed].tolist(), counts[agreed].tolist()):
            out[i] = tuple(bits[a:a + c])
        keep = np.repeat(~agreed, counts)
        ts, fast, slow, sgn_l, prev = ts[keep], fast[keep], slow[keep], sgn_l[keep], cur[keep]
        live, counts = live[~agreed], counts[~agreed]
        if not len(live):
            return out
    nt = nts[live[0]]
    raise Unstable(f"epsilon bits did not stabilise for {(nt.m, nt.n)}")


def _pairwise_min(m, n, ts: np.ndarray) -> np.ndarray:
    """Minimum distance of two of the three bodies at times ts; for a batch,
    m and n are columns beside the rows of ts."""
    import numpy as np
    pos = np.sin(2 * math.pi * m * ts) + 1j * np.sin(2 * math.pi * n * ts)
    a = np.sin(2 * math.pi * m * (ts - 1 / 3)) + 1j * np.sin(2 * math.pi * n * (ts - 1 / 3))
    c = np.sin(2 * math.pi * m * (ts + 1 / 3)) + 1j * np.sin(2 * math.pi * n * (ts + 1 / 3))
    return np.minimum(np.abs(a - pos), np.minimum(np.abs(pos - c), np.abs(c - a)))


def _check_coprime(pair: tuple[int, int]) -> None:
    m, n = pair
    if gcd(m, n) != 1:
        raise ValueError(f"gcd{(m, n)} != 1")


def collision_scan(pairs: Iterable[tuple[int, int]]) -> list[float]:
    """Minimum pairwise distance of the three bodies over one period, one
    float per type (m, n).

    The coarse grid has 512 points per unit of the larger frequency, so
    within one cell of its argmin the distance has a single minimum (it
    is V-shaped near a genuine collision).  A bracket zoom refines it:
    each round samples the bracket on 33 points and keeps the two cells
    beside the smallest sample.  A unimodal function has its minimum
    next to its smallest sample, so those cells still bracket it, and
    12 rounds shrink the bracket 16^12-fold, below float resolution.
    The coarse grid runs per type; each zoom round samples the brackets
    of a whole batch as the rows of one grid.
    """
    return [best for batch in _batches(pairs, _check_coprime, lambda pair: 33)
            for best in _collision_batch(batch)]


def _collision_batch(pairs: list[tuple[int, int]]) -> list[float]:
    import numpy as np
    brackets = []
    for m, n in pairs:
        steps = max(2048, 512 * max(abs(m), abs(n)))
        # collision times are rationals, which an unshifted grid hits; a shift by
        # an irrational fraction of a cell leaves the minimum's last digits to the zoom
        ts = (np.arange(steps) + (math.sqrt(5) - 1) / 2) / steps
        dist = _pairwise_min(m, n, ts)
        i = int(np.argmin(dist))
        brackets.append((ts[i] - 1.0 / steps, ts[i] + 1.0 / steps, dist[i]))
    lo, hi, best = np.array(brackets).T
    m, n = np.array(pairs).T[:, :, None]
    rows = np.arange(len(pairs))
    for _ in range(12):
        # 32 cells, a power of two: numpy's linspace gives each row the
        # bits of its own one-row call
        grid = np.linspace(lo, hi, 33, axis=1)
        dist = _pairwise_min(m, n, grid)
        j = np.argmin(dist, axis=1)
        best = np.minimum(best, dist[rows, j])
        lo, hi = grid[rows, np.maximum(j - 1, 0)], grid[rows, np.minimum(j + 1, 32)]
    return best.tolist()


def _check_traceable(nt: NormalizedType) -> None:
    _check_collision_free(nt)
    start_offset(nt)


def syzygy_oracle(nts: Iterable[NormalizedType]) -> list[str]:
    """Arc labels of the equator crossings of one period, from geometry,
    one string per type.

    Arc 1 is arg in (0, 2pi/3), arc 2 (2pi/3, 4pi/3), arc 3 (4pi/3, 2pi).
    The closed interval [delta, 1 + delta] brackets all 6|ell| crossings;
    its endpoints sit strictly between crossings by the choice of delta.
    Each type's grid finds its brackets; each of 80 bisection rounds then
    halves the brackets of a whole batch in one pass.  A wrong crossing
    count, or a crossing within the guard distance of a collision point,
    triggers a retry of that type with half the amplitude ratio.  When 6
    ratios fail, the error is BorderHit if one of them grazed, else
    Unstable.
    """
    return [word for batch in _batches(nts, _check_traceable, lambda nt: 6 * abs(nt.ell))
            for word in _syzygy_batch(batch)]


def _brackets(nt: NormalizedType, ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of the type's grid over [delta, 1 + delta] where |psi| - 1
    changes sign: their ends and |psi| - 1 at their left ends."""
    import numpy as np
    delta = start_offset(nt)
    ts = np.linspace(delta, 1.0 + delta, max(4096, 256 * 6 * abs(nt.ell)) + 1)
    f = np.abs(psi_values(nt, ratio, ts)) - 1.0
    i = np.nonzero(f[:-1] * f[1:] < 0)[0]
    return ts[i], ts[i + 1], f[i]


def _syzygy_batch(nts: list[NormalizedType]) -> list[str]:
    import numpy as np
    out: list = [None] * len(nts)
    last_err: dict[int, BorderHit] = {}
    live = range(len(nts))
    for attempt in range(6):
        ratio = DEFAULT_RATIO / 2**attempt
        brackets = [_brackets(nts[i], ratio) for i in live]
        counts = [len(lo) for lo, _, _ in brackets]
        lo, hi, flo = map(np.concatenate, zip(*brackets))
        rates = zip(*(_rates(nts[i]) for i in live))
        psi = _psi(np.exp, *(np.repeat(rate, counts) for rate in rates), ratio)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = np.abs(psi(mid)) - 1.0
            left = flo * fmid <= 0
            hi = np.where(left, mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
        t = 0.5 * (lo + hi)
        theta = np.angle(psi(t)) % (2 * math.pi)
        retry = []
        ends = np.cumsum(counts)[:-1]
        for i, t_i, theta_i in zip(live, np.split(t, ends), np.split(theta, ends)):
            if len(t_i) == 6 * abs(nts[i].ell):
                rem = theta_i % _THIRD
                grazes = np.nonzero(np.minimum(rem, _THIRD - rem) < CROSSING_GUARD)[0]
                if not len(grazes):
                    # rotate so the crossing nearest an integer time comes first
                    first = int(np.argmin(np.abs(t_i - np.round(t_i))))
                    out[i] = "".join(map(str, np.roll(1 + (theta_i // _THIRD).astype(int), -first)))
                    continue
                last_err[i] = BorderHit(f"crossing at angle {theta_i[grazes[0]]} grazes "
                                        "a collision point")
            retry.append(i)
        live = retry
        if not live:
            return out
    nt = nts[live[0]]
    raise last_err.get(live[0]) or Unstable(
        f"could not isolate {6 * abs(nt.ell)} crossings for {(nt.m, nt.n)}")


# ---------------------------------------------------------------------------
# figure emission

_SVG_SIZE = 1000
_SVG_SCALE = 450.0
# an edge is about 100 bytes of SVG: (4,-5) at max_denominator 100 draws
# 42 609 edges in 4.3 MB, so the cap bounds the file near 10 MB
_MAX_FAREY_EDGES = 10**5


def _sphere_xy(z: complex) -> tuple[float, float]:
    # radial compression r -> r/(1+r) maps the whole plane into the unit disk
    s = 1.0 + abs(z)
    return (_SVG_SIZE / 2 + _SVG_SCALE * (z.real / s), _SVG_SIZE / 2 - _SVG_SCALE * (z.imag / s))


def svg_shape(nt: NormalizedType, ratio: float, steps: int, path: str) -> str:
    """Shape-sphere figure: compressed equator, border rays, collision
    points, and the full-period curve.  Returns the path written."""
    from .classify import level_slope_of
    from .lissajous import reduce_to_p0

    _check_collision_free(nt)
    delta = start_offset(nt)
    psi = _psi(cmath.exp, *_rates(nt), ratio)
    label = level_slope_of(*reduce_to_p0(nt))
    meta = f"type=({nt.m},{nt.n}) level={label.level} slope={label.slope_str}"
    pts = " ".join(f"{x:.2f},{y:.2f}"
                   for x, y in map(_sphere_xy, map(psi, _sample_times(delta, 1.0 + delta, steps))))
    cx = cy = _SVG_SIZE / 2
    req = _SVG_SCALE / 2  # compressed radius of the equator
    rays = []
    for k in range(6):
        ang = k * math.pi / 3
        rays.append(
            f'<line x1="{cx:.1f}" y1="{cy:.1f}" '
            f'x2="{cx + _SVG_SCALE * math.cos(ang):.1f}" y2="{cy - _SVG_SCALE * math.sin(ang):.1f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    marks = []
    for k in range(3):
        ang = k * _THIRD
        marks.append(
            f'<circle cx="{cx + req * math.cos(ang):.2f}" cy="{cy - req * math.sin(ang):.2f}" '
            f'r="6" fill="#cc0000"/>'
        )
    body = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
            f"<!-- {meta} -->",
            f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
            *rays,
            f'<circle cx="{cx}" cy="{cy}" r="{req}" fill="none" stroke="#444444" stroke-width="1.5"/>',
            f'<polyline points="{pts}" fill="none" stroke="#1f3f9f" stroke-width="1.2"/>',
            *marks,
            "</svg>",
        ]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    return path


def csv_shape(nt: NormalizedType, ratio: float, steps: int, path: str) -> str:
    """CSV of one third of a period: header t,re_psi,im_psi, 12 significant digits."""
    _check_collision_free(nt)
    delta = start_offset(nt)
    psi = _psi(cmath.exp, *_rates(nt), ratio)
    ts = _sample_times(delta, 1.0 / 3.0 + delta, steps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,re_psi,im_psi\n")
        fh.writelines(f"{t:.12g},{z.real:.12g},{z.imag:.12g}\n" for t, z in zip(ts, map(psi, ts)))
    return path


def farey_edges(x0: int, x1: int, max_denominator: int) -> list[tuple[Fraction, Fraction]]:
    """Geodesic edges of the Farey tessellation over [x0, x1]: all pairs of
    reduced fractions with denominators <= max_denominator and |ad - bc| = 1,
    sorted.

    Each edge is an integer edge (k, k+1) or joins a fraction c/d with
    d >= 2 to one of its two Farey parents a/b < c/d < (c-a)/(d-b), where
    b = c^-1 mod d and a = (cb - 1)/d, so cb - ad = 1.  Listing those
    takes time proportional to the number of edges.
    """
    from fractions import Fraction
    out = [(Fraction(k), Fraction(k + 1)) for k in range(x0, x1)]
    for d in range(2, max_denominator + 1):
        for c in range(x0 * d + 1, x1 * d):
            if gcd(c, d) == 1:
                b = pow(c, -1, d)
                a = (c * b - 1) // d
                u = Fraction(c, d)
                out += [(Fraction(a, b), u), (u, Fraction(c - a, d - b))]
    return sorted(out)


def svg_halfplane(mat: Psl2Mat, max_denominator: int, path: str) -> str:
    """Upper-half-plane figure: Farey tessellation (uncolored) and the axis
    of a hyperbolic matrix between its two fixed points.

    Each unit of [x0, x1] holds 1 + 2 (phi(2) + ... + phi(max_denominator))
    Farey edges, 43 at the default; a figure above _MAX_FAREY_EDGES of them
    is an input error, raised before any edge is listed or file opened."""
    e0, e1 = sorted(fp.approx() for fp in fixed_points(mat))
    x0, x1 = math.floor(e0) - 1, math.ceil(e1) + 1
    width = x1 - x0
    edges = width * (1 + 2 * sum(gcd(c, d) == 1 for d in range(2, max_denominator + 1)
                                 for c in range(d)))
    if edges > _MAX_FAREY_EDGES:
        raise LissbraidError(f"the half-plane figure over [{x0}, {x1}] has {edges} Farey edges "
                             f"up to denominator {max_denominator}, above the cap of "
                             f"{_MAX_FAREY_EDGES}")
    scale = (_SVG_SIZE - 100) / width
    height = int(scale * width * 0.6) + 60

    def xpix(x: float) -> float:
        return 50 + (x - x0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE} {height}">',
        f"<!-- axis endpoints {e0:.6f}, {e1:.6f} -->",
        f'<rect width="{_SVG_SIZE}" height="{height}" fill="white"/>',
        f'<line x1="{xpix(x0)}" y1="{height - 40}" x2="{xpix(x1)}" y2="{height - 40}" stroke="black"/>',
    ]

    def arc(a: float, b: float, stroke: str, swidth: float) -> str:
        r = (b - a) / 2 * scale
        return (
            f'<path d="M {xpix(a):.2f} {height - 40} A {r:.2f} {r:.2f} 0 0 1 '
            f'{xpix(b):.2f} {height - 40}" fill="none" stroke="{stroke}" stroke-width="{swidth}"/>'
        )

    for u, v in farey_edges(x0, x1, max_denominator):
        parts.append(arc(float(u), float(v), "#999999", 0.8))
    for k in range(x0, x1 + 1):
        parts.append(
            f'<line x1="{xpix(k):.2f}" y1="20" x2="{xpix(k):.2f}" y2="{height - 40}" '
            f'stroke="#999999" stroke-width="0.8"/>'
        )
    parts.append(arc(e0, e1, "#cc2200", 2.0))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
    return path
