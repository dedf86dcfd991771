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
"""

from __future__ import annotations

import cmath
import math
import sys
from math import gcd

from .algebra import Psl2Mat
from .errors import BorderHit, LissbraidError, Unstable
from .lissajous import NormalizedType, _check_collision_free
from .surd import fixed_points

RHO = cmath.exp(1j * math.pi / 3)

DEFAULT_RATIO = 0.05
CROSSING_GUARD = 1e-9       # min distance of a crossing from a collision point
EQ_PERIOD_TOL = 1e-9        # psi(t + 1/3) = omega psi(t) check
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


def _psi(exp, nt: NormalizedType, ratio: float):
    """psi as a function of t: over float arrays with exp = numpy.exp, over
    floats with exp = cmath.exp.  The constants are the products that the
    formula evaluates left to right, so both give the same bits up to the
    two complex divisions (numpy multiplies by a reciprocal)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0,1), got {ratio}")
    fast, slow, ir = 6j * math.pi * nt.ell, -4j * math.pi * nt.m, 1j * ratio

    def psi(t):
        osc = exp(fast * t)
        return RHO * exp(slow * t) * (1 + ir * osc) / (1 + ir / osc)
    return psi


def psi_values(nt: NormalizedType, ratio: float, ts: np.ndarray) -> np.ndarray:
    import numpy as np
    return _psi(np.exp, nt, ratio)(np.asarray(ts, dtype=float))


def _sample_times(t0: float, t1: float, steps: int) -> list[float]:
    """numpy.linspace(t0, t1, steps) for steps >= 2, as floats, bit for bit."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    step = (t1 - t0) / (steps - 1)
    return [i * step + t0 for i in range(steps - 1)] + [t1]


def epsilon_oracle(nt: NormalizedType) -> tuple[int, ...]:
    """Bits from geometry: bit k is 0 iff sign(1 - |psi(t_k)|) = sign(ell),
    at the collision-passage times t_k = 1/(12|m|) + (k-1)/(6|m|).

    The amplitude ratio is halved, at most 20 times, until two
    consecutive ratios agree.
    """
    import numpy as np
    _check_collision_free(nt)
    am = abs(nt.m)
    sgn_l = 1 if nt.ell > 0 else -1
    ts = np.array([1.0 / (12 * am) + (k - 1) / (6.0 * am) for k in range(1, 2 * am + 1)])

    def bits_at(r: float) -> tuple[int, ...]:
        radii = np.abs(psi_values(nt, r, ts))
        return tuple(np.where((1.0 - radii) * sgn_l > 0, 0, 1).tolist())

    ratio = DEFAULT_RATIO
    prev = bits_at(ratio)
    for _ in range(20):
        ratio /= 2.0
        cur = bits_at(ratio)
        if cur == prev:
            return cur
        prev = cur
    raise Unstable(f"epsilon bits did not stabilise for {(nt.m, nt.n)}")


def _pairwise_min(m: int, n: int, ts: np.ndarray) -> np.ndarray:
    import numpy as np
    pos = np.sin(2 * math.pi * m * ts) + 1j * np.sin(2 * math.pi * n * ts)
    a = np.sin(2 * math.pi * m * (ts - 1 / 3)) + 1j * np.sin(2 * math.pi * n * (ts - 1 / 3))
    c = np.sin(2 * math.pi * m * (ts + 1 / 3)) + 1j * np.sin(2 * math.pi * n * (ts + 1 / 3))
    return np.minimum(np.abs(a - pos), np.minimum(np.abs(pos - c), np.abs(c - a)))


def collision_scan(m: int, n: int) -> float:
    """Minimum pairwise distance of the three bodies over one period.

    The coarse grid has 512 points per unit of the larger frequency, so
    within one cell of its argmin the distance has a single minimum (it
    is V-shaped near a genuine collision).  A bracket zoom refines it:
    each round samples the bracket on 33 points and keeps the two cells
    beside the smallest sample.  A unimodal function has its minimum
    next to its smallest sample, so those cells still bracket it, and
    12 rounds shrink the bracket 16^12-fold, below float resolution.
    """
    import numpy as np
    if gcd(m, n) != 1:
        raise ValueError(f"gcd{(m, n)} != 1")
    steps = max(2048, 512 * max(abs(m), abs(n)))
    # collision times are rationals, which an unshifted grid hits; a shift by
    # an irrational fraction of a cell leaves the minimum's last digits to the zoom
    ts = (np.arange(steps) + (math.sqrt(5) - 1) / 2) / steps
    dist = _pairwise_min(m, n, ts)
    i = int(np.argmin(dist))
    best = float(dist[i])
    lo, hi = ts[i] - 1.0 / steps, ts[i] + 1.0 / steps
    for _ in range(12):
        grid = np.linspace(lo, hi, 33)
        dist = _pairwise_min(m, n, grid)
        j = int(np.argmin(dist))
        best = min(best, float(dist[j]))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, 32)]
    return best


def region_itinerary(nt: NormalizedType) -> list[str]:
    """Regions visited over one third of a period (30000 samples), repeats
    compressed: the thirds I, II, III of the angle, whose borders pass
    through the collision points 1, omega, omega^2, with '-' outside the
    equator and '+' inside.  Samples within 1e-7 of the equator or of a
    border ray, and samples at psi = 0, are skipped."""
    import numpy as np
    _check_collision_free(nt)
    delta = start_offset(nt)
    psi = psi_values(nt, DEFAULT_RATIO, np.linspace(delta, 1.0 / 3.0 + delta, 30000))
    r = np.abs(psi)
    theta = np.angle(psi) % (2 * math.pi)
    k = theta // _THIRD
    keep = ((np.abs(r - 1.0) >= 1e-7) & (r != 0.0)
            & (np.minimum(theta - k * _THIRD, (k + 1) * _THIRD - theta) >= 1e-7))
    codes = 2 * k[keep].astype(int) + (r[keep] < 1.0)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return [("I", "II", "III")[c // 2] + "-+"[c % 2] for c in codes.tolist()]


def _crossings(nt: NormalizedType, ratio: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and angles in [0, 2pi) of the equator crossings over one full
    period, each bisected 80 times, all brackets at once.

    The closed interval [delta, 1 + delta] brackets all 6|ell| crossings;
    its endpoints sit strictly between crossings by the choice of delta.
    """
    import numpy as np
    delta = start_offset(nt)
    ts = np.linspace(delta, 1.0 + delta, steps + 1)
    f = np.abs(psi_values(nt, ratio, ts)) - 1.0
    i = np.nonzero(f[:-1] * f[1:] < 0)[0]
    lo, hi, flo = ts[i], ts[i + 1], f[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = np.abs(psi_values(nt, ratio, mid)) - 1.0
        left = flo * fmid <= 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
    t = 0.5 * (lo + hi)
    return t, np.angle(psi_values(nt, ratio, t)) % (2 * math.pi)


def syzygy_oracle(nt: NormalizedType) -> str:
    """Arc labels of the equator crossings of one period, from geometry.

    Arc 1 is arg in (0, 2pi/3), arc 2 (2pi/3, 4pi/3), arc 3 (4pi/3, 2pi).
    A wrong crossing count, or a crossing within the guard distance of a
    collision point, triggers a retry with half the amplitude ratio.  When
    6 ratios fail, the error is BorderHit if one of them grazed, else
    Unstable.
    """
    import numpy as np
    _check_collision_free(nt)
    expected = 6 * abs(nt.ell)
    last_err: BorderHit | None = None
    for attempt in range(6):
        t, theta = _crossings(nt, DEFAULT_RATIO / 2**attempt, steps=max(4096, 256 * expected))
        if len(t) != expected:
            continue
        rem = theta % _THIRD
        grazes = np.nonzero(np.minimum(rem, _THIRD - rem) < CROSSING_GUARD)[0]
        if len(grazes):
            last_err = BorderHit(f"crossing at angle {theta[grazes[0]]} grazes a collision point")
            continue
        # rotate so the crossing nearest an integer time comes first
        first = int(np.argmin(np.abs(t - np.round(t))))
        return "".join(map(str, np.roll(1 + (theta // _THIRD).astype(int), -first)))
    raise last_err or Unstable(f"could not isolate {expected} crossings for {(nt.m, nt.n)}")


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


def svg_shape(nt: NormalizedType, ratio: float = DEFAULT_RATIO, steps: int = 6000,
              path: str = "shape.svg") -> str:
    """Shape-sphere figure: compressed equator, border rays, collision
    points, and the full-period curve.  Returns the path written."""
    from .classify import level_slope_of
    from .lissajous import reduce_to_p0

    _check_collision_free(nt)
    delta = start_offset(nt)
    psi = _psi(cmath.exp, nt, ratio)
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


def csv_shape(nt: NormalizedType, ratio: float = DEFAULT_RATIO, steps: int = 2000,
              path: str = "shape.csv") -> str:
    """CSV of one third of a period: header t,re_psi,im_psi, 12 significant digits."""
    _check_collision_free(nt)
    delta = start_offset(nt)
    psi = _psi(cmath.exp, nt, ratio)
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


def svg_halfplane(mat: Psl2Mat, max_denominator: int = 8, path: str = "halfplane.svg") -> str:
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


def periodicity_defect(nt: NormalizedType) -> float:
    """max |psi(t + 1/3) - omega psi(t)| over 500 sampled t; near 0 by symmetry."""
    import numpy as np
    delta = start_offset(nt)
    ts = np.linspace(delta, 1.0 / 3.0 + delta, 500)
    omega_c = cmath.exp(2j * math.pi / 3)
    left = psi_values(nt, DEFAULT_RATIO, ts + 1.0 / 3.0)
    right = omega_c * psi_values(nt, DEFAULT_RATIO, ts)
    return float(np.max(np.abs(left - right)))
