"""Symbolic syzygy sequences of Lissajous motions.

Each equator crossing of the shape curve is an eclipse; the crossing
lands on one of the three arcs cut out by the collision points, and one
period of the motion yields a cyclic word over {1,2,3} with no equal
cyclic neighbours.
"""

from __future__ import annotations

from .classify import LevelSlope, level_slope_of, radii_of
from .errors import NotPrimitive
from .lissajous import is_primitive


def omega(label: LevelSlope) -> str:
    """Sign word over +- from the label: each radius r becomes (+-)^(r-1)+.

    The length is p(2N-1) + q(2N+1), the letter length of H.
    """
    return "".join("+-" * (r - 1) + "+" for r in radii_of(label))


def syzygy_sequence(m: int, n: int, periods: int = 1) -> str:
    """One or more periods of the syzygy sequence of a primitive type.

    Walk on the arc labels {1,2,3} driven by omega repeated 6*periods
    times, starting at arc 1.  The walk steps by -sgn(m) on '+' and by
    +sgn(m) on '-': the shape point circulates clockwise for m > 0 and
    counterclockwise for m < 0, which is what makes the output agree
    with the numeric crossing oracle for either sign.  The walk closes up:
    each radius block (+-)^(r-1)+ moves it one step, so the 6*periods
    copies of omega move it 6*periods*(p+q) steps, a multiple of 3.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if not is_primitive(m, n):
        raise NotPrimitive(f"{(m, n)} is not primitive")
    drive = omega(level_slope_of(m, n)) * (6 * periods)
    direction = -1 if m > 0 else 1
    arc = 1
    out = []
    for sign in drive:
        out.append(arc)
        step = direction if sign == "+" else -direction
        arc = (arc - 1 + step) % 3 + 1
    return "".join(map(str, out))


def is_reduced(seq: str) -> bool:
    """No two cyclically adjacent letters are equal.

    A single letter cyclically adjoins itself, so length 1 is not reduced.
    """
    if not seq:
        return True
    return all(seq[i] != seq[(i + 1) % len(seq)] for i in range(len(seq)))
