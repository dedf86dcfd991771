"""Symbolic syzygy sequences of Lissajous motions.

Each equator crossing of the shape curve is an eclipse; the crossing
lands on one of the three arcs cut out by the collision points, and one
period of the motion yields a cyclic word over {1,2,3} with no equal
cyclic neighbours.
"""

from __future__ import annotations

from .classify import LevelSlope, level_slope_of
from .words import palindromic_christoffel, radius_blocks

_ARCS = "123"


def omega(label: LevelSlope) -> str:
    """Sign word over +- from the label: each radius r becomes (+-)^(r-1)+.

    The radii are N and N+1 in place of the letters 0 and 1 of the
    palindromic Christoffel word (see classify.clusters_of).  The length is
    p(2N-1) + q(2N+1), the letter length of H.
    """
    return radius_blocks(label.level, palindromic_christoffel(label.p, label.q), ("+-",))


def syzygy_sequence(m: int, n: int, periods: int = 1) -> str:
    """One or more periods of the syzygy sequence of a primitive type.

    Walk on the arc labels {1,2,3} driven by omega repeated 6*periods
    times, starting at arc 1.  The walk steps by -sgn(m) on '+' and by
    +sgn(m) on '-': the shape point circulates clockwise for m > 0 and
    counterclockwise for m < 0, which is what makes the output agree
    with the numeric crossing oracle for either sign.

    A radius block (+-)^(r-1)+ that starts at arc a visits a and the arc
    one step on alternately, 2r - 1 letters, and moves the walk one step.
    So block i of omega starts i steps from arc 1, and the walk S0 over one
    omega is the radius blocks with one arc pair per i mod 3.
    One omega moves the walk p+q steps, which is not a multiple of 3
    because gcd(p+q, 6) = 1: the walk over the next copy is S0 with every
    arc shifted by those steps (S1), the one after that shifted twice (S2),
    and after S0 S1 S2, 3(p+q) steps, the walk is back at arc 1.  The
    6*periods copies of omega are therefore (S0 S1 S2)^(2*periods), and
    the walk closes up.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    label = level_slope_of(m, n)
    step = -1 if m > 0 else 1
    word = palindromic_christoffel(label.p, label.q)
    pairs = tuple(_ARCS[i * step % 3] + _ARCS[(i + 1) * step % 3] for i in range(3))
    s0 = radius_blocks(label.level, word, pairs)
    k = len(word) * step % 3
    shift = str.maketrans(_ARCS, _ARCS[k:] + _ARCS[:k])
    s1 = s0.translate(shift)
    return (s0 + s1 + s1.translate(shift)) * (2 * periods)
