"""Full classification report for one Lissajous type.

The report describes the class representative: every word/matrix field
is computed at the primitive type returned by reduce_to_p0, so two
inputs of the same class produce identical reports apart from the
echoed input pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Psl2Mat, frieze_w, trace_class
from .classify import LevelSlope, level_slope_of
from .lissajous import NormalizedType, build_H, normalize, reduce_to_p0
from .surd import CfExpansion, QuadSurd, cf_expand, dilatation, far_endpoint
from .syzygy import omega, syzygy_sequence


@dataclass(frozen=True)
class Report:
    input_type: tuple[int, int]
    normalized: NormalizedType
    p0: tuple[int, int]
    label: LevelSlope
    frieze_h: str
    frieze_w: str
    matrix: Psl2Mat
    trace: int
    trace_class: str
    dilatation_exact: QuadSurd
    far_endpoint: QuadSurd
    cf: CfExpansion
    omega: str
    syzygy_period: str

    @property
    def dilatation_approx(self) -> float | None:
        """Float of the dilatation, computed on read, or None for
        dilatations of 2**1024 or more, which no float holds."""
        try:
            return self.dilatation_exact.approx()
        except OverflowError:
            return None

    def to_json_dict(self) -> dict:
        return {
            "input": {"m": self.input_type[0], "n": self.input_type[1]},
            "normalized": self.normalized.to_json_dict(),
            "collision_free": True,
            "p0": {"m": self.p0[0], "n": self.p0[1]},
            "level": self.label.level,
            "slope": self.label.slope_str,
            "friezeH": self.frieze_h,
            "friezeW": self.frieze_w,
            "matrix": self.matrix.to_rows(),
            "trace": self.trace,
            "traceClass": self.trace_class,
            "dilatation": {"exact": str(self.dilatation_exact), "approx": self.dilatation_approx},
            "farEndpoint": str(self.far_endpoint),
            "cf": self.cf.to_json_dict(),
            "omega": self.omega,
            "syzygyPeriod": self.syzygy_period,
        }

    def to_text(self) -> str:
        d = self.to_json_dict()
        dil = d["dilatation"]
        lines = [
            f"input:        ({d['input']['m']},{d['input']['n']})",
            f"normalized:   ({d['normalized']['m']},{d['normalized']['n']})  ell={d['normalized']['ell']}",
            "collision_free: true",
            f"p0:           ({d['p0']['m']},{d['p0']['n']})",
            f"level:        {self.label.level}",
            f"slope:        {self.label.slope_str}",
            f"friezeH:      {self.frieze_h}",
            f"friezeW:      {self.frieze_w}",
            f"matrix:       {self.matrix}",
            f"trace:        {self.trace}  ({self.trace_class})",
            f"dilatation:   {dil['exact']}" + ("" if dil["approx"] is None else f" = {dil['approx']!r}"),
            f"far endpoint: {d['farEndpoint']}",
            f"cf:           {self.cf}",
            f"omega:        {self.omega}",
            f"syzygy:       {self.syzygy_period}",
        ]
        return "\n".join(lines)


def build_report(m: int, n: int) -> Report:
    """Classify a collision-free type; raises CollisionType otherwise."""
    nt = normalize(m, n)
    p0 = reduce_to_p0(nt)
    label = level_slope_of(*p0)
    h = build_H(normalize(*p0))
    w, mat = frieze_w(h)
    dil = dilatation(mat)
    far = far_endpoint(mat)
    return Report(
        input_type=(m, n),
        normalized=nt,
        p0=p0,
        label=label,
        frieze_h=h,
        frieze_w=w,
        matrix=mat,
        trace=abs(mat.trace()),
        trace_class=trace_class(mat),
        dilatation_exact=dil,
        far_endpoint=far,
        cf=cf_expand(far),
        omega=omega(label),
        syzygy_period=syzygy_sequence(*p0, periods=1),
    )


def collision_report_dict(m: int, n: int, nt: NormalizedType) -> dict:
    """Minimal JSON body for a collision type."""
    return {
        "input": {"m": m, "n": n},
        "normalized": nt.to_json_dict(),
        "collision_free": False,
    }
