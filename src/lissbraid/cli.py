"""Command-line front end.

Exit codes: 0 ok, 1 usage/input error (including an empty verify or
enumerate selection, a verify bound the suite does not take, a plot
flag its --kind does not read, an
enumerate --max-m given with --max-sum or --max-level, plot steps
or syzygy periods above their caps, a syzygy output or a report whose
syzygy word is above 10**7 letters, --max-m above 2000, --max-sum above
200 or --max-level above 30, a plot --kind shape type whose 600 |m ell|
is above the largest float, a half-plane figure above 10**5 Farey edges,
and files plot cannot write), 2 collision type (classify only), 3
verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

from .classify import LevelSlope, enumerate_labels, enumerate_p0, level_slope_of, type_of
from .errors import LissbraidError
from .lissajous import normalize, reduce_to_p0
from .report import Report, build_report, collision_report_dict
from .shapetrace import DEFAULT_RATIO, csv_shape, svg_halfplane, svg_shape
from .syzygy import omega, syzygy_sequence

# the names of verify.SUITES, so that only `verify` imports the suites
_SUITE_NAMES = ("bijection", "cf", "cluster", "collision", "epsilon", "syzygy")

# caps on what one command builds, so that a huge request is an input
# error rather than a MemoryError; 10**6 plot steps write a 14 MB SVG
_MAX_STEPS = 10**6
_MAX_PERIODS = 1000
_MAX_SYZYGY_LETTERS = 10**7
# --max-m 2000 selects 202 878 types, --max-sum 200 with --max-level 30
# selects 185 610 labels; either list takes under 100 MB to print
_MAX_BOUNDS = {"max_m": 2000, "max_sum": 200, "max_level": 30}


def _parse_type(text: str) -> tuple[int, int]:
    try:
        m_str, n_str = text.split(",")
        return int(m_str), int(n_str)
    except ValueError as err:
        raise LissbraidError(f"--type wants 'm,n' with integers, got {text!r}") from err


def _parse_slope(text: str) -> tuple[int, int]:
    try:
        q_str, p_str = text.split("/")
        return int(p_str), int(q_str)
    except ValueError as err:
        raise LissbraidError(f"--slope wants 'q/p', got {text!r}") from err


def _checked_p0(m: int, n: int, periods: int = 1) -> tuple[int, int]:
    """p0 of the type, once its syzygy output of 6 |omega| letters per
    period is within the cap; |omega| = p(2N-1) + q(2N+1) is |ell| of p0
    and bounds |H|, |W| and the matrix, so a report counts one period."""
    p0 = reduce_to_p0(normalize(m, n))
    letters = 6 * periods * abs(p0[0] - p0[1]) // 3
    if letters > _MAX_SYZYGY_LETTERS:
        raise LissbraidError(f"type {(m, n)} at {periods} period(s) asks for {letters} syzygy "
                             f"letters, above the cap of {_MAX_SYZYGY_LETTERS}")
    return p0


@contextmanager
def _int_digits_unlimited():
    """Lift the int-to-str digit limit while a result is printed, and
    restore it; the size cap bounds the digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _flags(names: list[str]) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _check_bounds(args) -> None:
    for name, cap in _MAX_BOUNDS.items():
        value = getattr(args, name)
        if value is not None and value > cap:
            raise LissbraidError(f"{_flags([name])} must be at most {cap}, got {value}")


def _emit_report(report: Report, as_json: bool) -> None:
    with _int_digits_unlimited():
        print(json.dumps(report.to_json_dict()) if as_json else report.to_text())


def cmd_classify(args) -> int:
    m, n = _parse_type(args.type)
    nt = normalize(m, n)
    if nt.ell % 2 == 0:
        print(json.dumps(collision_report_dict(m, n, nt)))
        return 2
    _checked_p0(m, n)
    _emit_report(build_report(m, n), args.json)
    return 0


def cmd_from_label(args) -> int:
    p, q = _parse_slope(args.slope)
    m, n = type_of(LevelSlope(args.level, p, q))
    _checked_p0(m, n)
    _emit_report(build_report(m, n), args.json)
    return 0


def cmd_cf(args) -> int:
    m, n = _parse_type(args.type)
    _checked_p0(m, n)
    report = build_report(m, n)
    with _int_digits_unlimited():
        far = str(report.far_endpoint)
        body = {"farEndpoint": far, "cf": report.cf.to_json_dict()}
        print(json.dumps(body) if args.json else f"{far}\ncf: {report.cf}")
    return 0


def cmd_syzygy(args) -> int:
    m, n = _parse_type(args.type)
    if not 1 <= args.periods <= _MAX_PERIODS:
        raise LissbraidError(f"--periods must lie in [1, {_MAX_PERIODS}], got {args.periods}")
    p0 = _checked_p0(m, n, args.periods)
    om = omega(level_slope_of(*p0))
    seq = syzygy_sequence(*p0, periods=args.periods)
    if args.group:
        block = len(om)
        seq = ".".join(seq[i:i + block] for i in range(0, len(seq), block))
    if args.json:
        print(json.dumps({"omega": om, "syzygy": seq, "periods": args.periods}))
    else:
        print(f"omega:  {om}")
        print(f"syzygy: {seq}")
    return 0


def cmd_plot(args) -> int:
    m, n = _parse_type(args.type)
    # a flag the figure does not read is refused, not silently ignored
    foreign = ("ratio", "steps") if args.kind == "halfplane" else ("max_denominator",)
    given = [name for name in foreign if getattr(args, name) is not None]
    if given:
        raise LissbraidError(f"--kind {args.kind} takes no {_flags(given)}")
    if args.kind == "shape":
        ratio = DEFAULT_RATIO if args.ratio is None else args.ratio
        steps = 6000 if args.steps is None else args.steps
        if not 0 < ratio < 1:
            raise LissbraidError(f"--ratio must lie in (0, 1), got {ratio}")
        if not 2 <= steps <= _MAX_STEPS:
            raise LissbraidError(f"--steps must lie in [2, {_MAX_STEPS}], got {steps}")
        write = csv_shape if args.format == "csv" else svg_shape
        path = write(normalize(m, n), ratio, steps, args.out)
    else:
        max_denominator = 8 if args.max_denominator is None else args.max_denominator
        if not 1 <= max_denominator <= 100:
            raise LissbraidError(f"--max-denominator must lie in [1, 100], got {max_denominator}")
        if args.format == "csv":
            raise LissbraidError("--format csv needs --kind shape; the half-plane figure is SVG only")
        _checked_p0(m, n)
        path = svg_halfplane(build_report(m, n).matrix, max_denominator, args.out)
    print(path)
    return 0


def cmd_enumerate(args) -> int:
    # json.dumps's rows in one write; level_slope_of checks primitivity
    _check_bounds(args)
    if args.max_m is not None:
        if args.max_sum is not None or args.max_level is not None:
            raise LissbraidError("enumerate takes --max-m alone, or --max-sum with --max-level")
        rows = [f'{{"m": {m}, "n": {n}, "level": {ls.level}, "slope": "{ls.q}/{ls.p}"}}\n'
                for m, n in enumerate_p0(args.max_m) for ls in [level_slope_of(m, n)]]
    elif args.max_sum is not None:
        max_level = 10 if args.max_level is None else args.max_level
        rows = [f'{{"level": {ls.level}, "slope": "{ls.q}/{ls.p}", "m": {m}, "n": {n}}}\n'
                for ls in enumerate_labels(args.max_sum, max_level) for m, n in [type_of(ls)]]
    else:
        raise LissbraidError("enumerate wants --max-m or --max-sum")
    if not rows:
        raise LissbraidError(f"the bounds select no {'labels' if args.max_m is None else 'types'}")
    sys.stdout.write("".join(rows))
    return 0


def cmd_verify(args) -> int:
    import inspect  # these two load only for verify
    from .verify import SUITES

    suite = SUITES[args.suite]
    _check_bounds(args)
    bounds = {"max_m": args.max_m, "max_sum": args.max_sum, "max_level": args.max_level}
    bounds = {name: value for name, value in bounds.items() if value is not None}
    ignored = [name for name in bounds if name not in inspect.signature(suite).parameters]
    if ignored:
        raise LissbraidError(f"the {args.suite} suite takes no {_flags(ignored)}")
    cases = suite(**bounds)
    if not cases:
        raise LissbraidError(f"the bounds select no {args.suite} cases")
    failures = 0
    for name, ok, detail in cases:
        print(f"{'PASS' if ok else 'FAIL'} {name}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(cases) - failures}/{len(cases)} cases pass")
    return 3 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lissbraid")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type(p):
        p.add_argument("--type", required=True, help="frequencies 'm,n' (negatives allowed)")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="full report for a type")
    add_type(p); add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("from-label", help="full report from a level/slope label")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--slope", required=True, help="slope 'q/p'")
    add_json(p)
    p.set_defaults(func=cmd_from_label)

    p = sub.add_parser("cf", help="far endpoint and its continued fraction")
    add_type(p); add_json(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("syzygy", help="syzygy sequence of the class representative")
    add_type(p); add_json(p)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--group", action="store_true", help="dot separators every |omega| letters")
    p.set_defaults(func=cmd_syzygy)

    p = sub.add_parser("plot", help="emit an SVG or CSV figure")
    add_type(p)
    p.add_argument("--kind", choices=("shape", "halfplane"), default="shape")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    p.add_argument("--ratio", type=float, help="shape only; default 0.05")
    p.add_argument("--steps", type=int, help="shape only; default 6000")
    p.add_argument("--max-denominator", type=int, help="halfplane only; default 8")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("enumerate", help="stream types or labels as JSON lines")
    p.add_argument("--max-m", type=int)
    p.add_argument("--max-sum", type=int)
    p.add_argument("--max-level", type=int, help="with --max-sum; default 10")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a cross-validation suite")
    p.add_argument("--suite", choices=_SUITE_NAMES, required=True)
    p.add_argument("--max-m", type=int)
    p.add_argument("--max-sum", type=int)
    p.add_argument("--max-level", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


_NEGATIVE_VALUES = {"--type": re.compile(r"^-?\d+,-?\d+$"),
                    "--slope": re.compile(r"^-?\d+/-?\d+$")}


def _glue_type_values(argv: list[str]) -> list[str]:
    """Join '--type -5,7' into '--type=-5,7' and '--slope -1/2' into
    '--slope=-1/2' so argparse does not read the leading minus as an
    option prefix."""
    out: list[str] = []
    for tok in argv:
        pattern = _NEGATIVE_VALUES.get(out[-1]) if out else None
        if pattern and pattern.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_type_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to 1, keep 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (LissbraidError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
