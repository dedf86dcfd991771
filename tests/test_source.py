import ast
import doctest
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from lissbraid import cli, verify
from lissbraid.algebra import Psl2Mat
from lissbraid.classify import LevelSlope, clusters_of
from lissbraid.errors import InvalidLabel
from lissbraid.report import build_report

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lissbraid"


def test_no_assert_statements_in_package():
    # python -O strips assert, so invariants that guard exactness must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_public_name_has_a_program_caller():
    # a public name or public method that no module of the package loads and
    # the benchmark does not name is reached by tests alone, so it belongs
    # under tests/
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    loaded = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.alias):
            loaded.add(node.name)
    # the benchmark's tracer names its targets as strings
    for path in (SRC.parent.parent / "perfbench").glob("*.py"):
        loaded.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    bound = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
            if isinstance(node, ast.ClassDef):  # and the methods of a top-level class
                bound += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    unused = sorted(name for name in bound if not name.startswith("_") and name not in loaded)
    assert not unused, unused


def test_readme_examples_run_as_doctests():
    result = doctest.testfile(str(SRC.parent.parent / "README.md"), module_relative=False)
    assert result.attempted > 0 and result.failed == 0, result


def _fresh_interpreter(code: str) -> list[str]:
    # this test process already holds numpy, so each check starts its own
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_numpy_is_loaded_only_by_the_float_code():
    assert _fresh_interpreter("import sys, lissbraid.verify; print('numpy' in sys.modules)") == ["False"]
    assert _fresh_interpreter(
        "import contextlib, io, sys, tempfile\n"
        "import lissbraid.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = lissbraid.cli.main(['classify', '--type', '4,-5', '--json'])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [lissbraid.cli.main(['plot', '--type', '4,-5', '--kind', 'shape',\n"
        "                                 '--format', fmt, '--out', f'{tmp}/shape.{fmt}'])\n"
        "             for fmt in ('svg', 'csv')]\n"
        "print(*codes, 'numpy' in sys.modules)\n"
        "from lissbraid.lissajous import normalize\n"
        "from lissbraid.shapetrace import epsilon_oracle\n"
        "epsilon_oracle([normalize(4, -5)])\n"
        "print('numpy' in sys.modules)\n"
    ) == ["False", "0", "False", "0", "0", "False", "True"]


def test_cli_import_leaves_verify_and_dataclasses_unloaded():
    # shapetrace stays a top-level import of the CLI: the benchmark's span
    # tracer wraps only the modules loaded once lissbraid.cli is imported,
    # so a lazy shapetrace would drop the figure spans of a traced run
    assert _fresh_interpreter(
        "import sys, lissbraid.cli\n"
        "print(*(name in sys.modules for name in\n"
        "        ('dataclasses', 'inspect', 'lissbraid.verify', 'lissbraid.shapetrace')))\n"
    ) == ["False", "False", "False", "True"]
    assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_value_types_keep_their_semantics():
    report = build_report(4, -5)
    values = [report.normalized, report.matrix, report.label, clusters_of(LevelSlope(1, 3, 2)),
              report.far_endpoint, report.cf, report]
    assert [type(v).__name__ for v in values] == [
        "NormalizedType", "Psl2Mat", "LevelSlope", "ClusterSeq", "QuadSurd", "CfExpansion", "Report"]
    for value in values:
        twin = type(value)(**value._asdict())  # the field names are the keywords
        assert twin is not value and twin == value and hash(twin) == hash(value) == hash(tuple(value))
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None
    assert repr(report) == (
        "Report(input_type=(4, -5), normalized=NormalizedType(m=4, n=-5, ell=3), p0=(4, -5), "
        "label=LevelSlope(level=2, p=1, q=0), frieze_h='dbd', frieze_w='dbdpqp', "
        "matrix=Psl2Mat(a=10, b=3, c=3, d=1), trace=11, trace_class='hyperbolic', "
        "dilatation_exact=QuadSurd(P=11, Q=2, D=117), far_endpoint=QuadSurd(P=3, Q=2, D=13), "
        "cf=CfExpansion(preperiod=(), period=(3,)), omega='+-+', "
        "syzygy_period='131323212131323212')")
    assert repr(values[3]) == "ClusterSeq(radii=(1, 2, 1, 2, 1), letters='bqpqbqpqb')"
    # the constructors check and normalize as before; a value also equals
    # the plain tuple of its fields
    assert Psl2Mat(0, -1, 1, 0) == (0, 1, -1, 0)
    with pytest.raises(ValueError, match=r"^determinant is not 1: \(1, 0, 0, 2\)$"):
        Psl2Mat(1, 0, 0, 2)
    for label, message in (((0, 1, 0), "bad label ranges: (N=0, 0/1)"),
                           ((1, 2, 2), "gcd(p, q) != 1: (N=1, 2/2)"),
                           ((1, 2, 1), "gcd(p + q, 6) != 1: (N=1, 1/2)")):
        with pytest.raises(InvalidLabel) as info:
            LevelSlope(*label)
        assert str(info.value) == message


def test_bench_tracer_targets_resolve():
    # the benchmark's span tracer patches each target without a default,
    # so a target removed from the package would crash a traced run
    # (run from its source text, so no bytecode is written under perfbench/)
    path = SRC.parent.parent / "perfbench" / "bench_trace.py"
    bench_trace = {"__name__": "bench_trace"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), bench_trace)
    assert bench_trace["TARGETS"]
    missing = []
    for name, modname, attr, _ in bench_trace["TARGETS"]:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert not missing, missing
