import ast
import doctest
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lissbraid"


def test_no_assert_statements_in_package():
    # python -O strips assert, so invariants that guard exactness must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


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
        "import contextlib, io, sys\n"
        "import lissbraid.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = lissbraid.cli.main(['classify', '--type', '4,-5', '--json'])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "from lissbraid.lissajous import normalize\n"
        "from lissbraid.shapetrace import epsilon_oracle\n"
        "epsilon_oracle(normalize(4, -5))\n"
        "print('numpy' in sys.modules)\n"
    ) == ["False", "0", "False", "True"]
