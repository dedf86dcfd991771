import ast
import doctest
import pathlib

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
