"""Checks on the package source itself."""

import ast
from pathlib import Path

import oplattice

SOURCES = sorted(Path(oplattice.__file__).parent.glob("*.py"))


def test_sources_were_found():
    assert any(path.name == "algebra.py" for path in SOURCES)


def test_no_assert_statements_in_the_package():
    # invariants raise NumericalError: `assert` disappears under `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
