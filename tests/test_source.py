"""Checks on the package source itself."""

import ast
from pathlib import Path

import qdynlearn

SOURCES = sorted(Path(qdynlearn.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # Checks must be real exceptions: `python -O` strips assert statements.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []
