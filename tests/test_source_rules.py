"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gcwidth").glob("*.py"))


def test_no_runtime_assert():
    # `python -O` strips assert statements, so checks must raise explicitly
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, f"assert statements in src: {found}"
