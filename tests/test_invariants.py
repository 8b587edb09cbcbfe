"""Invariant checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coamoeba"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"use InvariantError instead of assert: {found}"
