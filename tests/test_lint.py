"""Source-level rules for the package."""

import ast
from pathlib import Path

import fuskit

SRC = Path(fuskit.__file__).parent


def test_no_assert_statements():
    # internal invariants raise FuskitError, which python -O cannot skip
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
