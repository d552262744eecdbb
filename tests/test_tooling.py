"""Repository-wide rules that are cheaper to check than to remember."""

import ast
from pathlib import Path

import lcmlattice

PACKAGE = Path(lcmlattice.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants are checked by code that raises a package error; an
    ``assert`` would vanish under ``python -O``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
