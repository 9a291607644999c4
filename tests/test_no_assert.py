"""Invariants must survive ``python -O``: no ``assert`` in the package."""
import ast
from pathlib import Path

import dualcalc


def test_package_has_no_assert():
    found = []
    for path in sorted(Path(dualcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
