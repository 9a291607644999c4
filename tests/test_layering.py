"""Layering audit: the exact kernels sit below the framed series.

The integer kernel, the dense series, partitions, the rational functions of
q with their lambda' expansions, the W values, the vertex and the
intersection and mirror modules import nothing from the framed-series
stack: the tau-series types (``series``), the partition-indexed series
(``pseries``), the Gaussian-rational view (``scalars``), the framed build
(``hodge``) or the Hurwitz series (``hurwitz``)."""
import ast
from pathlib import Path

import dualcalc

PACKAGE = Path(dualcalc.__file__).parent

LOWER = ("errors", "laurent", "dense", "partitions", "qfunc", "schur", "chern_simons",
         "vertex", "nilpotent", "mirror", "intersections")
UPPER = {"series", "pseries", "scalars", "hodge", "hurwitz"}


def _imports(tree):
    """The package modules that a module imports, relatively or as ``dualcalc.*``,
    at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("dualcalc."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 or parts[0] == "dualcalc":
                path = parts[node.level == 0:] if parts != [""] else []
                out.update(path[:1] or (a.name for a in node.names))
    return out


def test_lower_modules_import_nothing_from_the_framed_series_stack():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert set(LOWER) | UPPER <= set(trees)
    crossings = {(name, up) for name in LOWER for up in _imports(trees[name]) & UPPER}
    assert crossings == set()
