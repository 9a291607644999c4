"""Dead-code audit: every function or method the package defines is named
somewhere in the package besides its own ``def``.  A re-export in
``__init__.py`` counts; a name that only the tests use does not, and
neither does a function's call to itself."""
import ast
import re
from collections import Counter
from pathlib import Path

import dualcalc

PACKAGE = Path(dualcalc.__file__).parent


def test_every_definition_is_named_elsewhere():
    texts = {p: p.read_text() for p in PACKAGE.glob("*.py")}
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path], str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                body = "\n".join(lines[node.lineno - 1:node.end_lineno])
                defs.append((path.name, node.lineno, node.name, body))
    per_name = Counter(name for _f, _l, name, _b in defs)
    unused = []
    for fname, line, name, body in defs:
        word = re.compile(rf"\b{re.escape(name)}\b")
        # namings outside this definition, less the other definitions' own lines
        outside = sum(len(word.findall(t)) for t in texts.values()) - len(word.findall(body))
        if outside <= per_name[name] - 1:
            unused.append(f"{fname}:{line} {name}")
    assert not unused, f"defined but never named elsewhere: {unused}"
