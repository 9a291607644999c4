"""Dead-code audit: every function or method the package defines is named
somewhere in the package besides its own ``def``.  A re-export in
``__init__.py`` counts; a name that only the tests use does not."""
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
        for node in ast.walk(ast.parse(texts[path], str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((path.name, node.lineno, node.name))
    # a name defined more than once must be named more often than it is defined
    per_name = Counter(name for _f, _l, name in defs)
    unused = []
    for fname, line, name in defs:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if sum(len(word.findall(t)) for t in texts.values()) <= per_name[name]:
            unused.append(f"{fname}:{line} {name}")
    assert not unused, f"defined but never named elsewhere: {unused}"
