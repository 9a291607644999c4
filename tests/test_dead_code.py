"""Dead-code audits.

Every function or method the package defines is named somewhere in the
package besides its own ``def``.  A module-level function counts as named
only when some package module imports it from its module (a re-export in
``__init__.py`` counts), reads it as that module's attribute, or reads it in
its own module outside its ``def``; so a local variable of the same name
elsewhere does not keep it alive.  A method or nested function counts as
named when some package module reads its name, as a bare name or as an
attribute, outside its ``def``: a word in a docstring or comment does not
count.  The methods that argparse calls back (``_Parser.error`` and
``_Parser.print_help``) are exempt.  A name that only the tests use does not
count, and neither does a function's call to itself.

Every defaulted parameter is passed, by position or keyword, by some call
inside the package: a default that no call overrides is a constant dressed
as an option.  Calls are matched by name, so a call of any function of the
same name counts."""
import ast
from pathlib import Path

import dualcalc

PACKAGE = Path(dualcalc.__file__).parent

# defaults that callers outside the package supply: the console script calls
# main() and argparse's -h/--help action calls print_help()
OUTSIDE_CALLERS = {("cli.py", "main", "argv"), ("cli.py", "print_help", "file")}
# methods that only argparse calls: on a bad argument and on -h/--help
CALLBACKS = {("cli.py", "error"), ("cli.py", "print_help")}


def _module_level_reads(trees):
    """The (module, name) pairs that some module imports from that module or
    reads as its attribute, and per (module, name) the lines on which the
    module reads the bare name."""
    imported, reads = set(), {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                imported.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name):
                reads.setdefault((path.stem, node.id), []).append(node.lineno)
    return imported, reads


def _references(trees):
    """Per name, the (module path, line) of each ``Name`` or ``Attribute`` that reads it."""
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_definition_is_named_elsewhere():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    imported, reads = _module_level_reads(trees)
    refs = _references(trees)
    defs = []
    for path, tree in trees.items():
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and (path.name, node.name) not in CALLBACKS):
                defs.append((path, node, id(node) in top))
    unused = []
    for path, node, top in defs:
        name = node.name
        if top:
            named = (path.stem, name) in imported or any(
                not node.lineno <= line <= node.end_lineno
                for line in reads.get((path.stem, name), ()))
        else:
            named = any(where != path or not node.lineno <= line <= node.end_lineno
                        for where, line in refs.get(name, ()))
        if not named:
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"defined but never named elsewhere: {unused}"


def _defaulted(trees):
    """(file, function, parameter, positional index or None, names a call
    may use) for each defaulted parameter; the index does not count the self
    or cls of a method, and a constructor is also called by its class name."""
    out = []
    for fname, tree in trees.items():
        owner = {child: node for node in ast.walk(tree)
                 for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner[node] if isinstance(owner[node], ast.ClassDef) else None
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            names = {node.name} | ({cls.name} if node.name == "__init__" else set())
            a = node.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], first):
                out.append((fname, node.name, arg.arg, i - skip, names))
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    out.append((fname, node.name, arg.arg, None, names))
    return out


def test_every_default_is_passed_somewhere():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    calls = [n for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Call)]

    def passes(call, names, param, index):
        f = call.func
        if getattr(f, "id", getattr(f, "attr", None)) not in names:
            return False
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if any(isinstance(x, ast.Starred) for x in call.args):
            return True
        return index is not None and len(call.args) > index

    unpassed = [f"{fname} {func}({param})"
                for fname, func, param, index, names in _defaulted(trees)
                if (fname, func, param) not in OUTSIDE_CALLERS
                and not any(passes(c, names, param, index) for c in calls)]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_no_exported_function_carries_a_bare_lru_cache():
    # an exported memo goes through partitions.typed_cache, which checks the
    # argument types before the lookup; a bare lru_cache keys 2.0 as 2, so
    # its answer to a float would depend on what the process cached first
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {(node.module, a.name) for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    bare = []
    for module in {m for m, _ in exported}:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (module, node.name) in exported:
                for d in node.decorator_list:
                    f = d.func if isinstance(d, ast.Call) else d
                    if getattr(f, "id", getattr(f, "attr", None)) == "lru_cache":
                        bare.append(f"{module}.{node.name}")
    assert exported and not bare, f"exported functions under a bare lru_cache: {bare}"
