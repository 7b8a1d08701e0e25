"""Every def and class in src/lensprod has a caller outside the tests, and
so does every class-level `name = property(...)` assignment.

A name counts as used when it appears as a bare name or an attribute,
other than as an assignment's target, anywhere in src/lensprod or
perfbench/*.py. Dunders, the names that
lensprod/__init__.py exports, and ALLOWED are exempt. A scan of names, not
of calls: a dead cluster that calls itself (as TruncPoly's arithmetic did,
each operator reached only through the others) escapes it, and so does any
definition that shares its name with a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lensprod"

ALLOWED = {
    "_make": "the NamedTuple hook behind _replace",
    "multiply": "README's documented ring API: products with Koszul signs",
    "image": "README's documented map API: restriction and reduction maps",
    "push": "README's documented map API: covering-projection pullbacks",
}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _is_property(value) -> bool:
    """value is a call of property(...), as in `name = property(lambda self: ...)`."""
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "property"


def test_every_definition_has_a_caller_outside_the_tests():
    sources = _trees(sorted(PACKAGE.glob("*.py")))
    used = set()
    for tree in sources + _trees(sorted((ROOT / "perfbench").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue  # an assignment defines its target, it does not use it
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = {
        node.name
        for tree in sources
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    } | {
        target.id
        for tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and _is_property(stmt.value)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    unused = defined - used - dunder - exported - ALLOWED.keys()
    assert not unused, f"defined in src/lensprod, called only by tests or nothing: {sorted(unused)}"
