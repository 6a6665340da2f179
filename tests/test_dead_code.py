"""Every function, method and class defined in `src/limclose` has a
production caller: some reference to its name in `src/`, `scripts/` or
`bench/` lies outside its own body.  Tests do not count, so a helper kept
alive only by its tests fails here; such a reference belongs in
`tests/oracles.py`.  Names are matched by their last component (a `Name`
or an attribute), so this is a necessary condition only."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION = ("src", "scripts", "bench")


def _sources():
    for top in PRODUCTION:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions(path, tree):
    """(qualified name, name, first line, last line) of every def and class
    in the module, nested ones included, dunders excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in
                                             node.decorator_list])
                yield f"{path.stem}.{name}", name, first, node.end_lineno


def _references(tree):
    """(name, line) of every name and attribute read in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced():
    refs = {}
    defs = []
    for path, tree in _sources():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
        if path.parent == ROOT / "src" / "limclose":
            defs += [(path, *d) for d in _definitions(path, tree)]
    return sorted(
        qual for path, qual, name, first, last in defs
        if not any(p != path or not first <= line <= last
                   for p, line in refs.get(name, ())))


def test_every_definition_has_a_production_caller():
    assert unreferenced() == []
