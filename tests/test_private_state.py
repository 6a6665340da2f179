"""No module of `src/limclose` reads or writes another object's private
state: every attribute `X._name` (one leading underscore, not a dunder)
is read off `self` or `cls`.  An answer kept on an object is reached
through that object's own methods (`once`, `canonical`, ...)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "limclose"


def foreign_private_accesses():
    """(file, line, source text) of every private attribute of an object
    other than self or cls."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append((path.name, node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_touches_another_objects_private_state():
    assert foreign_private_accesses() == []
