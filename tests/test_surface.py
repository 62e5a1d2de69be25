"""The package exports only what something uses, and exports what it imports.

A name in transient_lab.__all__ must be referenced somewhere in src/ other
than __init__.py and its own definition, or in the acceptance suite; a name
that only its own unit tests call is a cost with no caller.
"""

import ast
from pathlib import Path

import transient_lab

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "transient_lab"


def _referenced_names(path):
    """Every identifier path reads or imports: names, attributes, import aliases.
    A def or class statement's own name is none of these."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    used = _referenced_names(ROOT / "tests" / "test_acceptance.py")
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(path)
    assert sorted(set(transient_lab.__all__) - used) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(transient_lab.__all__) == len(set(transient_lab.__all__))
    assert set(transient_lab.__all__) == imported
