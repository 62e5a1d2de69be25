"""The package exports only what something uses, and exports what it imports.

A name in transient_lab.__all__ must be referenced somewhere in src/ other
than __init__.py and its own definition, or in the acceptance suite; a name
that only its own unit tests call is a cost with no caller.  The package
also keeps to the numpy names that its declared floor, numpy 1.24, provides,
and rebinds no module global, so no call leaves hidden state for the next.
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


# every numpy name src/ uses, each present in numpy 1.24 (pyproject.toml's floor)
NUMPY_1_24_NAMES = {
    "abs", "add.reduce", "all", "any", "arange", "argmax", "array", "asarray",
    "ascontiguousarray", "column_stack", "concatenate", "copysign", "count_nonzero",
    "diff", "dot", "errstate", "exp", "eye", "finfo", "flatnonzero", "interp",
    "isfinite", "ldexp", "linalg.eigvals", "linalg.eigvalsh", "linalg.lstsq", "linalg.svd",
    "linspace",
    "loadtxt", "log", "matmul", "maximum", "maximum.reduce",
    "minimum.reduce", "multiply", "ndarray", "ndenumerate", "outer", "partition",
    "polynomial.legendre.leggauss", "polynomial.polynomial.polyder",
    "polynomial.polynomial.polyval",
    "random.default_rng", "round", "sort", "std", "subtract", "unique", "zeros",
    "zeros_like",
}


class _NumpyNames(ast.NodeVisitor):
    """Each np.<dotted name> read whole (np.linalg.svd, not also np.linalg),
    and each name a from-numpy import brings in, as module.name."""

    def __init__(self):
        self.names = set()

    def visit_Attribute(self, node):
        parts, root = [], node
        while isinstance(root, ast.Attribute):
            parts.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id == "np":
            self.names.add(".".join(reversed(parts)))
        else:
            self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and node.module.split(".")[0] == "numpy":
            self.names.update(f"{node.module}.{alias.name}" for alias in node.names)


def test_numpy_names_within_the_declared_floor():
    """The tests run on one numpy only, so a name added after 1.24 (such as
    np.vecdot, new in 2.0) would pass them and break every install on an
    older numpy.  Only names are checked: a keyword argument that an older
    numpy lacks goes unseen.  The list holds only names src/ uses, so a name
    that leaves src/ leaves it too, and its return is checked again."""
    visitor = _NumpyNames()
    for path in PACKAGE.glob("*.py"):
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    new = sorted(visitor.names - NUMPY_1_24_NAMES)
    assert new == [], (f"numpy names outside the checked list: {new}; check each against "
                       f"numpy 1.24 before adding it here, or raise the floor in "
                       f"pyproject.toml in the same change")
    stale = sorted(NUMPY_1_24_NAMES - visitor.names)
    assert stale == [], f"numpy names src/ no longer uses: {stale}; drop them from the list"


def test_every_imported_name_is_read():
    """No linter runs here, so this is the check for dead imports: a module
    reads every name it imports.  A name imported only so that other code
    can import it from there hides where it lives; that code imports it from
    its home instead.  __init__.py re-exports by design (__all__ above)."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unread == []


def test_no_module_rebinds_a_global():
    """A global statement lets one call leave state that changes the next
    call's work, out of sight of its arguments and of the tests that pass
    them."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []
