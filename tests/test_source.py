"""Source guards over the library modules, read as syntax trees.

No `assert` statements: `python -O` strips them, and every certificate in
the library must fire under any interpreter flag.  No unused imports: a
name imported and never read is dead code.  No orphaned private helpers: a
module-level `_name` function or class that nothing else in the package
refers to is dead code too, and so is a public top-level name that is
neither exported in `lietrace.__all__` nor read by another statement.
The pipeline, check and torus modules read matrices only through their
sparse rows: no dense view (`.entries`, `.row`, `.column`, `.columns`) and
no `m[i, j]` lookup.
"""

import ast
from pathlib import Path

import pytest

import lietrace

PACKAGE = sorted(Path(lietrace.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line, for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _referenced_names(node: ast.AST) -> set:
    """Names read inside node, bare (`_f`) or as attributes (`mod._f`)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined_names(stmt: ast.stmt) -> list:
    """Names a top-level statement defines: a function, a class or an
    assignment to plain names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _unreferenced(selected) -> list:
    """The top-level definitions of the names `selected` picks that no other
    top-level statement of the package refers to.  A definition counts as
    used only through some other statement, so a helper that merely calls
    itself is still reported."""
    statements = [(path, stmt) for path in PACKAGE
                  for stmt in _tree(path).body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    return [f"{path.name}:{stmt.lineno} {name}"
            for k, (path, stmt) in enumerate(statements)
            for name in _defined_names(stmt)
            if selected(name) and not any(name in r for j, r in enumerate(refs)
                                          if j != k)]


def test_no_unreferenced_private_definitions():
    orphans = _unreferenced(
        lambda name: name.startswith("_") and not name.startswith("__"))
    assert not orphans, f"unreferenced private definitions: {orphans}"


def test_no_unreferenced_public_definitions():
    orphans = _unreferenced(
        lambda name: not name.startswith("_") and name not in lietrace.__all__)
    assert not orphans, f"unreferenced public definitions: {orphans}"


SPARSE_ONLY = ["cecomplex.py", "lefschetz.py", "repn.py", "nilshadow.py",
               "torus_oracle.py", "catalog.py"]
DENSE_VIEWS = {"entries", "row", "column", "columns"}


@pytest.mark.parametrize("name", SPARSE_ONLY)
def test_no_dense_matrix_reads(name):
    path = Path(lietrace.__file__).parent / name
    reads = [f"line {node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS
             or isinstance(node, ast.Subscript)
             and isinstance(node.ctx, ast.Load)
             and isinstance(node.slice, ast.Tuple)]
    assert not reads, f"{name}: dense matrix reads {reads}"
