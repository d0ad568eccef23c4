"""Source guards over the library modules, read as syntax trees.

No `assert` statements: `python -O` strips them, and every certificate in
the library must fire under any interpreter flag.  No unused imports: a
name imported and never read is dead code.  No orphaned private helpers: a
module-level `_name` function or class that nothing else in the package
refers to is dead code too.
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


def test_no_unreferenced_private_definitions():
    # each top-level statement of each module, with what it refers to; a
    # private definition counts as used only through some other statement,
    # so a helper that merely calls itself is still reported
    statements = [(path, stmt) for path in PACKAGE
                  for stmt in _tree(path).body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    orphans = []
    for k, (path, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
                and not any(stmt.name in r for j, r in enumerate(refs)
                            if j != k)):
            orphans.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert not orphans, f"unreferenced private definitions: {orphans}"
