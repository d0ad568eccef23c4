"""Source guards over the library modules, read as syntax trees.

No `assert` statements: `python -O` strips them, and every certificate in
the library must fire under any interpreter flag.  No unused imports: a
name imported and never read is dead code.
"""

import ast
from pathlib import Path

import pytest

import lietrace

MODULES = sorted(p for p in Path(lietrace.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
