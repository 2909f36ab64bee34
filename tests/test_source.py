"""Rules on the source of the z2spec package, read from its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "z2spec"
MODULES = sorted(SRC.glob("*.py"))

# where a cache dict may be read or written: the owners' constructors create
# it, and rings._memo is the one memo rule (rings module docstring, "Caches")
CACHE_SITES = {
    ("rings.py", "FiniteRing.__init__"),
    ("rings.py", "_memo"),
    ("grading.py", "GradedRing.__init__"),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scoped_nodes(node: ast.AST, scope: str = ""):
    """(dotted name of the innermost enclosing def or class, node) pairs."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_only_memo_and_the_owner_constructors_touch_cache():
    seen, stray = set(), []
    for path in MODULES:
        for scope, node in _scoped_nodes(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                    or isinstance(node, ast.Name) and node.id == "_cache"):
                if (path.name, scope) in CACHE_SITES:
                    seen.add((path.name, scope))
                else:
                    stray.append(f"{path.name}:{node.lineno} in {scope or '<module>'}")
    assert stray == []
    assert seen == CACHE_SITES


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
