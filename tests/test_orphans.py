"""Every module-level private name of the package is used somewhere in the package.

A helper whose last caller is deleted otherwise lingers unnoticed, since
nothing outside its module may import it.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "botforge"


def _private_definitions(tree: ast.Module):
    """Names bound by the module's top-level defs, classes and assignments that start with one _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree: ast.Module):
    """Every name the module reads, looks up as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_orphan_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "simcore.py" in trees
    used = Counter(name for tree in trees.values() for name in _references(tree))
    orphans = [f"{module}: {name}" for module, tree in trees.items()
               for name in _private_definitions(tree) if not used[name]]
    assert orphans == []
