"""Every name a freshkit module imports is used in that module or re-exported
through its __all__, every name in its __all__ is bound, and every import
statement sits at module level. Parsed with ast, so no linter is needed."""
import ast
import importlib
from pathlib import Path

import pytest

import freshkit

MODULES = sorted(Path(freshkit.__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imported_names_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported_names(tree)
    unused = [f"{path.name}:{line}: {name}" for line, name in _imported_names(tree)
              if name not in kept]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_exported_names_are_bound(path):
    # a stale __all__ entry breaks `from module import *`
    tree = ast.parse(path.read_text(), filename=str(path))
    module = importlib.import_module(f"freshkit.{path.stem}")
    unbound = sorted(name for name in _exported_names(tree) if not hasattr(module, name))
    assert not unbound, f"{path.name}: __all__ names unbound: " + ", ".join(unbound)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_sit_at_module_level(path):
    # a function-local import hides a dependency and runs again on every call
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert not nested, "imports below module level: " + ", ".join(nested)


def _defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_names_are_used(path):
    # a private helper nothing in its module reads is dead code
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{line}: {name}" for line, name in _defined_names(tree)
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, "private but never read: " + ", ".join(unread)
