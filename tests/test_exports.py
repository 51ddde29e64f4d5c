"""Every public name a module exports resolves, and no module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wpomdp

MODULES = sorted(m.name for m in pkgutil.iter_modules(wpomdp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wpomdp.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from wpomdp.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(wpomdp.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_top_level_import_is_used(path):
    # a deletion can leave its imports behind; __init__ imports to re-export
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    assert sorted(imported - used) == []
