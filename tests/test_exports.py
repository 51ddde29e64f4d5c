"""Every public name a module exports resolves."""

import importlib
import pkgutil

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
