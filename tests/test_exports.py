"""Every name a module of the package exports must exist."""

import importlib
import pkgutil

import pytest

import incpca

MODULES = ["incpca"] + [
    f"incpca.{info.name}" for info in pkgutil.iter_modules(incpca.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
