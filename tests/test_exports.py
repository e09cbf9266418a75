"""Every name a module exports in ``__all__`` exists on that module, so a
stale entry fails here rather than at ``from opschur import *``."""

import importlib
import pkgutil

import pytest

import opschur

MODULES = ["opschur"] + [
    f"opschur.{info.name}" for info in pkgutil.iter_modules(opschur.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
