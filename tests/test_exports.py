"""Every exported name resolves: bench/tracer.py wraps each name in a
module's __all__ through getattr, and the package re-exports the modules'
names.  The tracer does not span `validate` until its own MODULES lists
it; the names `validate` exports are checked here all the same."""

import importlib
import inspect

import pytest

import hyplyap

MODULES = ("hypgeo", "surface", "diffusion", "cocycle", "lyapunov", "validate")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    mod = importlib.import_module(f"hyplyap.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_names_are_their_modules_objects():
    names = [name for name, obj in vars(hyplyap).items()
             if not name.startswith("_") and not inspect.ismodule(obj)]
    assert len(names) > 50
    for name in names:
        obj = getattr(hyplyap, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_package_names_are_in_their_modules_all():
    # bench/tracer.py spans only the names in a module's __all__
    missing = [name for name, obj in vars(hyplyap).items()
               if not name.startswith("_") and not inspect.ismodule(obj)
               and name not in getattr(importlib.import_module(obj.__module__), "__all__", ())]
    assert missing == []
