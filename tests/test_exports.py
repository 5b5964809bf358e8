"""Every name a module of the package exports exists."""

import importlib
import pkgutil

import pytest

import loewner

MODULES = sorted(m.name for m in pkgutil.iter_modules(loewner.__path__, "loewner."))


def test_modules_found():
    assert "loewner.real_line" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks ``from <module> import *`` only
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
