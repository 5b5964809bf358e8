"""Every name a module of the package exports exists, and the package imports
itself only relatively."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_package_imports_itself_only_relatively():
    # a side-by-side timing of two source trees loads each one under its own
    # package name; an absolute "loewner" import would reach the other tree
    absolute = []
    for path in sorted(Path(loewner.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno} {n}" for n in names
                         if n.split(".")[0] == "loewner"]
    assert not absolute
