"""Every name a module of the package exports exists, the package imports
itself only relatively, and no module or demo keeps an import it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import loewner

MODULES = sorted(m.name for m in pkgutil.iter_modules(loewner.__path__, "loewner."))
PACKAGE = Path(loewner.__file__).parent
DEMOS = PACKAGE.parents[1] / "demos"


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
    for path in sorted(PACKAGE.rglob("*.py")):
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


def unused_imports(path: Path) -> list[str]:
    """The names an import binds in ``path`` that no other line reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
                         + sorted(DEMOS.glob("*.py")), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    # the package's __init__ imports to re-export, so it is not checked
    assert not unused_imports(path)
