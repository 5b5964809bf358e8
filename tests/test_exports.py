"""Every name a module of the package exports exists and, but for a listed
few, has a caller in the package; the package imports itself only
relatively; no module or demo keeps an import it never uses, and no demo
imports a private name."""

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


# exported names that nothing in the package calls, each with the reason it stays
UNCALLED_EXPORTS = {
    "acceptance.run_all": "the bench harness (perfbench/run.py) runs the suite through it",
    "hull.continuity_diagnostic": "the y -> 0 limit behind the trace; composes on private zipper cells",
    "imaginary.solve_planar": "one-point flow with a capture time, which forward_map_grid cannot report",
    "real_line.solve_real_loewner": "the real-line flow itself; the bench tracer counts its calls",
}


def referenced(nodes) -> set[str]:
    """Every name, attribute and imported name that the statements mention."""
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
    return out


def binds(stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_export_but_the_listed_has_a_caller():
    # a public routine that only tests and demos call belongs in its demo;
    # the package's __init__ only re-exports, so it calls nothing
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    uncalled = []
    for mod, tree in trees.items():
        others = referenced(t for m, t in trees.items() if m != mod)
        for name in getattr(importlib.import_module(f"loewner.{mod}"), "__all__", ()):
            own = referenced(s for s in tree.body if not binds(s, name))
            if name not in others and name not in own:
                uncalled.append(f"{mod}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demos_import_no_private_name(path):
    private = [f"{path.name}:{node.lineno} {a.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loewner")
               for a in node.names if a.name.startswith("_")]
    assert not private
