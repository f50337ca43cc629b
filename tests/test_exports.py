"""Every exported name resolves: each module's ``__all__`` and the package imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sketchsolve

MODULES = sorted(info.name for info in pkgutil.iter_modules(sketchsolve.__path__))


def test_package_has_its_modules():
    expected = {"analysis", "cli", "config", "linalg", "reformulation", "sketching", "solvers", "validation"}
    assert expected <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sketchsolve.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in sketchsolve.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"sketchsolve.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(sketchsolve.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sketchsolve.{node.module}")
        for alias in node.names:
            bound = alias.asname or alias.name
            assert getattr(sketchsolve, bound) is getattr(module, alias.name), f"{node.module}.{alias.name}"
