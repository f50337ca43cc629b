"""Every exported name resolves: each module's ``__all__`` and the package imports."""

import ast
import importlib
import importlib.util
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


ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = Path(sketchsolve.__file__).resolve()


def _uses(path: Path) -> set[str]:
    """Names a file uses: loads, attributes, imports and exact-name strings.

    Not uses: a definition (a ``def``, ``class`` or assignment target),
    an ``__all__`` entry, and the package's own re-exports.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exports = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    }
    entries = {id(elt) for node in ast.walk(tree) if id(node) in exports for elt in getattr(node, "elts", [])}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path != PACKAGE_INIT:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in entries:
            used.add(node.value)
    return used


def test_every_exported_name_is_used():
    files = [path for folder in ("src", "tests", "demos", "bench") for path in (ROOT / folder).rglob("*.py")]
    used = set().union(*(_uses(path) for path in files))
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"sketchsolve.{name}"), "__all__", [])
        if attr not in used
    ]
    assert not unused, f"exported but used nowhere: {unused}"


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
