import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hse

MODULES = ["hse"] + [f"hse.{info.name}" for info in pkgutil.iter_modules(hse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_root_binds_only_its_modules():
    names = [n for n in vars(hse) if not (n.startswith("__") and n.endswith("__"))]
    assert [n for n in names if not inspect.ismodule(getattr(hse, n))] == []


def _names_read(path: Path) -> set[str]:
    """Names a module reads: loaded, read as an attribute or imported,
    leaving out what each top-level definition reads of its own name."""
    read = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def test_every_tensorkit_export_has_a_caller_in_the_package():
    """Every name in the __all__ of every module, tensorkit's included, is
    read by some module of the package outside its own definition."""
    read = set().union(*(_names_read(path) for path in Path(hse.__file__).parent.glob("*.py")))
    exports = [(name, n) for name in MODULES for n in getattr(importlib.import_module(name), "__all__", ())]
    assert [f"{name}.{n}" for name, n in exports if n not in read] == []
