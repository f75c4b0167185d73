import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hse
from hse import tensorkit as tk

MODULES = ["hse"] + [f"hse.{info.name}" for info in pkgutil.iter_modules(hse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_root_binds_only_its_modules():
    names = [n for n in vars(hse) if not (n.startswith("__") and n.endswith("__"))]
    assert [n for n in names if not inspect.ismodule(getattr(hse, n))] == []


def _tensorkit_names_used(path: Path) -> set[str]:
    """Names a module takes from hse.tensorkit: imported from it, or read
    as attributes of the name it is imported as."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "tensorkit":
                used.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensorkit")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add(node.attr)
    return used


def test_every_tensorkit_export_has_a_caller_in_the_package():
    package = Path(hse.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "tensorkit.py":
            used |= _tensorkit_names_used(path)
    unused = set(tk.__all__) - used
    assert unused == set()
