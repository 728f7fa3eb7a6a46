"""Every public name the package promises resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import optaccel

MODULES = sorted(p.stem for p in Path(optaccel.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"optaccel.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"optaccel.{name}.__all__ names {missing}"


def _reexports():
    tree = ast.parse(Path(optaccel.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module,name", _reexports())
def test_package_reexport_resolves(module, name):
    source = importlib.import_module(f"optaccel.{module}")
    assert name in source.__all__, f"{name} is not in {module}.__all__"
    assert getattr(optaccel, name) is getattr(source, name)
