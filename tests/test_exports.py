"""Every public name the package promises resolves, and every test oracle
is in use."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import optaccel
from optaccel import problems

MODULES = sorted(p.stem for p in Path(optaccel.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"optaccel.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"optaccel.{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_defines_its_functions_and_classes(name):
    # one owner per name: a module exports only what it defines
    module = importlib.import_module(f"optaccel.{name}")
    values = [getattr(module, n) for n in getattr(module, "__all__", [])]
    foreign = [v.__qualname__ for v in values
               if (inspect.isfunction(v) or inspect.isclass(v))
               and v.__module__ != module.__name__]
    assert not foreign, f"optaccel.{name}.__all__ re-exports {foreign}"


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


@pytest.mark.parametrize("family", sorted(problems._FAMILIES))
def test_every_family_maker_is_exported(family):
    maker = problems._FAMILIES[family]
    assert maker.__name__ in problems.__all__
    assert getattr(optaccel, maker.__name__) is maker


def test_every_oracle_is_used_by_a_test():
    # a reference no test calls any more checks nothing
    import oracles
    tests = [p.read_text() for p in Path(__file__).parent.glob("test_*.py")]
    unused = [name for name, value in vars(oracles).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == "oracles"
              and not any(re.search(rf"\b{name}\b", text) for text in tests)]
    assert not unused, f"tests/oracles.py defines unused {unused}"
