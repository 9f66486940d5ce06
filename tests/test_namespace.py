"""Every public name a module declares, and every name the package
namespace imports, exists: tools that walk ``__all__`` (the benchmark's
tracer among them) fail on a stale entry."""
import ast
import importlib
from pathlib import Path

import pytest

import qdecouple

MODULES = ["operators", "invariance", "geometry", "models", "synthesis", "simulator", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qdecouple.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _package_imports():
    tree = ast.parse(Path(qdecouple.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_exist():
    imports = _package_imports()
    assert imports
    for module, attr in imports:
        source = importlib.import_module(f"qdecouple.{module}")
        assert hasattr(source, attr), f"{module}.{attr}"
        assert getattr(qdecouple, attr) is getattr(source, attr)
