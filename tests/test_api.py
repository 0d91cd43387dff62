"""Public surface: every ``__all__`` entry exists and every package re-export is listed."""

import ast
import importlib
from pathlib import Path

import pytest

import ifpclosed

MODULES = ("special_functions", "model_core", "depletion_map", "consumption",
           "validation", "checks", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ifpclosed.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_listed():
    tree = ast.parse(Path(ifpclosed.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ifpclosed.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    assert unlisted == []
