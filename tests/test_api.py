"""Public surface: every ``__all__`` entry exists and every package re-export is listed.

Also the layering: each module imports only modules before it in ``MODULES``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ifpclosed

# kernel -> model -> depletion map -> consumption -> validation -> checks -> cli
MODULES = ("special_functions", "model_core", "depletion_map", "consumption",
           "validation", "checks", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ifpclosed.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_public_surface_does_not_grow():
    # the module ``__all__`` total is a tracked number that should only go down
    assert sum(len(importlib.import_module(f"ifpclosed.{m}").__all__) for m in MODULES) <= 41


def test_package_reexports_are_listed():
    tree = ast.parse(Path(ifpclosed.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ifpclosed.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    # the oracles' names resolve on first access, each to the one object in ``validation``
    validation = importlib.import_module("ifpclosed.validation")
    unlisted += [f"validation.{name}" for name in ifpclosed._VALIDATION_NAMES
                 if name not in validation.__all__]
    assert unlisted == []
    assert all(getattr(ifpclosed, name) is getattr(validation, name)
               for name in ifpclosed._VALIDATION_NAMES)


def test_lazy_reexports_import_and_fail_like_attributes():
    from ifpclosed import grid_dp

    assert grid_dp is ifpclosed.validation.grid_dp
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        ifpclosed.not_a_name
    with pytest.raises(ImportError):
        from ifpclosed import not_a_name  # noqa: F401


def test_parameters_validated_only_by_their_type():
    # ModelParams validates itself on construction, so no other module repeats it
    package = Path(ifpclosed.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "model_core":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "validate":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_earlier_layers(name):
    # every relative import, function-level ones such as cli's ``from . import checks`` too
    path = Path(ifpclosed.__file__).with_name(f"{name}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
    assert imported <= set(MODULES)
    assert [m for m in imported if MODULES.index(m) >= MODULES.index(name)] == []
