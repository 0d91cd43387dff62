"""Public surface: every ``__all__`` entry exists and every package re-export is listed.

Also the layering: each module imports only modules before it in ``MODULES``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ifpclosed

# kernel -> model -> depletion map -> consumption -> figures -> validation -> checks -> cli
MODULES = ("special_functions", "model_core", "depletion_map", "consumption", "figures",
           "validation", "checks", "cli")


def test_every_module_is_layered():
    package = Path(ifpclosed.__file__).parent
    assert set(MODULES) == {path.stem for path in package.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ifpclosed.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_public_surface_does_not_grow():
    # the module ``__all__`` total is a tracked number that should only go down
    assert sum(len(importlib.import_module(f"ifpclosed.{m}").__all__) for m in MODULES) <= 28


def test_source_does_not_grow():
    # the line count of ``src/``, like the ``__all__`` total, should only go down
    package = Path(ifpclosed.__file__).parent
    assert sum(path.read_text().count("\n") for path in package.glob("*.py")) <= 1830


# The functions whose spans ``perfbench/spans.py``'s ``layer_metrics`` reads by
# name: under another name its metric would read 0, so each stays public.
METRIC_FUNCTIONS = {
    "special_functions": ("wm1_neg_exp_offset",),
    "depletion_map": ("mu", "h_numeric", "h_closed_r0"),
    "consumption": ("consumption_derivatives",),
    "model_core": ("validate",),
    "validation": ("grid_dp", "simulate_assets", "fd_gradient", "fd_hessian"),
}
# ``layer_metrics`` reads criterion n's time off the nth of these
CRITERION_FUNCTIONS = (
    "check_lambert_kernel", "check_closed_vs_numeric", "check_jacobian", "check_hessian",
    "check_feasibility_rk4", "check_value_bound", "check_small_r", "check_discrete_model",
    "check_figures",
)


@pytest.mark.parametrize("name", sorted(METRIC_FUNCTIONS))
def test_metric_functions_are_public(name):
    module = importlib.import_module(f"ifpclosed.{name}")
    for function in METRIC_FUNCTIONS[name]:
        assert inspect.isfunction(getattr(module, function, None)), function
        assert function in module.__all__, function


def test_criterion_functions_keep_their_names():
    # public through ``CRITERIA``, which holds criterion n's function under key n
    from ifpclosed import checks

    assert list(checks.CRITERIA) == list(range(1, 10))
    for (_, fn), name in zip(checks.CRITERIA.values(), CRITERION_FUNCTIONS):
        assert inspect.isfunction(fn) and getattr(checks, name, None) is fn, name


def test_package_reexports_are_listed():
    tree = ast.parse(Path(ifpclosed.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ifpclosed.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    assert unlisted == []


def test_lazy_reexports_import_and_fail_like_attributes():
    # the oracles, the CRRA utility and the value bound among them, have one home,
    # ``ifpclosed.validation``, and the discrete model and figure rows one,
    # ``ifpclosed.figures``; the package re-exports none of them
    assert "__getattr__" not in vars(ifpclosed)
    with pytest.raises(ImportError):
        from ifpclosed import grid_dp  # noqa: F401
    with pytest.raises(ImportError):
        from ifpclosed import discrete_policy  # noqa: F401
    with pytest.raises(ImportError):
        from ifpclosed import crra_utility  # noqa: F401
    with pytest.raises(ImportError):
        from ifpclosed import _value_upper_bound  # noqa: F401
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


def test_no_module_imports_dataclasses():
    # the records are named tuples: dataclasses would load inspect, ast, dis and tokenize
    package = Path(ifpclosed.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


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
