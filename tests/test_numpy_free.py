"""numpy loads on the first array, never on ``import ifpclosed`` or a scalar call.

The acceptance suite loads numpy but not ``numpy.random``.  The
fresh-interpreter checks run in a subprocess, since this one has numpy
loaded already.  The in-process checks pin the route each input type takes:
only an exact ``numpy.ndarray`` takes the array path.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest

import ifpclosed
from ifpclosed import (
    ModelParams,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
    h_closed_r0,
    h_numeric,
    special_functions,
    wm1_neg_exp_offset,
)

P0 = ModelParams(0.08, 0.0, 0.5, 3.0)
P1 = ModelParams(0.08, 0.01, 0.5, 3.0)


def run_fresh(code, *options):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ifpclosed.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *options, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out


def test_import_loads_no_numpy():
    assert run_fresh("import sys, ifpclosed\nprint('numpy' in sys.modules)").stdout == "False\n"


def test_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples; dataclasses would bring inspect and its compiler modules
    heavy = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    out = run_fresh(f"import sys, ifpclosed\nprint(sorted({heavy} & set(sys.modules)))")
    assert out.stdout == "[]\n"


def test_import_time_has_no_numpy_line():
    lines = run_fresh("import ifpclosed", "-X", "importtime").stderr.splitlines()
    assert any(line.rstrip().endswith("| ifpclosed") for line in lines)
    assert [line for line in lines if "numpy" in line] == []


@pytest.mark.parametrize(
    "argv,loaded",
    [([], False),
     (["eval", "--r", "0", "--a", "3"], False),
     (["sweep", "c", "T", "--r", "0.01", "--n", "3"], False),
     (["figure", "--which", "2", "--n", "3"], True),
     (["check"], True)],
    ids=["import", "eval", "sweep", "figure", "check"],
)
def test_only_figure_and_check_load_the_figures(argv, loaded):
    # the discrete model and the figure rows are no part of the closed forms
    code = f"""
import contextlib, io, sys
from ifpclosed import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert {argv!r} == [] or cli.main({argv!r}) == 0
print("ifpclosed.figures" in sys.modules)
"""
    assert run_fresh(code).stdout == f"{loaded}\n"


# the two closed forms that take r = 0 alone
ZERO_RATE_ONLY = ("h_closed_r0", "consumption_derivatives")


@pytest.mark.parametrize("r", [0.0, 0.01])
def test_scalar_calls_load_no_numpy(r):
    # every function the package exports, on floats: the parameters, and 2.0 for each other
    # argument (a, T, t or du); the first function after which numpy is loaded, if any, is named
    exported = sorted(n for n, f in vars(ifpclosed).items() if isinstance(f, types.FunctionType))
    code = f"""
import sys, types
import ifpclosed
from ifpclosed import ModelParams, cli
p = ModelParams(0.08, {r}, 0.5, 3.0)
called, loaded_by = [], None
for name, f in sorted(vars(ifpclosed).items()):
    if isinstance(f, types.FunctionType):
        params = p._replace(r=0.0) if name in {ZERO_RATE_ONLY!r} else p
        args = f.__code__.co_varnames[:f.__code__.co_argcount]
        f(*(params if arg == "params" else 2.0 for arg in args))
        called.append(name)
        if loaded_by is None and "numpy" in sys.modules:
            loaded_by = name
assert cli.main(["eval", "--r", "{r}", "--a", "3"]) == 0
print(called, "numpy" in sys.modules, loaded_by)
"""
    assert run_fresh(code).stdout.splitlines()[-1] == f"{exported} False None"
    assert "h_numeric" in exported and "wm1_neg_exp_offset" in exported


def test_the_acceptance_suite_loads_no_numpy_random():
    code = """
import sys
from ifpclosed import checks
assert all(row.passed for row in checks.run_level("full"))
print([name for name in ("numpy.random", "secrets") if name in sys.modules])
"""
    assert run_fresh(code).stdout == "[]\n"


def test_an_array_loads_numpy():
    code = """
import sys
from ifpclosed import ModelParams, consumption_path
consumption_path(ModelParams(0.08, 0.0, 0.5, 3.0), 3.0)
print("numpy" in sys.modules)
import numpy as np
print(consumption_path(ModelParams(0.08, 0.0, 0.5, 3.0), np.array([3.0])).tolist())
"""
    assert run_fresh(code).stdout == "False\n[5.031048175690952]\n"


@pytest.fixture
def array_kernel_calls(monkeypatch):
    """Inputs reaching the array kernel, which only an exact ndarray takes.

    The kernel entry and ``depletion_map._branch`` each call the array body by
    their own binding of it, so every ``ifpclosed`` binding is recorded.
    """
    original, calls = special_functions._wm1_offset_array, []

    def recorded(du):
        calls.append(du)
        return original(du)

    for name, module in list(sys.modules.items()):
        if name.startswith("ifpclosed") and getattr(module, "_wm1_offset_array", None) is original:
            monkeypatch.setattr(module, "_wm1_offset_array", recorded)
    return calls


def zero_d_memmap(tmp_path, value):
    mapped = np.memmap(tmp_path / "a.dat", dtype=float, mode="w+", shape=())
    mapped[()] = value
    return mapped


# each returns a tuple of its outputs
ENTRIES = {
    "wm1_neg_exp_offset": lambda a: (wm1_neg_exp_offset(a),),
    "h_closed_r0": lambda a: (h_closed_r0(P0, a).T,),
    "consumption_path": lambda a: (consumption_path(P0, a),),
    "consumption_derivatives": lambda a: tuple(consumption_derivatives(P0, a)),
    "h_numeric": lambda a: (h_numeric(P1, a).T,),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", ["int", "float64", "memmap"])
def test_scalars_and_subclasses_take_the_scalar_path(entry, kind, tmp_path, array_kernel_calls):
    x = {"int": 3, "float64": np.float64(3.0)}.get(kind)
    out = ENTRIES[entry](zero_d_memmap(tmp_path, 3.0) if kind == "memmap" else x)
    assert out == ENTRIES[entry](3.0)
    assert all(isinstance(v, float) for v in out)  # np.float64 is a float; no ndarray
    assert array_kernel_calls == []


@pytest.mark.parametrize("entry", ["wm1_neg_exp_offset", "h_closed_r0", "consumption_path",
                                   "consumption_derivatives"])
def test_a_0d_array_takes_the_array_path(entry, array_kernel_calls):
    out = ENTRIES[entry](np.array(3.0))
    assert all(type(v) is np.ndarray and v.shape == () for v in out)
    assert tuple(v.tolist() for v in out) == ENTRIES[entry](3.0)
    assert len(array_kernel_calls) == 1


def test_h_numeric_refuses_a_0d_array():
    with pytest.raises(ValueError, match="one point at a time"):
        h_numeric(P1, np.array(3.0))


def test_time_path_routes_by_either_argument(tmp_path):
    T = np.array([1.0, 2.0])
    assert type(consumption_from_depletion_time(P1, T, 0.5)) is np.ndarray
    assert type(consumption_from_depletion_time(P1, 2.0, np.array(0.5))) is np.ndarray
    scalar = consumption_from_depletion_time(P1, 2.0, 0.5)
    assert type(consumption_from_depletion_time(P1, 2, 0)) is float
    assert consumption_from_depletion_time(P1, zero_d_memmap(tmp_path, 2.0), 0.5) == scalar
