"""numpy loads on the first array, never on ``import ifpclosed`` or a scalar call.

The fresh-interpreter checks run in a subprocess, since this one has numpy
loaded already.  The in-process checks pin the route each input type takes:
only an exact ``numpy.ndarray`` takes the array path.
"""

import os
import subprocess
import sys

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


def test_import_time_has_no_numpy_line():
    lines = run_fresh("import ifpclosed", "-X", "importtime").stderr.splitlines()
    assert any(line.rstrip().endswith("| ifpclosed") for line in lines)
    assert [line for line in lines if "numpy" in line] == []


@pytest.mark.parametrize("r", [0.0, 0.01])
def test_scalar_calls_load_no_numpy(r):
    code = f"""
import sys
from ifpclosed import *
from ifpclosed import cli
p = ModelParams(0.08, {r}, 0.5, 3.0)
lambert_wm1(-0.2), wm1_neg_exp_offset(0.3), mu(p, 2.0), mu_prime(p, 2.0)
h_approx_small_r(p, 3.0), h_numeric(p, 3.0), best_depletion_time(p, 3.0)
consumption_from_depletion_time(p, 2.0, 1.0), consumption_path(p, 3.0, 0.5)
consumption_approx_small_r(p, 3.0)
if p.r == 0.0:
    h_closed_r0(p, 3.0), consumption_derivatives(p, 3.0)
assert cli.main(["eval", "--r", "{r}", "--a", "3"]) == 0
print("numpy" in sys.modules)
"""
    assert run_fresh(code).stdout.splitlines()[-1] == "False"


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
    """Inputs reaching the array kernel, which only an exact ndarray takes."""
    original, calls = special_functions._wm1_offset_array, []

    def recorded(du):
        calls.append(du)
        return original(du)

    monkeypatch.setattr(special_functions, "_wm1_offset_array", recorded)
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
    "consumption_derivatives": lambda a: tuple(vars(consumption_derivatives(P0, a)).values()),
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
