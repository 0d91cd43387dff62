"""Smoke tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads


def _tiny(workload: str, trace: bool, out_dir: Path, seed: int = 7):
    return run.run(workload, seed, 0.01, trace, scale=workloads.TINY, out_dir=out_dir,
                   setup_runs=1, import_runs=1)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, lines = _tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = spans.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    printed = "\n".join(lines)
    assert all(f" {name} " in printed for name in units)
    json.dumps(result)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS


def test_traced_counts_repeat_and_bindings_are_restored(tmp_path):
    ifp = run.import_package()
    import ifpclosed.checks
    originals = (ifp.h_numeric, ifp.cli.main, ifp.checks.CRITERIA[1])
    first, _ = _tiny("point_mix", True, tmp_path)
    second, _ = _tiny("point_mix", True, tmp_path)
    counts = [name for name, unit in spans.PER_LAYER_UNITS.items() if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert (ifp.h_numeric, ifp.cli.main, ifp.checks.CRITERIA[1]) == originals


@pytest.mark.parametrize("workload", ["grid_r0", "grid_rpos"])
def test_check_flags_a_perturbed_csv_value(workload, tmp_path):
    wl = workloads.make(workload, run.import_package(), 3, workloads.TINY, str(tmp_path))
    inputs = wl.prepare(0)
    status, _ = wl.run_pass(inputs)
    assert workloads.settle(wl.check_pass(0, inputs, status)).failed == 0
    lines = Path(wl.csv_path).read_text().splitlines()
    row = lines[20].split(",")
    row[1] = f"{float(row[1]) * (1 + 1e-6):.17g}"  # column c
    lines[20] = ",".join(row)
    Path(wl.csv_path).write_text("\n".join(lines) + "\n")
    assert workloads.settle(wl.check_pass(0, inputs, status)).failed == 1


def test_check_flags_a_perturbed_point_result(tmp_path):
    wl = workloads.make("point_mix", run.import_package(), 3, workloads.TINY, str(tmp_path))
    inputs = wl.prepare(0)
    results, _ = wl.run_pass(inputs)
    assert workloads.settle(wl.check_pass(0, inputs, results)).failed == 0
    keys = workloads._R0_KEYS if inputs[5][1] == 0.0 else workloads._RPOS_KEYS
    out = dict(zip(keys, results[5]))
    c_key = "c" if "c" in out else "c_numeric"
    out[c_key] *= 1 + 1e-6
    results[5] = tuple(out.values())
    assert workloads.settle(wl.check_pass(0, inputs, results)).failed == 1


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_r0", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
