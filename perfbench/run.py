"""Benchmark of ifpclosed: grid sweeps at r = 0 and r > 0, a point-evaluation mix
and the full acceptance check.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_r0 --seed 1 --seconds 15 --trace 0

The workloads are described in ``workloads.py``.  The run imports the
package from ``src/``, runs one warm-up pass, then repeats timed passes until
``--seconds`` of pass time have been measured, checking every pass outside
the timed region; the comparisons with the mpmath references in
``reference.py`` come after the last pass.  It prints one
line per metric, then, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``spans.py``) with ``--trace 1``.
Spans of the first traced pass and a copy of the result, with the
interpreter, library versions and CPU, go to ``.perfbench_out/``.
Exit status: 0 when every output is correct, 1 when one is not, 2 when the
package cannot be found or the arguments are wrong.

End-to-end metrics (``--trace 0``):
    setup_s         median over fresh interpreters of the time from spawning
                    ``python -c "import ifpclosed"`` to the end of the import
    wall_s          median time of one pass (one sweep, one batch of
                    requests, one full check)
    points_per_s    CSV rows, requests or full checks completed per second
    latency_p50_us  median latency per point: each request timed alone; a
                    sweep's or a check's time divided by its points
    peak_rss_mb     peak resident memory of the benchmark process up to the
                    end of the timed passes: the interpreter, the package
                    and what it imports, the program's working set, and the
                    benchmark's inputs, CSV reader and held check samples;
                    not mpmath, which the reference checks load afterwards
Every end-to-end time is scaled to a reference host speed.  The speed of a
shared host drifts by tens of percent over minutes, and the drift moves
every workload alike, so a fixed pure-Python calibration loop runs right
before and right after each pass and each set-up subprocess, and the time is
multiplied by CALIBRATION_REF_S / (mean loop time): the figures read as if
the loop took 1 ms.  The unscaled figures and the speed are printed and kept
in the result file.

Printed above the JSON line but not part of it: the unscaled timings; the
p99 latency with its sample count ("n/a" below 100 samples); failed_frac;
and max_rel_err, the worst relative error against the mpmath reference, by
output.

Per-layer metrics (``--trace 1``): each round runs pass k untraced and then
traced; counts come from the first traced pass, so they repeat exactly for
a seed, and times are averaged over all traced passes.  ``trace.overhead_s``
is the traced minus the untraced median pass time.  ``import.*`` are summed
self times of ``python -X importtime -c "import ifpclosed"``.
"""

from __future__ import annotations

import os

THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_LIMITS)  # before numpy is first imported

import argparse
import glob
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 7
IMPORT_RUNS = 3
CALIBRATION_REF_S = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "latency_p50_us": "us",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    return {**os.environ, **THREAD_LIMITS, "PYTHONPATH": str(SRC)}


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def setup_times(runs: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of ``import ifpclosed``.

    Returns the times and the host speed around each (see ``calibration_s``).
    """
    times, speeds = [], []
    for _ in range(runs):
        before = calibration_s()
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = _python("-c", "import time, ifpclosed; print(repr(time.perf_counter()))")
        times.append(float(proc.stdout) - start)
        speeds.append(speed(before, calibration_s()))
    return times, speeds


def import_breakdown(runs: int) -> dict:
    """Median self time of the numpy, scipy and ifpclosed modules under ``-X importtime``."""
    samples = {"numpy": [], "scipy": [], "ifpclosed": []}
    for _ in range(runs):
        totals = dict.fromkeys(samples, 0.0)
        for line in _python("-X", "importtime", "-c", "import ifpclosed").stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = float(fields[0].split(":")[1])
            except ValueError:  # the header line
                continue
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += self_us * 1e-6
        for top, seconds in totals.items():
            samples[top].append(seconds)
    return {
        "import.scipy_s": statistics.median(samples["scipy"]),
        "import.numpy_s": statistics.median(samples["numpy"]),
        "import.ifpclosed_self_s": statistics.median(samples["ifpclosed"]),
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [Path(index, name).read_text().strip() for name in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{parts[0]} {parts[1]}"] = parts[2]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
    }


def import_package():
    if not (SRC / "ifpclosed" / "__init__.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ifpclosed
    import ifpclosed.cli

    return ifpclosed


class Tally:
    """Operations attempted and failed, and the worst error by output, over checked passes.

    Checks are kept until ``settle`` compares them with the references.
    """

    def __init__(self):
        self.checks: list[workloads.PassCheck] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict = {}
        self.first_error = ""

    def add(self, check: workloads.PassCheck) -> workloads.PassCheck:
        self.checks.append(check)
        return check

    def settle(self) -> None:
        for check in self.checks:
            workloads.settle(check)
            self.attempted += check.attempted
            self.failed += check.failed
            self.first_error = self.first_error or check.first_error
            for name, err in check.errors.items():
                self.errors[name] = max(self.errors.get(name, 0.0), err)
        self.checks = []


def timed_pass(wl: workloads.Workload, inputs, root=None):
    if root is None:
        start = time.perf_counter()
        result, latencies = wl.run_pass(inputs)
    else:
        with root():
            start = time.perf_counter()
            result, latencies = wl.run_pass(inputs)
    return time.perf_counter() - start, result, latencies


def warm_up(wl: workloads.Workload, tally: Tally) -> None:
    inputs = wl.prepare(-1)
    tally.add(wl.check_pass(-1, inputs, wl.run_pass(inputs)[0]))


def calibration_s() -> float:
    """Time of a fixed loop of scalar float math in Python: the host-speed probe."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 4001):
        x = 1.0 / i
        total += math.log1p(x) * math.exp(-x)
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Scale factor for a time measured between two calibration loops."""
    return 2.0 * CALIBRATION_REF_S / (before + after)


def _timings(passes: list[float], samples, points: int) -> dict:
    return {
        "wall_s": statistics.median(passes),
        "points_per_s": points * len(passes) / sum(passes),
        "latency_p50_us": 1e6 * statistics.median(samples),
    }


def measure(wl: workloads.Workload, seconds: float, tally: Tally) -> dict:
    warm_up(wl, tally)
    passes, speeds, counts = [], [], []
    samples = array("d")  # per-point latencies in seconds, pass after pass
    k = 0
    while k == 0 or sum(passes) < seconds:
        inputs = wl.prepare(k)
        before = calibration_s()
        elapsed, result, latencies = timed_pass(wl, inputs)
        speeds.append(speed(before, calibration_s()))
        latencies = latencies if latencies is not None else [elapsed / wl.points_per_pass]
        passes.append(elapsed)
        samples.extend(latencies)
        counts.append(len(latencies))
        tally.add(wl.check_pass(k, inputs, result))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_speed = array("d", (s for s, n in zip(speeds, counts) for _ in range(n)))
    scaled = [t * s for t, s in zip(passes, speeds)]
    return {
        **_timings(scaled, [t * s for t, s in zip(samples, pass_speed)], wl.points_per_pass),
        "peak_rss_mb": peak_rss_mb,
        "_passes": len(passes),
        "_raw": _timings(passes, samples, wl.points_per_pass),
        "_pass_s": passes,
        "_speed": speeds,
        "_tail": tail_latency(samples),
    }


def tail_latency(samples) -> str:
    """The p99 latency and its sample count, or n/a below 100 samples."""
    label = f"  {'latency_p99_us':<44s}"
    if len(samples) < 100:
        return f"{label} n/a  ({len(samples)} samples)"
    micros = 1e6 * statistics.quantiles(samples, n=100)[98]
    return f"{label} {micros:.6g} us  ({len(samples)} samples)"


def measure_traced(wl: workloads.Workload, seconds: float, tally: Tally, spans_path: str) -> dict:
    warm_up(wl, tally)
    untraced, traced = [], []
    first = every = first_rec = first_check = None
    k = 0
    while k == 0 or sum(untraced) + sum(traced) < seconds:
        inputs = wl.prepare(k)
        elapsed, result, _ = timed_pass(wl, inputs)
        untraced.append(elapsed)
        tally.add(wl.check_pass(k, inputs, result))
        rec = spans.SpanRecorder()
        rec.install()
        try:
            elapsed, result, _ = timed_pass(wl, inputs, rec.root)
        finally:
            rec.uninstall()
        traced.append(elapsed)
        check = tally.add(wl.check_pass(k, inputs, result))
        if first is None:
            first_rec, first_check = rec, check
            first, every = spans.Totals(rec.names), spans.Totals(rec.names)
            first.add(rec)
        every.add(rec)
        k += 1
    first_rec.save(spans_path)
    metrics = spans.layer_metrics(first, every, wl.points_per_pass, first_rec.dp_iterations)
    metrics["checks.rows"] = float(first_check.check_rows)
    metrics["cli.csv_bytes_per_point"] = first_check.csv_bytes / wl.points_per_pass
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["_passes"] = len(traced)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: workloads.Scale = workloads.FULL, out_dir: Path = OUT_DIR,
        setup_runs: int = SETUP_RUNS, import_runs: int = IMPORT_RUNS) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the human-readable lines."""
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    ifp = import_package()
    out_dir.mkdir(parents=True, exist_ok=True)
    setup, setup_raw = {}, None
    if trace:
        setup = import_breakdown(import_runs)
    else:
        times, speeds = setup_times(setup_runs)
        setup["setup_s"] = statistics.median(t * s for t, s in zip(times, speeds))
        setup_raw = statistics.median(times)
    wl = workloads.make(workload, ifp, seed, scale, str(out_dir))
    tally = Tally()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        measured = measure_traced(wl, seconds, tally, str(out_dir / f"spans-{tag}.npz"))
        units = spans.PER_LAYER_UNITS
    else:
        measured = measure(wl, seconds, tally)
        units = END_TO_END_UNITS
    tally.settle()
    values = {**setup, **measured}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  passes {values['_passes']}"]
    lines += [f"  {name:<44s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    raw = None
    if "_raw" in values:
        raw = {"setup_s": setup_raw, **values["_raw"]}
        shown = ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        lines.append(f"  unscaled: {shown}  (host speed {statistics.median(values['_speed']):.4g})")
        lines.append(values["_tail"])
    lines.append(f"  {'failed_frac':<44s} {tally.failed / tally.attempted:.6g} ratio"
                 f"  ({tally.failed} of {tally.attempted})")
    if tally.first_error:
        lines.append(f"  first failure: {tally.first_error}")
    if tally.errors:
        worst = ", ".join(f"{name} {err:.2g}" for name, err in sorted(tally.errors.items()))
        lines.append(f"  {'max_rel_err':<44s} {max(tally.errors.values()):.6g} ratio  ({worst})")
    env = environment()
    lines.append("  env " + json.dumps(env, sort_keys=True))
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({**result, "max_rel_err": tally.errors, "raw": raw,
                    "pass_s": values.get("_pass_s"), "speed": values.get("_speed"),
                    "env": env}, indent=2, sort_keys=True) + "\n")
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
