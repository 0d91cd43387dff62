"""Span recorder for the traced benchmark run, and the per-layer metrics.

``SpanRecorder.install`` replaces every module-level binding of each public
function listed in ``LAYERS`` -- in the defining module, in every other
``ifpclosed`` module that imported it by name, and in module-level dicts
such as ``checks.CRITERIA`` -- with a wrapper that records one span (function,
parent span, start, end).  Spans stay in memory; ``save`` writes them out.
``uninstall`` restores the original bindings.  A function missing from the
package is skipped, so the recorder runs on any version of it.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its functions' spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "special_functions": (
        "wm1_neg_exp_offset", "lambert_wm1", "lambert_wm1_neg_exp", "lambert_w0",
        "wm1_initial_guess",
    ),
    "model_core": ("validate", "derived_constants", "crra_utility", "value_upper_bound"),
    "depletion_map": (
        "mu", "mu_prime", "h_numeric", "h_closed_r0", "h_approx_small_r",
        "best_depletion_time", "step_growth_factor", "mu_discrete",
    ),
    "consumption": (
        "consumption_from_depletion_time", "consumption_path", "consumption_now_r0",
        "consumption_approx_small_r", "jacobian_closed", "hessian_closed",
        "consumption_derivatives", "discrete_policy", "consumption_unconstrained",
    ),
    "validation": (
        "simulate_assets", "adaptive_simpson", "discounted_utility", "pdv_utility",
        "perturbed_path_values", "fd_gradient", "fd_hessian", "make_asset_grid",
        "grid_dp", "approximation_error_report",
    ),
    "checks": (
        "check_lambert_kernel", "check_closed_vs_numeric", "check_jacobian", "check_hessian",
        "check_feasibility_rk4", "check_value_bound", "check_small_r",
        "check_discrete_model", "check_figures", "run_criterion", "run_level",
    ),
    "cli": ("main", "cmd_eval", "cmd_sweep", "cmd_figure", "cmd_check", "sweep_grid", "figure_rows"),
}

CRITERION_FUNCTIONS = LAYERS["checks"][:9]  # criterion n is CRITERION_FUNCTIONS[n - 1]

ROOT = "pass"  # span covering one whole pass, opened by the benchmark


class SpanRecorder:
    def __init__(self):
        self.names = [ROOT]  # function id -> "layer.function"
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.dp_iterations: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _wrap(self, fn, fid: int):
        fids, parents, t0s, t1s, stack = self.fid, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()

        if fn.__name__ == "grid_dp":
            @functools.wraps(fn)
            def grid_dp_span(*args, **kwargs):
                solution = span(*args, **kwargs)
                self.dp_iterations.append(solution.iterations)
                return solution

            return grid_dp_span
        return span

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"ifpclosed.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    self.names.append(f"{layer}.{name}")
                    wrappers[id(fn)] = self._wrap(fn, len(self.names) - 1)
        for module_name, module in list(sys.modules.items()):
            if module_name != "ifpclosed" and not module_name.startswith("ifpclosed."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(id(x) in wrappers for x in entry):
                            value[key] = tuple(wrappers.get(id(x), x) for x in entry)
                            self._undo.append((value, key, entry))

    def _rebind(self, module, attr, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    @contextmanager
    def root(self):
        """Open the span of one pass; every recorded span descends from it."""
        idx = len(self.fid)
        self.fid.append(0)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        try:
            yield
        finally:
            self.t1[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict:
        return {
            "fid": np.asarray(self.fid, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "t0": np.asarray(self.t0),
            "t1": np.asarray(self.t1),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class Totals:
    """Per-function call counts, self time and total time over recorded passes."""

    def __init__(self, names: list[str]):
        self.names = names
        n = len(names)
        self.calls = np.zeros(n, dtype=np.int64)
        self.self_s = np.zeros(n)
        self.total_s = np.zeros(n)
        self.mu_in_h_numeric = 0
        self.passes = 0
        self.pass_s = 0.0

    def add(self, rec: SpanRecorder) -> None:
        arr = rec.arrays()
        fid, parent = arr["fid"], arr["parent"]
        dur = arr["t1"] - arr["t0"]
        n = len(self.names)
        child = np.zeros(fid.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.calls += np.bincount(fid, minlength=n)
        self.self_s += np.bincount(fid, weights=dur - child, minlength=n)
        self.total_s += np.bincount(fid, weights=dur, minlength=n)
        index = {name: i for i, name in enumerate(self.names)}
        mu, h_numeric = index.get("depletion_map.mu"), index.get("depletion_map.h_numeric")
        if mu is not None and h_numeric is not None:
            under = has_parent & (fid == mu)
            self.mu_in_h_numeric += int(np.count_nonzero(fid[parent[under]] == h_numeric))
        roots = fid == 0
        self.passes += int(np.count_nonzero(roots))
        self.pass_s += float(dur[roots].sum())

    def _get(self, array, name: str) -> float:
        return float(array[self.names.index(name)]) if name in self.names else 0.0

    def calls_of(self, name: str) -> float:
        return self._get(self.calls, name)

    def self_of(self, name: str) -> float:
        return self._get(self.self_s, name)

    def total_of(self, name: str) -> float:
        return self._get(self.total_s, name)

    def layer_self(self, layer: str) -> float:
        return sum(self.self_of(f"{layer}.{name}") for name in LAYERS[layer])


PER_LAYER_UNITS = {
    "special_functions.kernel_calls_per_point": "count",
    "special_functions.kernel_self_us_per_call": "us",
    "special_functions.self_share": "ratio",
    "depletion_map.h_numeric_calls_per_point": "count",
    "depletion_map.mu_evals_per_inversion": "count",
    "depletion_map.h_numeric_self_us_per_call": "us",
    "depletion_map.h_closed_r0_calls_per_point": "count",
    "depletion_map.self_share": "ratio",
    "consumption.derivative_calls_per_point": "count",
    "consumption.derivatives_self_us_per_call": "us",
    "consumption.self_share": "ratio",
    "model_core.validate_calls_per_point": "count",
    "model_core.self_share": "ratio",
    "validation.grid_dp_s": "s",
    "validation.grid_dp_iterations": "count",
    "validation.simulate_assets_s": "s",
    "validation.fd_self_s": "s",
    **{f"checks.criterion_{n}_s": "s" for n in range(1, 10)},
    "checks.rows": "count",
    "cli.self_share": "ratio",
    "cli.csv_bytes_per_point": "B",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.ifpclosed_self_s": "s",
    "trace.overhead_s": "s",
}

_DERIVATIVES = ("consumption.consumption_derivatives", "consumption.jacobian_closed",
                "consumption.hessian_closed")


def layer_metrics(first: Totals, every: Totals, points_per_pass: int, dp_iterations: list[int]) -> dict:
    """Per-layer metrics: counts from the first traced pass, times averaged over every traced pass.

    Counts per point divide by the points of one pass; times per call divide
    a summed self time by the matching call count; shares divide a layer's
    self time by the time of the passes; ``*_s`` figures are per pass.
    """
    def per_point(name: str) -> float:
        return first.calls_of(name) / points_per_pass

    def us_per_call(self_s: float, calls: float) -> float:
        return 1e6 * self_s / calls if calls else 0.0

    def share(layer: str) -> float:
        return every.layer_self(layer) / every.pass_s

    def per_pass(seconds: float) -> float:
        return seconds / every.passes

    derivative_calls = sum(every.calls_of(name) for name in _DERIVATIVES)
    h_numeric_calls = first.calls_of("depletion_map.h_numeric")
    out = {
        "special_functions.kernel_calls_per_point": per_point("special_functions.wm1_neg_exp_offset"),
        "special_functions.kernel_self_us_per_call": us_per_call(
            every.self_of("special_functions.wm1_neg_exp_offset"),
            every.calls_of("special_functions.wm1_neg_exp_offset")),
        "special_functions.self_share": share("special_functions"),
        "depletion_map.h_numeric_calls_per_point": per_point("depletion_map.h_numeric"),
        "depletion_map.mu_evals_per_inversion": (
            first.mu_in_h_numeric / h_numeric_calls if h_numeric_calls else 0.0),
        "depletion_map.h_numeric_self_us_per_call": us_per_call(
            every.self_of("depletion_map.h_numeric"), every.calls_of("depletion_map.h_numeric")),
        "depletion_map.h_closed_r0_calls_per_point": per_point("depletion_map.h_closed_r0"),
        "depletion_map.self_share": share("depletion_map"),
        "consumption.derivative_calls_per_point": per_point("consumption.consumption_derivatives"),
        "consumption.derivatives_self_us_per_call": us_per_call(
            sum(every.self_of(name) for name in _DERIVATIVES), derivative_calls),
        "consumption.self_share": share("consumption"),
        "model_core.validate_calls_per_point": per_point("model_core.validate"),
        "model_core.self_share": share("model_core"),
        "validation.grid_dp_s": per_pass(every.total_of("validation.grid_dp")),
        "validation.grid_dp_iterations": float(dp_iterations[0]) if dp_iterations else 0.0,
        "validation.simulate_assets_s": per_pass(every.total_of("validation.simulate_assets")),
        "validation.fd_self_s": per_pass(
            every.self_of("validation.fd_gradient") + every.self_of("validation.fd_hessian")),
        "cli.self_share": share("cli"),
    }
    for n, name in enumerate(CRITERION_FUNCTIONS, start=1):
        out[f"checks.criterion_{n}_s"] = per_pass(every.total_of(f"checks.{name}"))
    return out
