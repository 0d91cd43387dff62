"""Workloads of the ifpclosed benchmark, their inputs and their output checks.

Every workload is a closed loop with one caller in one thread: the next
operation starts only when the previous one has returned.  A run repeats a
fixed unit of work, the *pass*; the inputs of pass ``k`` are drawn from
``random.Random(f"{name}/{seed}/{k}")``, so they depend only on the seed and
the pass index, never on how many passes fit into the measured time, and no
two passes of a run share their parameters (a result cache keyed on the
inputs gets no hits).  The program sees only the drawn numbers.

Parameters, wherever they are drawn, span the package's documented use:
rho ~ U(0.05, 0.08), gamma log-uniform on [0.5, 5] and y log-uniform on
[0.01, 100].  The README quickstart, the CLI defaults and every acceptance
check use rho = 0.08, gamma = 0.5, y = 3; the tests of ordinary use add
rho = 0.05, gamma in {1, 2, 5} and y in {0.01, 1, 100}.  For r > 0,
r ~ U(0, rho/2], which holds the documented r = 0.01 and 0.02 at
rho = 0.08.  Assets span a/y in [1e-12, 1e12], which reaches both the
branch point of W-1 (a -> 0) and its far tail.

Sizes come from documented use.  A grid pass is the 200-row sweep of the
command-line example in PAPER.md, and a point_mix pass is 200 points asked
one at a time.  Nothing in the program is per point_mix pass: the pass only
groups requests for timing, and every point_mix metric but ``wall_s`` is
per request.  ROADMAP's 1e5-row sweep is left out: a pass of it takes
about 9 s on a 2-core shared host, so a run holds two of them and the
host-speed scaling of ``run.py`` cannot follow the host within a pass:
across five seeds its wall time spread 0.27 scaled and 0.08 unscaled (IQR
over median), against 0.03 scaled at 200 rows.

grid_r0
    ``ifpclosed sweep c T jacobian hessian --r 0 --spacing log`` through
    ``ifpclosed.cli.main``, ``Scale.rows`` points over a/y in [1e-12, 1e12], CSV
    to a file.  Seed draws (rho, gamma, y) per pass.  Stresses the kernel,
    the closed-form inversion, the derivatives and the CSV writer (8 kernel
    calls and 4 ``h_closed_r0`` calls per row); bypasses ``h_numeric`` and
    ``grid_dp``.  Traffic: log a/y range, r = 0, all four output columns,
    batch.
grid_rpos
    ``ifpclosed sweep c T --spacing log`` over the same range with r > 0.
    Seed draws (rho, r, gamma, y) per pass.  Stresses ``h_numeric`` (2 calls
    per row, each a bracketed Newton inversion evaluating ``mu`` and
    ``mu_prime``); makes no kernel call, so a kernel-only change should not
    move it.  Traffic: log a/y range, r > 0, columns c and T, batch.
point_mix
    ``Scale.batch`` single-point requests per pass, each with its own seed-drawn
    (rho, r, gamma, y) -- r = 0 with probability 1/2 -- and a/y
    log-uniform on [1e-12, 1e12].  Each request computes what
    ``ifpclosed eval`` prints at t = 0, through the quickstart functions:
    ``validate``, ``h_closed_r0`` (r = 0), ``h_numeric``,
    ``h_approx_small_r``, ``consumption_path`` and
    ``consumption_derivatives`` (r = 0); no argparse, no printing.  Same
    layers as the grids, one scalar at a time with changing parameters, so
    per-call or per-parameter overhead of a batched rewrite shows here.
    Traffic: r = 0 and r > 0 mixed, per point.
verify_full
    ``ifpclosed.checks.run_level("full")`` per pass.  The only workload
    dominated by the validation oracles and the acceptance criteria (PCHIP
    value iteration in ``grid_dp``, RK4, Richardson differences, Simpson
    quadrature); the closed forms enter through ``lambert_wm1`` and the
    2500-point supermodularity loop.  Its inputs are the fixed acceptance
    grids, so the seed changes nothing.

Correctness: every row or request is checked, right after its pass, for the
shape the closed forms guarantee (finite, positive and increasing where they
must be).  A seed-sampled subset (every grid pass includes its a/y = 1e-12
and 1e12 rows) is also compared with the mpmath references in
``reference.py``; ``settle`` does that after the timed passes, so mpmath is
not loaded while the benchmark measures peak memory.  ``verify_full``
counts failing check rows.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

A_OVER_Y_MIN = 1e-12
A_OVER_Y_MAX = 1e12


@dataclass(frozen=True)
class Scale:
    """Size of one pass and of the checked sample."""

    rows: int = 200  # CSV rows per grid pass
    batch: int = 200  # requests per point_mix pass
    rows_checked: int = 6  # rows per grid pass, besides both ends, checked against mpmath
    requests_checked: int = 2  # requests per point_mix pass checked against mpmath


FULL = Scale()
TINY = Scale(rows=40, batch=40, rows_checked=40, requests_checked=40)

# Acceptance criterion 2's limit on the consumption gap (rho - r)/gamma * |dT|
# between two depletion times; ``reference.TOLERANCE`` holds the others.
GAP_TOLERANCE = 1e-9


@dataclass
class PassCheck:
    """Outcome of checking one pass: operations, failing ones, worst errors by output.

    ``jobs`` are the reference comparisons still to make, as (operation,
    label, name of the ``reference`` function, its arguments); ``settle``
    makes them.
    """

    attempted: int
    bad: set = field(default_factory=set)
    jobs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    csv_bytes: int = 0
    check_rows: int = 0
    first_error: str = ""

    @property
    def failed(self) -> int:
        return len(self.bad)

    def fail(self, op: int, why: str) -> None:
        self.bad.add(op)
        self.first_error = self.first_error or why


def settle(check: PassCheck) -> PassCheck:
    """Compare the sampled outputs of a checked pass with the mpmath references."""
    import reference  # loads mpmath, so not before the timed passes are over

    for op, label, func, args in check.jobs:
        errors, ok = getattr(reference, func)(*args)
        for name, err in errors.items():
            check.errors[name] = max(check.errors.get(name, 0.0), err)
        if not ok:
            check.fail(op, f"{label}: {errors}")
    check.jobs = []
    return check


def draw_params(rng: random.Random, positive_r: bool) -> tuple[float, float, float, float]:
    rho = rng.uniform(0.05, 0.08)
    gamma = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
    y = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
    r = 0.5 * rho * (1.0 - rng.random()) if positive_r else 0.0
    return rho, r, gamma, y


class Workload:
    """One pass of fixed work: ``run_pass`` is timed, ``check_pass`` is not."""

    name = ""
    points_per_pass = 1

    def __init__(self, ifp, seed: int, scale: Scale, out_dir: str):
        self.ifp = ifp
        self.seed = seed
        self.scale = scale

    def rng(self, k: int, stream: str = "") -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}{stream}")

    def prepare(self, k: int):
        """Inputs of pass k, built before the clock starts."""
        return None

    def run_pass(self, inputs) -> tuple[object, list[float] | None]:
        """Do the pass; return its result and per-operation latencies in seconds, if any."""
        raise NotImplementedError

    def check_pass(self, k: int, inputs, result) -> PassCheck:
        raise NotImplementedError


class GridWorkload(Workload):
    """An ``ifpclosed sweep`` over the log a/y range, through ``cli.main``."""

    def __init__(self, ifp, seed, scale, out_dir, name, outputs, positive_r):
        super().__init__(ifp, seed, scale, out_dir)
        self.name = name
        self.outputs = outputs
        self.positive_r = positive_r
        self.points_per_pass = scale.rows
        self.csv_path = os.path.join(out_dir, f"{name}.csv")

    def prepare(self, k):
        rho, r, gamma, y = draw_params(self.rng(k), self.positive_r)
        argv = ["sweep", *self.outputs, "--rho", repr(rho), "--r", repr(r),
                "--gamma", repr(gamma), "--y", repr(y),
                "--a-min", repr(A_OVER_Y_MIN * y), "--a-max", repr(A_OVER_Y_MAX * y),
                "--n", str(self.scale.rows), "--spacing", "log", "--out", self.csv_path]
        return (rho, r, gamma, y), argv

    def run_pass(self, inputs):
        return self.ifp.cli.main(inputs[1]), None

    def check_pass(self, k, inputs, result):
        rows = self.scale.rows
        rho, r, gamma, y = inputs[0]
        check = PassCheck(attempted=rows)
        if result != 0 or not os.path.exists(self.csv_path):
            check.bad.update(range(rows))
            check.first_error = f"sweep exited with status {result}"
            return check
        check.csv_bytes = os.path.getsize(self.csv_path)
        with open(self.csv_path) as fh:
            header = fh.readline().strip().split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        expected = ["a", "c", "T"]
        if "jacobian" in self.outputs:
            expected += ["dc_da", "dc_dy", "d2c_da2", "d2c_dady", "d2c_dy2"]
        if header != expected or table.shape != (rows, len(expected)):
            check.bad.update(range(rows))
            check.first_error = "CSV header or shape differs from the request"
            return check
        col = {name: table[:, j] for j, name in enumerate(header)}
        grid = np.geomspace(A_OVER_Y_MIN * y, A_OVER_Y_MAX * y, rows)
        bad = ~np.isfinite(table).all(axis=1)
        bad |= ~np.isclose(col["a"], grid, rtol=1e-14, atol=0.0)
        bad |= ~(col["c"] > y) | ~(col["T"] > 0.0)
        bad[1:] |= ~(np.diff(col["c"]) > 0.0) | ~(np.diff(col["T"]) > 0.0)
        if "jacobian" in self.outputs:
            bad |= ~(col["dc_da"] > 0.0) | ~(col["dc_dy"] > 0.0)
            bad |= ~(col["d2c_da2"] < 0.0) | ~(col["d2c_dady"] > 0.0) | ~(col["d2c_dy2"] < 0.0)
        for i in np.flatnonzero(bad):
            check.fail(int(i), f"{self.csv_path} row {int(i) + 1}: out of shape")
        rng = self.rng(k, "/check")
        sample = sorted({0, rows - 1, *rng.sample(range(rows), min(rows, self.scale.rows_checked))})
        for i in sample:
            a = float(col["a"][i])
            label = f"{self.csv_path} row {i + 1}"
            if self.positive_r:
                args = (rho, r, gamma, y, a, float(col["T"][i]), float(col["c"][i]))
                check.jobs.append((i, label, "numeric_errors", args))
            else:
                out = {name: float(col[name][i]) for name in expected[1:]}
                check.jobs.append((i, label, "closed_r0_errors", (rho, gamma, y, a, out)))
        return check


_R0_KEYS = ("T", "T_numeric", "T_approx", "c", "dc_da", "dc_dy", "d2c_da2", "d2c_dady", "d2c_dy2")
_RPOS_KEYS = ("T_numeric", "T_approx", "c_numeric")


class PointMix(Workload):
    """Single-point requests through the quickstart API, one at a time."""

    name = "point_mix"

    def __init__(self, ifp, seed, scale, out_dir):
        super().__init__(ifp, seed, scale, out_dir)
        self.points_per_pass = scale.batch

    def prepare(self, k):
        rng = self.rng(k)
        requests = []
        for _ in range(self.scale.batch):
            rho, r, gamma, y = draw_params(rng, positive_r=rng.random() < 0.5)
            a = y * 10.0 ** rng.uniform(-12.0, 12.0)
            requests.append((rho, r, gamma, y, a))
        return requests

    def run_pass(self, inputs):
        ifp = self.ifp
        clock = time.perf_counter
        results, latencies = [], []
        for rho, r, gamma, y, a in inputs:
            t0 = clock()
            try:
                p = ifp.validate(ifp.ModelParams(rho=rho, r=r, gamma=gamma, y=y))
                if p.r == 0.0:
                    T_closed = ifp.h_closed_r0(p, a).T
                T_numeric = ifp.h_numeric(p, a).T
                T_approx = ifp.h_approx_small_r(p, a).T
                c = ifp.consumption_path(p, a, 0.0)
                if p.r == 0.0:
                    d = ifp.consumption_derivatives(p, a)
                    out = (T_closed, T_numeric, T_approx, c,
                           d.dc_da, d.dc_dy, d.d2c_da2, d.d2c_dady, d.d2c_dy2)
                else:
                    out = (T_numeric, T_approx, c)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            latencies.append(clock() - t0)
            results.append(out)
        return results, latencies

    def check_pass(self, k, inputs, result):
        check = PassCheck(attempted=len(inputs))
        sample = set(self.rng(k, "/check").sample(range(len(inputs)), min(len(inputs), self.scale.requests_checked)))
        for i, ((rho, r, gamma, y, a), out) in enumerate(zip(inputs, result)):
            keys = _R0_KEYS if r == 0.0 else _RPOS_KEYS
            if not isinstance(out, tuple) or len(out) != len(keys) or not all(map(math.isfinite, out)):
                check.fail(i, f"request {i}: {out!r}")
                continue
            got = dict(zip(keys, out))
            c = got["c"] if r == 0.0 else got["c_numeric"]
            shape_ok = got["T_numeric"] > 0.0 and got["T_approx"] > 0.0 and c > y
            if r == 0.0:
                # Criterion 2's consumption gap between the closed form and
                # the numeric inversion, on every request.
                shape_ok &= (rho / gamma) * abs(got["T"] - got["T_numeric"]) <= GAP_TOLERANCE
            if not shape_ok:
                check.fail(i, f"request {i}: {inputs[i]} -> {out}")
                continue
            if i not in sample:
                continue
            label = f"request {i}: {inputs[i]}"
            if r == 0.0:
                check.jobs.append((i, label, "closed_r0_errors", (rho, gamma, y, a, got)))
            else:
                check.jobs.append((i, label, "numeric_errors",
                                   (rho, r, gamma, y, a, got["T_numeric"], got["c_numeric"])))
                check.jobs.append((i, label, "approx_errors", (rho, r, gamma, y, a, got["T_approx"])))
        return check


class VerifyFull(Workload):
    """The full acceptance suite, as ``ifpclosed check --level full`` runs it."""

    name = "verify_full"

    def __init__(self, ifp, seed, scale, out_dir):
        super().__init__(ifp, seed, scale, out_dir)
        import ifpclosed.checks  # only this workload loads it, as only ``check`` does in the CLI

    def run_pass(self, inputs):
        return self.ifp.checks.run_level("full"), None

    def check_pass(self, k, inputs, result):
        check = PassCheck(attempted=max(len(result), 1), check_rows=len(result))
        if not result:
            check.fail(0, "no check rows")
        for i, row in enumerate(result):
            if not row.passed:
                check.fail(i, row.name)
        return check


def make(name: str, ifp, seed: int, scale: Scale, out_dir: str) -> Workload:
    if name == "grid_r0":
        return GridWorkload(ifp, seed, scale, out_dir, name, ("c", "T", "jacobian", "hessian"), False)
    if name == "grid_rpos":
        return GridWorkload(ifp, seed, scale, out_dir, name, ("c", "T"), True)
    if name == "point_mix":
        return PointMix(ifp, seed, scale, out_dir)
    if name == "verify_full":
        return VerifyFull(ifp, seed, scale, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid_r0", "grid_rpos", "point_mix", "verify_full")
