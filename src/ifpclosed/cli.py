"""Command-line front end: eval, sweep, figure, check.

All numeric output is printed with 17 significant digits so doubles
round-trip exactly; CSV files use a comma separator, one header row, LF
line endings.  Exit codes: 0 success, 1 check failure, 2 usage/validation
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .consumption import (
    ConsumptionDerivatives,
    consumption_derivatives,
    consumption_from_depletion_time,
)
from .depletion_map import best_depletion_time, h_approx_small_r, h_numeric
from .model_core import ModelParams

__all__ = ["main"]

# Output name -> its CSV columns, each a field of ``ConsumptionDerivatives``.
_COLUMNS = {
    "c": ("c",),
    "T": ("T",),
    "jacobian": ("dc_da", "dc_dy"),
    "hessian": ("d2c_da2", "d2c_dady", "d2c_dy2"),
}


def _sweep_grid(a_min: float, a_max: float, n: int, spacing: str = "linear") -> np.ndarray:
    """n asset points on [a_min, a_max], linear or log spaced; raises ValueError on a bad request."""
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise ValueError(f"sweep: need finite bounds, got [{a_min}, {a_max}]")
    if a_min < 0.0:
        raise ValueError(f"sweep: need a_min >= 0, got {a_min}")
    if not a_max > a_min:
        raise ValueError(f"sweep: need a_max > a_min, got [{a_min}, {a_max}]")
    if n < 2:
        raise ValueError(f"sweep: need n_points >= 2, got {n}")
    import numpy as np
    if spacing == "log":
        if a_min <= 0.0:
            raise ValueError("sweep: log spacing requires a_min > 0")
        return np.geomspace(a_min, a_max, n)
    if spacing != "linear":
        raise ValueError(f"sweep: unknown spacing {spacing!r}")
    return np.linspace(a_min, a_max, n)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: str | None, header: list[str], rows: list[tuple]) -> None:
    # The full payload is assembled before any byte is written, and files are
    # replaced atomically, so a failed run never leaves a partial CSV behind.
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    payload = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(rho=args.rho, r=args.r, gamma=args.gamma, y=args.y)


def cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from(args)
    a, t = args.a, args.t
    lines = [("a", a), ("t", t)]
    T_numeric = h_numeric(params, a).T
    # one kernel call: at r = 0 the small-r form is the exact one, bit for bit
    d = consumption_derivatives(params, a) if params.r == 0.0 and a > 0.0 else None
    T_approx = h_approx_small_r(params, a).T if d is None else d.T
    T = T_numeric
    if params.r == 0.0:
        T = T_approx
        lines.append(("T_exact_r0", T))
    lines.append(("T_numeric", T_numeric))
    lines.append(("T_approx_small_r", T_approx))
    lines.append(("c", consumption_from_depletion_time(params, T, t)))
    if d is not None:
        lines.extend(zip(d._fields[2:], d[2:]))  # the Jacobian and Hessian entries
    print("\n".join(f"{key}={_fmt(value)}" for key, value in lines))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np
    params = _params_from(args)
    grid = _sweep_grid(args.a_min, args.a_max, args.n, args.spacing)
    columns = [col for out in args.outputs for col in _COLUMNS[out]]
    pick = [ConsumptionDerivatives._fields.index(col) for col in columns]
    needs_derivs = "jacobian" in args.outputs or "hessian" in args.outputs
    rows = []  # built whole, so an error on any row (e.g. derivatives at r > 0) writes nothing
    # every overflow that matters raises a ValueError; numpy-scalar rows
    # would also print a RuntimeWarning for the intermediate that overflowed
    with np.errstate(over="ignore"):
        for a in grid:
            if needs_derivs:
                point = consumption_derivatives(params, a)
            else:  # the record's first two fields, T and c
                T = best_depletion_time(params, a).T
                point = (T, consumption_from_depletion_time(params, T))
            rows.append((a, *(point[i] for i in pick)))
    _write_csv(args.out, ["a", *columns], rows)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from .figures import figure_rows

    params = _params_from(args)
    a_max = args.a_max if args.a_max is not None else 10.0 * params.y
    grid = _sweep_grid(args.a_min, a_max, args.n, args.spacing)
    header, rows = figure_rows(params, args.which, grid, args.delta)
    _write_csv(args.out, header, rows)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import checks

    results = checks.run_level("full")
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{'FAIL' if failed else 'PASS'}: {len(results) - len(failed)}/{len(results)} checks")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--rho", type=float, default=0.08, help="discount rate (default 0.08)")
    shared.add_argument("--r", type=float, default=0.01, help="interest rate (default 0.01)")
    shared.add_argument("--gamma", type=float, default=0.5, help="risk aversion (default 0.5)")
    shared.add_argument("--y", type=float, default=3.0, help="permanent income (default 3)")

    parser = argparse.ArgumentParser(
        prog="ifpclosed",
        description="Closed-form consumption with a borrowing constraint: "
        "point evaluation, grid sweeps, figure data, and validation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate at a single point")
    p_eval.add_argument("--a", type=float, required=True, help="initial assets")
    p_eval.add_argument("--t", type=float, default=0.0, help="calendar time (default 0)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="grid sweep to CSV")
    p_sweep.add_argument(
        "outputs", nargs="+", choices=["c", "T", "jacobian", "hessian"], help="columns to emit"
    )
    p_sweep.add_argument("--a-min", type=float, default=0.0)
    p_sweep.add_argument("--a-max", type=float, default=30.0)
    p_sweep.add_argument("--n", type=int, default=101)
    p_sweep.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", parents=[shared], help="figure data to CSV")
    p_fig.add_argument("--which", type=int, choices=[1, 2], required=True)
    p_fig.add_argument("--delta", type=float, default=1.0, help="time step for figure 1")
    p_fig.add_argument("--a-min", type=float, default=0.0)
    p_fig.add_argument("--a-max", type=float, default=None, help="default 10*y")
    p_fig.add_argument("--n", type=int, default=201)
    p_fig.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p_fig.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_fig.set_defaults(func=cmd_figure)

    p_check = sub.add_parser("check", help="run the acceptance checks")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = getattr(exc, "filename", None)
        print(f"error: I/O failure{f' on {path}' if path else ''}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
