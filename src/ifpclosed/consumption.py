"""The consumption function and its exact derivatives.

Time path: c*(t) = y * e^((rho-r)(T-t)/gamma) while assets last (t <= T),
and c* = y forever after, where T = h(a; y) is the depletion time.  At
r = 0 the time-0 consumption function c*(a; y) = y * e^(rho*h(a;y)/gamma)
has Lambert-W closed forms for its Jacobian and Hessian in terms of
w = W-1(f(a; y)):

    dc/da   = (rho/gamma) * w/(1+w)
    dc/dy   = -w * (1 + (rho*a/(gamma*y)) / (1+w))
    d2c/da2 = -(rho^2/(gamma^2 y))    * w/(1+w)^3
    d2c/dady = (a rho^2/(gamma^2 y^2)) * w/(1+w)^3
    d2c/dy2 = -(rho^2 a^2/(gamma^2 y^3)) * w/(1+w)^3

Both MPCs are strictly positive, the Hessian diagonal is strictly negative
and the cross-derivative strictly positive (supermodularity), all because
w < -1 on the relevant domain.

``consumption_derivatives`` derives T, c and all five entries from one
branch offset 1 + w.

Also here: the discrete-time piecewise-linear policy built on the knot
sequence mu(k*delta), the unconstrained linear benchmark used for the
discrete-time figure overlay, and the rows of the two figure CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depletion_map import (
    _branch,
    best_depletion_time,
    h_approx_small_r,
    h_numeric,
    mu_discrete,
    step_growth_factor,
)
from .model_core import ModelParams, validate

__all__ = [
    "ConsumptionDerivatives",
    "PiecewiseLinearPolicy",
    "consumption_approx_small_r",
    "consumption_derivatives",
    "consumption_from_depletion_time",
    "consumption_path",
    "consumption_unconstrained",
    "discrete_policy",
    "figure_rows",
]


@dataclass(frozen=True)
class ConsumptionDerivatives:
    """Depletion time, level, Jacobian pair, and distinct Hessian entries at r = 0."""

    T: float
    c: float
    dc_da: float
    dc_dy: float
    d2c_da2: float
    d2c_dady: float
    d2c_dy2: float


@dataclass(frozen=True)
class PiecewiseLinearPolicy:
    """Discrete-time consumption function: linear between depletion knots.

    Knot k sits at assets mu(k*delta) with consumption y * G^k (G the
    per-step growth factor), so the policy is continuous, increasing, and
    piecewise linear with non-increasing slopes.  Evaluation is defined on
    [0, last knot].
    """

    knot_assets: np.ndarray
    knot_consumption: np.ndarray

    def __call__(self, a):
        arr = np.asarray(a, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > self.knot_assets[-1]):
            raise ValueError(
                f"policy evaluation outside [0, {self.knot_assets[-1]!r}]"
            )
        out = np.interp(arr, self.knot_assets, self.knot_consumption)
        return float(out) if np.isscalar(a) else out


def consumption_from_depletion_time(params: ModelParams, T: float, t: float = 0.0) -> float:
    """Consumption at time t given depletion time T: y*e^((rho-r)(T-t)/gamma), y past T.

    Single evaluation point for the time-path expression, so routes that
    must coincide (e.g. the small-r approximation at r = 0 against the
    exact closed form) coincide to the last bit when their T's do.
    """
    if t > T:
        return params.y
    return params.y * math.exp((params.rho - params.r) * (T - t) / params.gamma)


def consumption_path(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Optimal consumption at calendar time t >= 0 from initial assets a >= 0.

    Uses the best available depletion time (exact closed form at r = 0,
    numeric inversion otherwise); returns exactly y once t exceeds T.  At
    r = 0, t = 0 it is c*(a; y) = y * e^(rho*h(a;y)/gamma) = -y * W-1(f(a; y)).
    """
    if not t >= 0.0:
        raise ValueError(f"consumption_path: need t >= 0, got t={t}")
    return consumption_from_depletion_time(params, best_depletion_time(params, a).T, t)


def consumption_approx_small_r(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Time path evaluated with the small-r closed-form depletion time.

    Reduces exactly to ``consumption_path`` at r = 0.
    """
    if not t >= 0.0:
        raise ValueError(f"consumption_approx_small_r: need t >= 0, got t={t}")
    return consumption_from_depletion_time(params, h_approx_small_r(params, a).T, t)


def consumption_derivatives(params: ModelParams, a: float) -> ConsumptionDerivatives:
    """Depletion time, level, Jacobian and Hessian of c*(a; y) at r = 0, a > 0.

    Every entry is a few flops on one branch offset v = 1 + w, so the
    kernel runs once per point.  T and c are exactly ``h_closed_r0`` and
    ``consumption_path``; dc/da falls from +inf at a -> 0+ toward
    rho/gamma, and the Hessian has rank 1.  a = 0 is a domain error:
    w = -1 there and the MPC is unbounded.
    """
    if params.r != 0.0:
        raise ValueError(f"consumption_derivatives: requires r = 0, got r={params.r}")
    if not 0.0 < a < math.inf:
        raise ValueError(
            f"consumption_derivatives: need finite a > 0 (MPC unbounded at a = 0), got a={a}"
        )
    du, v, T = _branch(params, a)
    if v == 0.0:
        raise ValueError(f"consumption_derivatives: a={a} indistinguishable from the constraint")
    y, rho, gam = params.y, params.rho, params.gamma
    k0 = (rho * rho / (gam * gam * y)) * (v - 1.0) / (v * v * v)
    return ConsumptionDerivatives(
        T=T,
        c=consumption_from_depletion_time(params, T),
        dc_da=(rho / gam) * (v - 1.0) / v,
        dc_dy=(1.0 - v) * (1.0 + du / v),
        d2c_da2=-k0,
        d2c_dady=(a / y) * k0,
        d2c_dy2=-(a * a / (y * y)) * k0,
    )


def discrete_policy(params: ModelParams, delta: float, a_max: float) -> PiecewiseLinearPolicy:
    """Piecewise-linear discrete-time consumption function covering [0, a_max].

    Knots come from ``mu_discrete``, extended until the last knot reaches
    a_max; knot consumption is y * G^k; interior assets interpolate
    linearly between adjacent knot values.
    """
    if not 0.0 < a_max < math.inf:
        raise ValueError(f"discrete_policy: need finite a_max > 0, got {a_max}")
    n = 16
    knots = mu_discrete(params, delta, n)
    while knots[-1] < a_max:
        n *= 2
        if n > 2**24:
            raise RuntimeError("discrete_policy: knot count exploded before reaching a_max")
        knots = mu_discrete(params, delta, n)
    assets = knots[: int(np.searchsorted(knots, a_max, side="left")) + 1]
    growth = step_growth_factor(params, delta)
    cons = params.y * growth ** np.arange(assets.size)
    return PiecewiseLinearPolicy(knot_assets=assets, knot_consumption=cons)


def consumption_unconstrained(params: ModelParams, a: float) -> float:
    """Unconstrained linear benchmark kappa*(a + y/r), kappa = (rho + r*(gamma-1))/gamma.

    The standard deterministic CRRA policy when borrowing against the
    income stream y/r is allowed; requires r > 0.
    """
    if params.r <= 0.0:
        raise ValueError("consumption_unconstrained: requires r > 0 (y/r undefined at r = 0)")
    kappa = (params.rho + params.r * (params.gamma - 1.0)) / params.gamma
    return kappa * (a + params.y / params.r)


def figure_rows(
    params: ModelParams, which: int, grid: np.ndarray, delta: float
) -> tuple[list[str], list[tuple]]:
    """Rows for the two figure CSVs over the asset grid (consumption normalized by income).

    Figure 1 (requires r > 0): discrete piecewise-linear policy at step
    ``delta`` against the unconstrained linear benchmark; grid points
    nearest to a depletion knot are snapped onto the knot (in a copy of
    ``grid``) and flagged so the knots appear exactly in the emitted data.
    Figure 2: small-r closed-form approximation against the numerically
    inverted solution.
    """
    validate(params)
    y = params.y
    if which == 1:
        if params.r <= 0.0:
            raise ValueError("figure 1 requires r > 0 for the unconstrained overlay")
        grid = np.array(grid, dtype=float)
        a_min, a_max = grid[0], grid[-1]
        policy = discrete_policy(params, delta, a_max)
        flags = np.zeros(grid.size, dtype=int)
        for knot in policy.knot_assets:
            if a_min <= knot <= a_max:
                i = int(np.argmin(np.abs(grid - knot)))
                grid[i] = knot
                flags[i] = 1
        order = np.argsort(grid)
        grid, flags = grid[order], flags[order]
        header = ["a_over_y", "c_discrete_over_y", "c_unconstrained_over_y", "knot_flag"]
        rows = [
            (a / y, policy(a) / y, consumption_unconstrained(params, a) / y, int(f))
            for a, f in zip(grid, flags)
        ]
        return header, rows
    if which == 2:
        header = ["a_over_y", "c_closed_approx_over_y", "c_numeric_over_y"]
        rows = [
            (
                a / y,
                consumption_approx_small_r(params, a) / y,
                consumption_from_depletion_time(params, h_numeric(params, a).T) / y,
            )
            for a in grid
        ]
        return header, rows
    raise ValueError(f"unknown figure {which!r}; expected 1 or 2")
