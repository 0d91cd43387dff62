"""The consumption function and its exact derivatives.

Time path: c*(t) = y * e^((rho-r)(T-t)/gamma) while assets last (t <= T),
and c* = y forever after, where T = h(a; y) is the depletion time.  At
r = 0 the time-0 consumption function c*(a; y) = y * e^(rho*h(a;y)/gamma)
has Lambert-W closed forms for its Jacobian and Hessian.  The paper writes
them in w = W-1(f(a; y)): dc/da = b*w/(1+w), dc/dy = -w*(1 + du/(1+w)) and
d2c/da2, d2c/dady, d2c/dy2 = (-1, a/y, -(a/y)^2) * (b^2/y)*w/(1+w)^3, with
b = rho/gamma and du = rho*a/(gamma*y).  ``consumption_derivatives``
evaluates them from one branch offset v = 1 + w < 0 through the bounded
factors q = (v-1)/v > 1 and s = du/v in (-1, 0):

    dc/da    = b*q
    dc/dy    = q*log1p(-v)            (v + du = -log1p(-v))
    d2c/da2  = -b^2/y * q/v^2
    d2c/dady = b/y * s*q/v
    d2c/dy2  = -s^2*q/y

so no entry forms (a/y)^2 or v^3 and dc/dy does not cancel.  An entry past
the double range (d2c/da2 at a = 1e-312, y = 1e-300) is a ValueError, never
inf; d2c/da2 and d2c/dady, ~1/v^2, underflow from a/y ~ 1e155.  Each inherits
v's error, which is at the rounding level on the whole branch: dc/da is off by
9.8e-17 at a = 1e-12 (rho 0.08, gamma 0.5, y 3).
Both MPCs are strictly positive, the Hessian diagonal is strictly negative
and the cross-derivative strictly positive (supermodularity), all because
w < -1 on the relevant domain.

Also here: the discrete-time piecewise-linear policy built on the knot
sequence mu(k*delta), the unconstrained linear benchmark used for the
discrete-time figure overlay, and the rows of the two figure CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .depletion_map import (
    _branch,
    _is_ndarray,
    best_depletion_time,
    h_approx_small_r,
    h_numeric,
    mu_discrete,
    step_growth_factor,
)
from .model_core import ModelParams

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
        import numpy as np
        arr = np.asarray(a, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= self.knot_assets[-1])):
            raise ValueError(f"policy evaluation outside [0, {float(self.knot_assets[-1])!r}]")
        out = np.interp(arr, self.knot_assets, self.knot_consumption)
        return float(out) if np.isscalar(a) else out


def consumption_from_depletion_time(params: ModelParams, T: float, t: float = 0.0) -> float:
    """Consumption at time t given depletion time T: y*e^((rho-r)(T-t)/gamma), y past T.

    Single evaluation point for the time-path expression, so routes that
    must coincide (e.g. the small-r approximation at r = 0 against the
    exact closed form) coincide to the last bit when their T's do, and the
    oracles in ``validation`` integrate the path that ships.  T, t or both may
    be ndarrays: they broadcast, and the result is exactly y wherever t > T.  A
    consumption past the double range is a ValueError on either path, never inf.
    """
    if not (isinstance(T, float) and isinstance(t, float)) and (_is_ndarray(T) or _is_ndarray(t)):
        import numpy as np
        with np.errstate(over="ignore"):
            c = params.y * np.exp((params.rho - params.r) * (T - t) / params.gamma)
        c = np.where(t > T, params.y, c)
        bad = ~((T >= 0.0) & (t >= 0.0)) | (c == math.inf)
        if bad.any():
            i = int(np.argmax(bad))
            T_i, t_i = (float(x.flat[i]) for x in np.broadcast_arrays(T, t))
            consumption_from_depletion_time(params, T_i, t_i)  # raises the scalar path's error
            raise _overflow(T_i, t_i)  # reached if math.exp lands an ulp inside the range
        return c
    if not (t >= 0.0 and T >= 0.0):
        raise ValueError(f"consumption_from_depletion_time: need t >= 0 and T >= 0, got {t}, {T}")
    if t > T:
        return params.y
    try:
        c = params.y * math.exp((params.rho - params.r) * (T - t) / params.gamma)
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise _overflow(T, t)
    return c


def _overflow(T: float, t: float) -> ValueError:
    return ValueError(
        f"consumption_from_depletion_time: y*e^((rho-r)(T-t)/gamma) overflows a double"
        f" at T={T}, t={t}"
    )


def consumption_path(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Optimal consumption at calendar time t >= 0 from initial assets a >= 0.

    Uses the best available depletion time (exact closed form at r = 0,
    numeric inversion otherwise); returns exactly y once t exceeds T.  At
    r = 0, t = 0 it is c*(a; y) = y * e^(rho*h(a;y)/gamma) = -y * W-1(f(a; y)).
    An ndarray a takes one array kernel call at r = 0 and is a ValueError at r > 0.
    """
    return consumption_from_depletion_time(params, best_depletion_time(params, a).T, t)


def consumption_approx_small_r(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Time path evaluated with the small-r closed-form depletion time.

    Reduces exactly to ``consumption_path`` at r = 0.  ``a`` may be an ndarray.
    """
    return consumption_from_depletion_time(params, h_approx_small_r(params, a).T, t)


def consumption_derivatives(params: ModelParams, a: float) -> ConsumptionDerivatives:
    """Depletion time, level, Jacobian and Hessian of c*(a; y) at r = 0, a > 0.

    Every entry is a few flops on one branch offset v = 1 + w (the forms in
    the module docstring), so the kernel runs once per point, or once per
    ndarray a (the fields are then arrays).  T and c are exactly ``h_closed_r0``
    and ``consumption_path``; dc/da falls from +inf at a -> 0+ toward rho/gamma,
    and the Hessian has rank 1.  a = 0 is a domain error: w = -1 there and the
    MPC is unbounded.  So is an entry past the double range: the ValueError
    names the first such entry and the first a where it overflows.
    """
    if params.r != 0.0:
        raise ValueError(f"consumption_derivatives: requires r = 0, got r={params.r}")
    du, v, log1p_neg_v, T = _branch(params, a)
    array = not isinstance(v, float) and _is_ndarray(v)
    if (v == 0.0).any() if array else v == 0.0:
        raise ValueError(f"consumption_derivatives: MPC unbounded at the constraint, a={a}")
    if array:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            # asarray: numpy turns 0-d arithmetic into scalars
            entries = [np.asarray(x) for x in _derivative_entries(params, du, v, log1p_neg_v)]
        finite = all(np.isfinite(x).all() for x in entries)
    else:
        entries = _derivative_entries(params, du, v, log1p_neg_v)
        finite = all(map(math.isfinite, entries))
    if not finite:
        import numpy as np
        for f, x in zip(fields(ConsumptionDerivatives)[2:], entries):
            bad = ~np.isfinite(x)
            if bad.any():
                at = np.asarray(a).flat[int(np.argmax(bad))]
                raise ValueError(f"consumption_derivatives: {f.name} overflows a double at a={at}")
    return ConsumptionDerivatives(T, consumption_from_depletion_time(params, T), *entries)


def _derivative_entries(params: ModelParams, du, v, log1p_neg_v) -> tuple:
    # the five forms of the module docstring, in the order of the fields after c
    y, b = params.y, params.rho / params.gamma
    q, s = (v - 1.0) / v, du / v
    return (b - b / v, q * log1p_neg_v, -b * b / y * q / v / v, b / y * s * q / v, -s * s * q / y)


def discrete_policy(params: ModelParams, delta: float, a_max: float) -> PiecewiseLinearPolicy:
    """Piecewise-linear discrete-time consumption function covering [0, a_max].

    Knots come from ``mu_discrete``, up to the first that reaches a_max;
    knot consumption is y * G^k; interior assets interpolate linearly
    between adjacent knot values.  Knot k lies within a few percent of
    mu(k*delta), so T(a_max)/delta sizes the sequence before any knot is
    built, and a_max needing more than 2**24 knots is a ValueError.
    """
    if not 0.0 < a_max < math.inf:
        raise ValueError(f"discrete_policy: need finite a_max > 0, got {a_max}")
    import numpy as np
    growth = step_growth_factor(params, delta)
    n = 1.1 * float(best_depletion_time(params, a_max).T) / delta + 16.0
    while n <= 2**24:
        knots = mu_discrete(params, delta, int(n))
        if knots[-1] >= a_max:
            assets = knots[: int(np.searchsorted(knots, a_max, side="left")) + 1]
            cons = params.y * growth ** np.arange(assets.size)
            return PiecewiseLinearPolicy(knot_assets=assets, knot_consumption=cons)
        n *= 2.0
    raise ValueError(f"discrete_policy: a_max={a_max} takes over 2**24 knots at delta={delta}")


def consumption_unconstrained(params: ModelParams, a):
    """Unconstrained linear benchmark kappa*(a + y/r), kappa = (rho + r*(gamma-1))/gamma.

    The standard deterministic CRRA policy when borrowing against the
    income stream y/r is allowed; requires r > 0.  ``a`` is a scalar or an
    array, and the result has its shape.
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
    ``delta`` against the unconstrained linear benchmark, over a copy of the
    strictly increasing ``grid``.  Every knot in [grid[0], grid[-1]] nominates
    its nearest grid point (the lower one on a tie); each nominated point
    moves onto the nearest knot that nominated it (the lower knot on a tie)
    and is flagged.  The rule reads only the original grid, so rows stay
    strictly increasing, each within half a neighbouring step of its point.
    A point's nearest nominating knot is one of the two knots around it, so
    the rule runs on those alone, in memory of the grid's size.
    Figure 2: small-r closed-form approximation against the numerically
    inverted solution.  A value past the double range (a/y at y < 1, say)
    is a ``ValueError`` naming its column and the first such a.
    """
    import numpy as np
    y = params.y
    if which == 1:
        grid = np.array(grid, dtype=float)  # a copy: the knots go into it
        policy = discrete_policy(params, delta, grid[-1])
        knots = policy.knot_assets
        # the knots around each grid point, unsorted and repeating: a tie can only be between
        # the two around one point, and the lower of them comes first, as the rule needs
        around = np.searchsorted(knots, grid)
        knots = knots[np.clip(np.concatenate((around - 1, around)), 0, knots.size - 1)]
        knots = knots[(knots >= grid[0]) & (knots <= grid[-1])]
        upper = np.searchsorted(grid, knots)
        lower = np.maximum(upper - 1, 0)
        nominee = np.where(knots - grid[lower] <= grid[upper] - knots, lower, upper)
        closest = np.lexsort((np.abs(grid[nominee] - knots), nominee))
        moved, first = np.unique(nominee[closest], return_index=True)
        grid[moved] = knots[closest[first]]
        flags = np.bincount(moved, minlength=grid.size)
        header = ["a_over_y", "c_discrete_over_y", "c_unconstrained_over_y", "knot_flag"]
        columns = (grid / y, policy(grid) / y, consumption_unconstrained(params, grid) / y, flags)
        rows = list(zip(*(col.tolist() for col in columns)))
    elif which == 2:
        header = ["a_over_y", "c_closed_approx_over_y", "c_numeric_over_y"]
        rows = [
            (
                a / y,
                consumption_approx_small_r(params, a) / y,
                consumption_from_depletion_time(params, h_numeric(params, a).T) / y,
            )
            for a in grid.tolist()
        ]
    else:
        raise ValueError(f"unknown figure {which!r}; expected 1 or 2")
    infinite = ~np.isfinite(np.array(rows, dtype=float))
    if infinite.any():
        column, i = np.argwhere(infinite.T)[0]  # the first column, then its first row
        raise ValueError(f"figure {which}: {header[column]} overflows a double at a={grid[i]}")
    return header, rows
