"""The discrete-time model and the rows of the two figure CSVs.

Figure 1 draws the discrete-time policy, linear between the knot assets
mu(k*delta), against the unconstrained linear benchmark; figure 2 the small-r
closed form against the numeric inversion.  No closed form needs this module,
so ``import ifpclosed`` does not load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

import numpy as np

from .consumption import consumption_approx_small_r, consumption_from_depletion_time
from .depletion_map import best_depletion_time, h_numeric
from .model_core import ModelParams

__all__ = ["discrete_policy", "figure_rows"]


class _PiecewiseLinearPolicy(namedtuple("_PiecewiseLinearPolicy", "knot_assets knot_consumption")):
    """Discrete-time consumption function: linear between depletion knots.

    Knot k sits at assets mu(k*delta) with consumption y * G^k (G the
    per-step growth factor), so the policy is continuous, increasing, and
    piecewise linear with non-increasing slopes.  Evaluation is defined on
    [0, last knot].
    """

    __slots__ = ()

    def __call__(self, a):
        arr = np.asarray(a, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= self.knot_assets[-1])):
            raise ValueError(f"policy evaluation outside [0, {float(self.knot_assets[-1])!r}]")
        out = np.interp(arr, self.knot_assets, self.knot_consumption)
        return float(out) if np.isscalar(a) else out


def _step_growth(params: ModelParams, delta: float) -> float:
    """Per-step consumption growth ((1+r*delta)/(1+rho*delta))^(-1/gamma) > 1."""
    if not 0.0 < delta < math.inf:  # delta comes from the CLI's --delta
        raise ValueError(f"need finite delta > 0, got delta={delta}")
    return ((1.0 + params.r * delta) / (1.0 + params.rho * delta)) ** (-1.0 / params.gamma)


def _mu_discrete(params: ModelParams, delta: float, n_knots: int) -> np.ndarray:
    """Discrete-time depletion thresholds mu(k*delta), k = 0..n_knots, from the implicit recursion.

    The budget consumes before it earns interest: a' = (1 + r*delta)*(a - delta*c) + delta*y.
    Solves mu(k*delta) + (delta*y - mu((k-1)*delta))/(1 + r*delta)
    = G^k * delta*y forward from mu(0) = 0, where G is the per-step
    consumption growth factor.  The sequence is strictly increasing.
    ``validation.grid_dp`` solves a' = (1 + r*delta)*a + delta*(y - c) instead,
    so the two agree only at r = 0, the one rate where criterion 8 compares them.
    """
    if n_knots < 1:
        raise ValueError(f"mu_discrete: need n_knots >= 1, got {n_knots}")
    growth = _step_growth(params, delta)
    dy = delta * params.y
    shrink = 1.0 + params.r * delta
    rhs = dy * growth ** np.arange(n_knots + 1)
    # a memoryview hands the recursion Python floats one at a time, where a
    # list of them would hold ~32 bytes a knot (2**24 knots: ~0.5 GB)
    knots = accumulate(memoryview(rhs)[1:], lambda m, g: g - (dy - m) / shrink, initial=0.0)
    return np.fromiter(knots, float, n_knots + 1)


def discrete_policy(params: ModelParams, delta: float, a_max: float) -> _PiecewiseLinearPolicy:
    """Piecewise-linear discrete-time consumption function covering [0, a_max].

    Knots come from ``_mu_discrete``, up to the first that reaches a_max;
    knot consumption is y * G^k; interior assets interpolate linearly
    between adjacent knot values.  Knot k lies within a few percent of
    mu(k*delta), so T(a_max)/delta sizes the sequence before any knot is
    built, and a_max needing more than 2**24 knots is a ValueError.
    """
    if not 0.0 < a_max < math.inf:
        raise ValueError(f"discrete_policy: need finite a_max > 0, got {a_max}")
    growth = _step_growth(params, delta)
    n = 1.1 * float(best_depletion_time(params, a_max).T) / delta + 16.0
    while n <= 2**24:
        knots = _mu_discrete(params, delta, int(n))
        if knots[-1] >= a_max:
            assets = knots[: int(np.searchsorted(knots, a_max, side="left")) + 1]
            cons = params.y * growth ** np.arange(assets.size)
            return _PiecewiseLinearPolicy(knot_assets=assets, knot_consumption=cons)
        n *= 2.0
    raise ValueError(f"discrete_policy: a_max={a_max} takes over 2**24 knots at delta={delta}")


def _consumption_unconstrained(params: ModelParams, a):
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
    is a ``ValueError`` naming its column and the first such a, with no numpy
    overflow warning before it.
    """
    y = params.y
    if which == 1:
        grid = np.array(grid, dtype=float)  # a copy: the knots go into it
        # an overflow on the way (the knots' growth, grid / y) ends in the ValueError below
        with np.errstate(over="ignore"):
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
            columns = (grid / y, policy(grid) / y, _consumption_unconstrained(params, grid) / y, flags)
    elif which == 2:
        header = ["a_over_y", "c_closed_approx_over_y", "c_numeric_over_y"]
        T = [h_numeric(params, a).T for a in grid.tolist()]  # the oracle, one float a at a time
        with np.errstate(over="ignore"):  # as in figure 1: grid / y may overflow
            c_closed = consumption_approx_small_r(params, grid)
            columns = (grid / y, c_closed / y, consumption_from_depletion_time(params, np.array(T)) / y)
    else:
        raise ValueError(f"unknown figure {which!r}; expected 1 or 2")
    rows = list(zip(*(col.tolist() for col in columns)))
    infinite = ~np.isfinite(np.array(rows, dtype=float))
    if infinite.any():
        column, i = np.argwhere(infinite.T)[0]  # the first column, then its first row
        raise ValueError(f"figure {which}: {header[column]} overflows a double at a={grid[i]}")
    return header, rows
