"""The discrete-time model, in closed form on ``grid_dp``'s budget, and the rows of the two figure CSVs.
No closed form needs this module, so ``import ifpclosed`` does not load it."""

from __future__ import annotations

import math

import numpy as np

from .consumption import consumption_approx_small_r, consumption_from_depletion_time
from .depletion_map import h_numeric
from .model_core import ModelParams

__all__ = ["discrete_policy", "figure_rows"]


def _log_steps(params: ModelParams, delta: float) -> tuple[float, float]:
    """(log G, log(1 + r*delta)) from log1p's, G = ((1 + r*delta)/(1 + rho*delta))^(-1/gamma) > 1."""
    if not 0.0 < delta < math.inf:  # delta comes from the CLI's --delta
        raise ValueError(f"need finite delta > 0, got delta={delta}")
    log_gross = math.log1p(params.r * delta)
    return (math.log1p(params.rho * delta) - log_gross) / params.gamma, log_gross


def _knot_terms(params: ModelParams, delta: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, s) at real k >= 0, with m(k) = delta*y*G^(k+1)*h and m'(k) = delta*y*G^(k+1)*s: no overflow."""
    log_g, log_gross = _log_steps(params, delta)
    log_ratio = log_g + log_gross  # log(G/q)
    ratio_m1, shrink, spread = math.expm1(log_ratio), np.exp((k + 1.0) * -log_g), np.expm1(k * -log_ratio)
    paid, paid_slope = k, 1.0  # (1 - q^k)/(r*delta) and its slope, in their limits at r*delta = 0
    if log_gross > 0.0:
        paid = np.expm1(k * -log_gross) / (-params.r * delta)
        paid_slope = log_gross / (params.r * delta) - log_gross * paid  # q^k = 1 - r*delta*paid
    h = spread / -ratio_m1 - paid * shrink  # spread = (q/G)^k - 1
    return h, (log_ratio + log_gross * spread) / ratio_m1 - paid_slope * shrink


def _knot_assets(params: ModelParams, delta: float, k) -> np.ndarray:
    """Knot k's assets m_k, from which the plan consumes y*G^k and reaches a = 0 in k steps.

    On ``grid_dp``'s budget, a' = (1 + r*delta)*a + delta*(y - c), knot 0 is a = 0, which consumes y
    and stays, and m_k = q*(m_(k-1) + delta*y*(G^k - 1)), q = 1/(1 + r*delta).  Summed, m_k =
    delta*y*(q*G*(G^k - q^k)/(G - q) - (1 - q^k)/(r*delta)), the last term k at r = 0; inf past doubles.
    """
    log_g = _log_steps(params, delta)[0]
    return delta * params.y * np.exp((k + 1.0) * log_g) * _knot_terms(params, delta, k)[0]


def _bracket(params: ModelParams, delta: float, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(k, m_k, m_(k+1)) with m_k <= a < m_(k+1), for each a >= 0 of the ndarray ``a``.

    Newton's method on log m against log k solves m(k) = max(a, m_1), from a start that follows m's
    growth, quadratic in k and then geometric; whole steps settle k.  k past 2**53 is a ValueError.
    """
    log_g = _log_steps(params, delta)[0]
    log_b = np.log(np.maximum(a, _knot_assets(params, delta, 1.0))) - math.log(delta * params.y)
    x = log_b + np.log(log_g)  # the start is log1p(b*log G + sqrt(2*b*log G))/log G, in logs
    k = np.maximum(np.logaddexp(0.0, np.logaddexp(x, 0.5 * (x + math.log(2.0)))) / log_g, 1.0)
    for _ in range(100):
        h, slope = _knot_terms(params, delta, k)
        step = ((k + 1.0) * log_g + np.log(h) - log_b) * h / (k * slope)
        k, old = np.maximum(k * np.exp(-step), 1.0), k
        if np.all(np.abs(k - old) <= 0.5 + 1e-15 * old):  # within half a knot
            break
    if not np.all(k < 2.0**53):
        raise ValueError(f"a={float(a.max())} needs a knot index past 2**53 at delta={delta}")
    k = np.floor(k)
    while True:  # each k moves one way only: down while m_k > a (to m_0 = 0 at worst), else up
        below, above = _knot_assets(params, delta, k), _knot_assets(params, delta, k + 1.0)
        move = np.where(below > a, -1.0, (above <= a) * 1.0)
        if not move.any():
            return k, below, above
        k = k + move


def _chord(params: ModelParams, delta: float, a: np.ndarray, k: np.ndarray, knot: np.ndarray):
    """Consumption at a on the chord from knot k (at ``knot``), which rises by y*G^k*(G - 1) over
    the budget's run m_(k+1) - m_k = (delta*(y*G^(k+1) - y) - r*delta*m_k)/(1 + r*delta): no knot above."""
    log_g = _log_steps(params, delta)[0]
    c = params.y * np.exp(k * log_g)
    run = (params.y * np.expm1((k + 1.0) * log_g) - params.r * knot) / (1.0 / delta + params.r)
    return c + c * math.expm1(log_g) * ((a - knot) / run)


def discrete_policy(params: ModelParams, delta: float, a):
    """Discrete-time consumption at assets ``a >= 0`` (a float or an ndarray) on ``grid_dp``'s budget
    a' = (1 + r*delta)*a + delta*(y - c): linear between the two knots m_k around a, where it is y*G^k."""
    arr = np.asarray(a, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ValueError("discrete_policy: assets outside [0, inf)")
    with np.errstate(all="ignore"):  # a non-finite c is the ValueError below
        c = _chord(params, delta, arr, *_bracket(params, delta, arr)[:2])
    if not np.all(np.isfinite(c)):
        raise ValueError(f"discrete_policy: consumption overflows a double at a={arr[~np.isfinite(c)][0]}")
    return float(c) if arr.ndim == 0 else c


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

    Figure 1 (requires r > 0): the discrete-time policy at step ``delta`` against the
    unconstrained linear benchmark, over a copy of the strictly increasing ``grid``.  Every
    knot in [grid[0], grid[-1]] nominates its nearest grid point (the lower one on a tie);
    each nominated point moves onto the nearest knot that nominated it (the lower knot on a
    tie) and is flagged.  That knot is one of the two around the point, so the rule runs on
    those alone.  It reads only the original grid, so rows stay strictly increasing, each
    within half a neighbouring step of its point.  Figure 2: small-r closed-form approximation
    against the numerically inverted solution.  A value past the double range (a/y at y < 1,
    say) is a ``ValueError`` naming its column and the first such a, with no numpy warning.
    """
    y = params.y
    if which == 1:
        grid = np.array(grid, dtype=float)  # a copy: the knots go into it
        # a non-finite value on the way (a knot above the grid, grid / y) ends in a ValueError
        with np.errstate(all="ignore"):
            k, below, above = _bracket(params, delta, grid)
            # unsorted and repeating: a tie can only be between the two knots around one
            # point, and the lower of them comes first, as the rule needs
            knots = np.concatenate((below, above))
            knots = knots[(knots >= grid[0]) & (knots <= grid[-1])]
            upper = np.searchsorted(grid, knots)
            lower = np.maximum(upper - 1, 0)
            nominee = np.where(knots - grid[lower] <= grid[upper] - knots, lower, upper)
            closest = np.lexsort((np.abs(grid[nominee] - knots), nominee))
            moved, first = np.unique(nominee[closest], return_index=True)
            grid[moved] = knots[closest[first]]
            flags = np.bincount(moved, minlength=grid.size)
            up = grid == above  # a point moved onto the knot above it
            c = _chord(params, delta, grid, k + up, np.where(up, above, below))
            header = ["a_over_y", "c_discrete_over_y", "c_unconstrained_over_y", "knot_flag"]
            columns = (grid / y, c / y, _consumption_unconstrained(params, grid) / y, flags)
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
