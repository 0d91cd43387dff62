"""Independent numerical oracles used to falsify the closed forms.

Nothing here trusts the Lambert-W algebra beyond the depletion time itself:
feasibility is checked by integrating the budget equation with RK4,
optimality by discounted-utility quadrature against perturbed feasible
plans and by a grid value-iteration solve of the discrete model, and the
derivative formulas by Richardson-extrapolated finite differences.  All
closed-form-vs-oracle comparisons elsewhere route through this module.
"""

from __future__ import annotations

from array import array
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .consumption import consumption_approx_small_r, consumption_from_depletion_time, consumption_path
from .depletion_map import best_depletion_time, mu
from .model_core import ModelParams, crra_utility

__all__ = [
    "AssetPath",
    "DpSolution",
    "approximation_error_report",
    "fd_gradient",
    "fd_hessian",
    "grid_dp",
    "make_asset_grid",
    "pdv_utility",
    "perturbed_path_values",
    "simulate_assets",
]

@dataclass(frozen=True)
class AssetPath:
    """RK4 trajectory of the budget equation under the closed-form policy.

    Samples are the triplets (t[i], a[i], c[i]); ``depletion_time_observed``
    is the interpolated first crossing of a through zero (to within the
    detection level described in ``simulate_assets``).
    """

    t: np.ndarray
    a: np.ndarray
    c: np.ndarray
    depletion_time_observed: float


@dataclass(frozen=True)
class DpSolution:
    """Converged value-iteration solve of the discrete model on an asset grid."""

    policy: np.ndarray
    value: np.ndarray
    iterations: int
    sup_norm_residual: float


def simulate_assets(params: ModelParams, a0: float, dt: float) -> AssetPath:
    """Integrate da/dt = r*a + y - c*(t) by classical RK4 until t = T + 1.

    The policy is the shipped time path ``consumption_from_depletion_time``,
    y*e^((rho-r)(T-t)/gamma) for t <= T then y, so the run tests the
    identity a(t) = mu(T - t) rather than assuming it.  The forcing depends on
    t alone, so two array calls give c at every node and every half step, and
    each RK4 step is affine in a: a[i+1] = A[i]*a[i] + B[i], with
    A = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = r*h and B the step taken from
    a = 0.  The nodes are the sequential sums t + h of h = min(dt, t_end - t),
    as a step-by-step loop forms them.  The recurrence runs over Python
    floats as a += (A - 1)*a + B: A rounded to a double drops the low bits of
    z, which over 10,000 steps at r = 0.01 moved a(t) = 0.02 by 3.9e-11
    relative to the loop.  At r = 0, A - 1 is exactly 0 and each step adds
    B alone.  Depletion is the first
    sample at or below the detection level max(1e-12*max(a0, y),
    4*|a(t_end)|), linearly interpolated to the zero crossing; the
    |a(t_end)| term adapts the level to the integrator's own error floor (a
    approaches zero tangentially, so an exact-zero crossing need not exist
    in floating point).
    """
    if a0 <= 0.0:
        raise ValueError(f"simulate_assets: need a0 > 0, got {a0}")
    if dt <= 0.0:
        raise ValueError(f"simulate_assets: need dt > 0, got {dt}")
    T = best_depletion_time(params, a0).T
    if dt > T / 100.0:
        raise ValueError(f"simulate_assets: need dt <= T/100 = {T / 100.0}, got {dt}")
    r, y = params.r, params.y
    t_end = T + 1.0
    n = int(math.ceil(t_end / dt))
    # t + dt summed in order; the step that would pass t_end lands on it exactly
    # (t_end - t is exact there), and any later step has h = 0
    ts = np.minimum(np.cumsum(np.concatenate(([0.0], np.full(n, dt)))), t_end)
    h = np.minimum(dt, t_end - ts[:-1])
    cs = consumption_from_depletion_time(params, T, ts)
    c_mid = consumption_from_depletion_time(params, T, ts[:-1] + 0.5 * h)
    k1 = y - cs[:-1]
    k2 = r * (0.5 * h * k1) + y - c_mid
    k3 = r * (0.5 * h * k2) + y - c_mid
    k4 = r * (h * k3) + y - cs[1:]
    step = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    z = r * h
    growth = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))  # A - 1, kept apart
    # memoryviews hand the loop Python floats one at a time and array("d")
    # stores them unboxed: lists of the 10,000 steps cost ~1 MB of peak memory
    path = array("d", [a0])
    a = a0
    for g, b in zip(memoryview(growth), memoryview(step)):
        a += g * a + b
        path.append(a)
    as_ = np.array(path)
    level = max(1e-12 * max(a0, y), 4.0 * abs(as_[-1]))
    hit = np.nonzero(as_ <= level)[0]
    if hit.size == 0:
        t_obs = math.nan
    else:
        i = int(hit[0])
        a_prev, a_here = as_[i - 1], as_[i]
        if i == 0 or a_prev <= a_here:
            t_obs = ts[i]
        else:
            frac = a_prev / (a_prev - a_here)  # chord zero crossing, may extrapolate slightly
            t_obs = ts[i - 1] + frac * (ts[i] - ts[i - 1])
            t_obs = min(max(t_obs, ts[i - 1]), min(ts[i] + dt, t_end))
    return AssetPath(t=ts, a=as_, c=cs, depletion_time_observed=t_obs)


# _adaptive_simpson's absolute tolerance on each integral, and its depth cap
_SIMPSON_TOL = 1e-10
_SIMPSON_MAX_DEPTH = 60


def _adaptive_simpson(f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adaptive Simpson quadrature of f on each interval [a[i], b[i]].

    ``a`` and ``b`` are equal-length 1-D arrays, and ``f(t, k)`` maps a 1-D
    ndarray of nodes t, with the index k of each node's interval, to the
    ndarray of its values.  The result is one value per interval, each to
    absolute tolerance ``_SIMPSON_TOL``.  The refinement runs breadth-first
    over all intervals: each level calls f once, on the new midpoints of
    every subinterval still open, and a subinterval's accept/refine test
    reads only its own values, its tolerance (halved per level) and its
    depth (at most ``_SIMPSON_MAX_DEPTH``), so each interval's accepted
    leaves and tree-order sum are those of the classical recursion, and its
    value is bit for bit that of a batch of it alone.  Each subinterval also
    accepts once its error estimate falls below 1e-14 of the local integral
    magnitude: for integrands so large that the tolerance is below the
    rounding floor of double arithmetic, the rule stops at machine-relative
    precision instead of subdividing without bound.  An interval with
    a == b gives 0.0 and f is not called on it.
    """
    total = np.zeros(a.size)
    roots = np.flatnonzero(a != b)
    if roots.size == 0:
        return total
    lo, hi, k = a[roots], b[roots], roots
    flo, fmid, fhi = f(np.concatenate((lo, 0.5 * (lo + hi), hi)), np.tile(k, 3)).reshape(3, -1)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    eps = _SIMPSON_TOL
    levels = []  # per depth: which subintervals split, and the accepted values
    for depth in range(_SIMPSON_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        f_new = f(np.concatenate((0.5 * (lo + mid), 0.5 * (mid + hi))), np.concatenate((k, k)))
        flm, frm = f_new[: lo.size], f_new[lo.size :]
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (left + right - whole) / 15.0
        eps_here = np.maximum(eps, 1e-14 * (np.abs(left) + np.abs(right)))
        split = ~(np.abs(err) <= eps_here) & (depth < _SIMPSON_MAX_DEPTH)
        levels.append((split, left + right + err))
        if not split.any():
            break
        halves = np.array([lo, mid, flo, flm, fmid, left, mid, hi, fmid, frm, fhi, right])
        # the left and right half of each split subinterval, side by side
        halves = halves[:, split].reshape(2, 6, -1).transpose(1, 2, 0).reshape(6, -1)
        lo, hi, flo, fmid, fhi, whole = halves
        k = np.repeat(k[split], 2)
        eps *= 0.5
    # sum up each tree, as the recursion does: a split subinterval is left + right
    value = levels.pop()[1]
    for split, accepted in reversed(levels):
        accepted[split] = value[0::2] + value[1::2]
        value = accepted
    total[roots] = value
    return total


def _discounted_utility(
    params: ModelParams, c_of_t: Callable[..., np.ndarray], horizon: np.ndarray
) -> np.ndarray:
    """Present discounted utility of each plan k: c_of_t on [0, horizon[k]], y after.

    ``horizon`` is a 1-D array of horizons, one plan each, and
    ``c_of_t(t, k)`` maps an ndarray of times, with the index k of each
    time's plan, to the plans' consumption there.  The head integrals are
    one adaptive Simpson call; each constant-consumption tail is evaluated
    analytically as e^(-rho*T)*u(y)/rho, with ``math.exp`` per horizon.
    """
    rho, gam, y = params.rho, params.gamma, params.y
    heads = _adaptive_simpson(
        lambda t, k: np.exp(-rho * t) * crra_utility(c_of_t(t, k), gam),
        np.zeros(len(horizon)), horizon,
    )
    tails = np.array([math.exp(-rho * T) for T in horizon])
    return heads + tails * crra_utility(y, gam) / rho


def pdv_utility(params: ModelParams, a0: float | Sequence[float]) -> float | np.ndarray:
    """Lifetime discounted utility of the closed-form plan from assets a0 >= 0.

    ``a0`` may be a sequence: its depletion times come from one
    ``best_depletion_time`` call each, and the utilities from one
    ``_discounted_utility`` call, one value per a0.
    """
    if np.ndim(a0) == 0:
        return float(pdv_utility(params, [a0])[0])
    T = np.array([best_depletion_time(params, a).T for a in a0])

    def plan(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        return consumption_from_depletion_time(params, T[k], t)

    return _discounted_utility(params, plan, T)


def _budget_rhs(params: ModelParams, a0: float, t: np.ndarray) -> np.ndarray:
    # Cumulative feasibility bound: integral_0^t e^(-r*tau) c <= a0 - (y/r)(e^(-rt) - 1).
    if params.r == 0.0:
        return a0 + params.y * t
    return a0 - params.y * np.expm1(-params.r * t) / params.r


# perturbed_path_values's plans: how many, their amplitude, their frequencies' seed
_PERTURBED_PLANS = 10
_PERTURBATION = 0.05
_PERTURBATION_SEED = 20240301


def perturbed_path_values(params: ModelParams, a0: float) -> tuple[float, list[float]]:
    """Optimality spot check: discounted utility of feasible perturbed plans.

    Ten perturbations multiply the closed-form path by (1 + 0.05*sin(w*t)),
    each w drawn from a fixed seed (the module constants above), then
    rescale by the largest factor that keeps the cumulative budget
    inequality satisfied at every t (capped by budget equality at the
    horizon, with a 1e-6 safety margin for the cumulative quadrature).
    The optimum is one ``pdv_utility`` call and the ten plans one
    ``_discounted_utility`` call.  Returns (optimal pdv, list of perturbed
    pdvs); every perturbed value must fall strictly below the optimum.
    """
    T = best_depletion_time(params, a0).T
    if T <= 0.0:
        raise ValueError("perturbed_path_values: need a0 > 0 so the horizon is positive")
    v_star = pdv_utility(params, a0)
    rng = np.random.default_rng(_PERTURBATION_SEED)
    omegas = rng.uniform(1.0, 8.0, size=_PERTURBED_PLANS) * (2.0 * math.pi / T)
    tgrid = np.linspace(0.0, T, 4001)
    base = consumption_from_depletion_time(params, T, tgrid)
    disc = np.exp(-params.r * tgrid)
    rhs = _budget_rhs(params, a0, tgrid)
    scales = []
    for omega in omegas:
        shape = base * (1.0 + _PERTURBATION * np.sin(omega * tgrid))
        integrand = disc * shape
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(tgrid)))
        )
        scales.append(float(np.min(rhs[1:] / cum[1:])) * (1.0 - 1e-6))
    scales = np.array(scales)

    def c_tilde(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        wave = 1.0 + _PERTURBATION * np.sin(omegas[k] * t)
        return scales[k] * consumption_from_depletion_time(params, T, t) * wave

    values = _discounted_utility(params, c_tilde, np.full(_PERTURBED_PLANS, T)).tolist()
    return v_star, values


def fd_gradient(
    fn: Callable[[float, float], float],
    point: tuple[float, float],
    step: float | Sequence[float],
) -> tuple[float, float]:
    """Central-difference gradient of fn(a, y), Richardson-extrapolated once.

    ``step`` is the absolute step per coordinate (a scalar applies to both).
    """
    a, y = point
    ha, hy = (step, step) if np.isscalar(step) else step

    def central_a(h):
        return (fn(a + h, y) - fn(a - h, y)) / (2.0 * h)

    def central_y(h):
        return (fn(a, y + h) - fn(a, y - h)) / (2.0 * h)

    d_da = (4.0 * central_a(0.5 * ha) - central_a(ha)) / 3.0
    d_dy = (4.0 * central_y(0.5 * hy) - central_y(hy)) / 3.0
    return d_da, d_dy


def fd_hessian(
    fn: Callable[[float, float], float],
    point: tuple[float, float],
    step: float | Sequence[float],
) -> tuple[float, float, float]:
    """Second-order central stencils for (d2_aa, d2_ay, d2_yy), Richardson-extrapolated once."""
    a, y = point
    ha, hy = (step, step) if np.isscalar(step) else step
    f0 = fn(a, y)

    def second_a(h):
        return (fn(a + h, y) - 2.0 * f0 + fn(a - h, y)) / (h * h)

    def second_y(h):
        return (fn(a, y + h) - 2.0 * f0 + fn(a, y - h)) / (h * h)

    def cross(h1, h2):
        return (
            fn(a + h1, y + h2) - fn(a + h1, y - h2) - fn(a - h1, y + h2) + fn(a - h1, y - h2)
        ) / (4.0 * h1 * h2)

    d2_aa = (4.0 * second_a(0.5 * ha) - second_a(ha)) / 3.0
    d2_yy = (4.0 * second_y(0.5 * hy) - second_y(hy)) / 3.0
    d2_ay = (4.0 * cross(0.5 * ha, 0.5 * hy) - cross(ha, hy)) / 3.0
    return d2_aa, d2_ay, d2_yy


_DENSITY_RATIO = 5.0  # make_asset_grid's node density below dense_below over that above


def make_asset_grid(a_max: float, n: int, dense_below: float) -> np.ndarray:
    """Exponentially graded grid on [0, a_max], denser near the constraint.

    Node density below ``dense_below`` is about ``_DENSITY_RATIO`` = 5 times
    the density above it (curvature of the policy concentrates near a = 0).
    """
    if not 0.0 < dense_below < a_max:
        raise ValueError("make_asset_grid: need 0 < dense_below < a_max")
    u = np.linspace(0.0, 1.0, n)

    def frac_below(s: float) -> float:
        # share of nodes below dense_below for grid a = a_max*(e^(s*u)-1)/(e^s-1)
        return math.log1p(dense_below / a_max * math.expm1(s)) / s

    target = _DENSITY_RATIO * dense_below / (_DENSITY_RATIO * dense_below + (a_max - dense_below))
    lo, hi = 1e-6, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if frac_below(mid) < target:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    grid = a_max * np.expm1(s * u) / math.expm1(s)
    grid[0], grid[-1] = 0.0, a_max
    return grid


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # One-sided three-point slope at an end node, clamped to keep the shape:
    # zero if it opposes the end secant m0, 3*m0 if the secants change sign
    # and it exceeds 3*|m0| (Moler, Numerical Computing with MATLAB, 3.6).
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable[..., np.ndarray]:
    """Monotone piecewise-cubic Hermite (PCHIP) interpolant through (x, y).

    Node slopes follow Fritsch and Carlson: the weighted harmonic mean of
    the neighbouring secants, or 0 where they differ in sign or either is
    0; the end slopes use the clamped three-point rule, and two nodes give
    the straight line.  ``x`` must be strictly increasing.  The returned
    evaluator extends the end cubics beyond [x[0], x[-1]]; called with
    ``slopes=True`` it returns the pair (P', P'') of the same cubic pieces.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty(x.size)
    if x.size == 2:
        d[:] = m[0]
    else:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    # Cubic on interval i in s = q - x[i]: c0 + c1*s + c2*s^2 + c3*s^3, summed
    # in ascending powers as scipy's PchipInterpolator sums it (the two agree
    # bit for bit with scipy 1.17).  Four separate contiguous arrays gather
    # faster than one (n-1, 4) table.
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3 = t / h
    c2 = (m - d[:-1]) / h - t
    c1 = d[:-1]
    c0 = y[:-1].copy()
    left = x[:-1].copy()
    inner = x[1:-1].copy()

    def evaluate(q: np.ndarray, slopes: bool = False):
        i = np.searchsorted(inner, q, side="right")
        s = q - left[i]
        if slopes:  # the first and second derivative, from the same piece
            b2, b3 = c2[i], c3[i]
            return c1[i] + s * (2.0 * b2 + 3.0 * b3 * s), 2.0 * b2 + 6.0 * b3 * s
        s2 = s * s
        return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return evaluate


# Cap on a node's steps toward its first-order condition.  A bracket no wider
# than its upper end hi falls below the 4e-16*hi width stop after 52 halvings
# (more only where hi itself shrinks), so bisection fits under the cap.
_FOC_STEPS = 64

# grid_dp's stop: a sup-norm change of V <= _DP_TOL*(1 + max|V|), within _DP_MAX_SWEEPS
_DP_TOL = 1e-10
_DP_MAX_SWEEPS = 100_000


def grid_dp(params: ModelParams, delta: float, a_grid: np.ndarray) -> DpSolution:
    """Value iteration for the discrete model on ``a_grid`` (must start at 0).

    Bellman equation V(a) = max_c delta*u(c) + beta*V(a') with
    beta = 1/(1 + rho*delta), a' = (1 + r*delta)*a + delta*(y - c) and c in
    [1e-6*y, y + (1+r*delta)*a/delta] (floored to keep u finite, capped so
    a' stays on the grid at the top nodes).  The continuation value is the
    monotone-cubic (PCHIP) interpolant P of V from ``_pchip``, whose pieces
    give P' and P'' exactly.  Each node solves the first-order condition
    g(c) = u'(c) - beta*P'(a') = 0.  A node takes the upper end of its
    range when g >= 0 there and the lower end when g <= 0 there; every other
    node keeps a bracket with g(lo) > 0 > g(hi), so it ends at a local
    maximum.  Those take Newton steps with g' = u''(c) + beta*delta*P''(a'),
    starting from the previous sweep's policy (the bracket midpoint on the
    first sweep), and bisect wherever g' >= 0 or the step would leave the
    bracket.  A node stops once its step is at most 2e-15 of c, g(c) is 0,
    or its bracket is at most 4e-16 of its upper end wide.
    Iterates until the sup-norm value change is <= _DP_TOL*(1 + max|V|) and
    raises RuntimeError if ``_DP_MAX_SWEEPS`` sweeps do not get there.
    """
    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0.0):
        raise ValueError("grid_dp: a_grid must be a strictly increasing 1-D array")
    if a[0] != 0.0:
        raise ValueError("grid_dp: a_grid must start at 0 to cover the constraint")
    rho, r, gam, y = params.rho, params.r, params.gamma, params.y
    beta = 1.0 / (1.0 + rho * delta)
    gross = 1.0 + r * delta
    a_top = a[-1]
    c_hi = y + gross * a / delta
    c_lo = np.maximum(1e-6 * y, (gross * a + delta * y - a_top) / delta)

    def bellman(v: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        interp = _pchip(a, v)

        def foc(c: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # g and g' at consumption c of the nodes with assets at
            slope, curvature = interp(gross * at + delta * (y - c), slopes=True)
            marginal = c**-gam
            return marginal - beta * slope, beta * delta * curvature - gam * marginal / c

        g_hi, _ = foc(c_hi, a)
        g_lo, _ = foc(c_lo, a)
        c_star = np.where(g_hi >= 0.0, c_hi, c_lo)
        nodes = np.nonzero((g_hi < 0.0) & (g_lo > 0.0))[0]
        at, lo, hi, c = a[nodes], c_lo[nodes], c_hi[nodes], guess[nodes]
        c = np.where((lo < c) & (c < hi), c, 0.5 * (lo + hi))
        for _ in range(_FOC_STEPS):
            g, dg = foc(c, at)
            lo = np.where(g > 0.0, c, lo)
            hi = np.where(g < 0.0, c, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = c - g / dg
            # a closed test: near the root the step rounds back onto c, which
            # has just become a bracket end, and that is convergence
            newton = (dg < 0.0) & (lo <= step) & (step <= hi)
            c_new = np.where(g == 0.0, c, np.where(newton, step, 0.5 * (lo + hi)))
            done = (np.abs(c_new - c) <= 2e-15 * c_new) | (hi - lo <= 4e-16 * hi)
            c_star[nodes[done]] = c_new[done]
            going = ~done
            nodes, at, lo, hi = nodes[going], at[going], lo[going], hi[going]
            c = c_new[going]
            if nodes.size == 0:
                break
        c_star[nodes] = c
        a_next = gross * a + delta * (y - c_star)
        return delta * crra_utility(c_star, gam) + beta * interp(a_next), c_star

    v = delta * crra_utility(np.maximum(y + r * a, 1e-6 * y), gam) / (1.0 - beta)
    policy = 0.5 * (c_lo + c_hi)
    for it in range(1, _DP_MAX_SWEEPS + 1):
        v_new, policy = bellman(v, policy)
        diff = float(np.max(np.abs(v_new - v)))
        v = v_new
        if diff <= _DP_TOL * (1.0 + float(np.max(np.abs(v)))):
            return DpSolution(policy=policy, value=v, iterations=it, sup_norm_residual=diff)
    raise RuntimeError(f"grid_dp: no convergence after {_DP_MAX_SWEEPS} iterations")


def approximation_error_report(
    params_base: ModelParams, r_list: Sequence[float], a_grid: Sequence[float]
) -> dict[float, float]:
    """Max relative gap of the small-r consumption approximation, keyed by each r in ``r_list``.

    For each r, compares the approximation against consumption evaluated
    with the best available depletion time (exact closed form at r = 0,
    numeric inversion otherwise) over ``a_grid``.  The r = 0 gap is
    identically zero because the two routes coincide there: both columns
    are one array evaluation of the same closed form.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    gaps_by_r = {}
    for r in r_list:
        p = replace(params_base, r=r)
        if p.r == 0.0:
            c_ref = consumption_path(p, a_grid)
        else:  # the numeric inversion takes one point at a time
            c_ref = np.array([consumption_path(p, a) for a in a_grid.tolist()])
        gaps = np.abs(consumption_approx_small_r(p, a_grid) - c_ref) / c_ref
        gaps_by_r[r] = float(np.max(gaps))
    return gaps_by_r
