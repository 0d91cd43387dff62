"""Independent numerical oracles used to falsify the closed forms.

Nothing here trusts the Lambert-W algebra beyond the depletion time itself
and the time path it sets: feasibility is checked by integrating the budget
equation with RK4, optimality by discounted CRRA utility (quadrature against
perturbed feasible plans, and the analytic bound u(rho*a + y)/rho) and by an
endogenous-grid solve of the discrete model, the derivative formulas by
Richardson-extrapolated finite differences (one call of the function on all
of a stencil's points, every centre's at once), and the numeric inversion at
r > 0 by the exact depletion time at r = rho/(1 + gamma).  The small-r
approximation is graded by the numeric inversion in figure 2's rows
(``ifpclosed.figures``).
"""

from __future__ import annotations

from array import array
import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .consumption import consumption_from_depletion_time
from .depletion_map import best_depletion_time
from .model_core import ModelParams

__all__ = [
    "crra_utility",
    "fd_gradient",
    "fd_hessian",
    "grid_dp",
    "pdv_utility",
    "perturbed_path_values",
    "simulate_assets",
]

class _AssetPath(namedtuple("_AssetPath", "t a c depletion_time_observed")):
    """RK4 trajectory of the budget equation under the closed-form policy.

    Samples are the triplets (t[i], a[i], c[i]); ``depletion_time_observed``
    is the interpolated first crossing of a through zero (to within the
    detection level described in ``simulate_assets``).
    """

    __slots__ = ()


class _DpSolution(namedtuple("_DpSolution", "policy value iterations sup_norm_residual")):
    """Endogenous-grid solve of the discrete model on an asset grid.

    The policy on the grid, the value of its plan, the sweeps taken, and the
    last sweep's sup-norm change of the policy.
    """

    __slots__ = ()


def crra_utility(c: float | np.ndarray, gamma: float) -> float | np.ndarray:
    """CRRA utility c^(1-gamma)/(1-gamma); log(c) at gamma = 1 (continuous limit).

    ``c`` may be an ndarray; every element must be positive, like a scalar c.
    A scalar is evaluated as a 0-d array, so an array's elements are
    bit-equal to per-element calls (numpy's vector log and power can differ
    from ``math``'s by an ulp).  A utility past the double range is a
    ``ValueError``, not inf.
    """
    arr = np.asarray(c, dtype=float)
    positive = arr > 0.0
    if not positive.all():
        raise ValueError(f"crra_utility: consumption must be positive, got c={arr[~positive][0]}")
    with np.errstate(over="ignore"):
        u = np.log(arr) if gamma == 1.0 else arr ** (1.0 - gamma) / (1.0 - gamma)
    infinite = np.isinf(u)
    if infinite.any():
        raise ValueError(
            f"crra_utility: utility overflows a double at c={arr[infinite][0]}, gamma={gamma}"
        )
    return u if type(c) is np.ndarray else float(u)


def _value_upper_bound(params: ModelParams, a: float) -> float:
    """Upper bound u(rho*a + y)/rho on lifetime utility from initial assets a >= 0.

    Any feasible plan's discounted utility lies strictly below this unless
    consumption is constant at rho*a + y forever.
    """
    if a < 0.0:
        raise ValueError(f"value_upper_bound: need a >= 0, got a={a}")
    return crra_utility(params.rho * a + params.y, params.gamma) / params.rho


def simulate_assets(params: ModelParams, a0: float, dt: float) -> _AssetPath:
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
    B alone, so the path is the running sum ``np.cumsum``.  Depletion is the first
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
    if not growth.any():  # r = 0: each step adds B alone, a running sum
        as_ = np.cumsum(np.concatenate(([a0], step)))
    else:
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
    return _AssetPath(t=ts, a=as_, c=cs, depletion_time_observed=t_obs)


# _gauss_kronrod's absolute tolerance on each integral, its depth cap and its open-panel cap
_QUAD_TOL = 1e-10
_QUAD_MAX_DEPTH = 60
_QUAD_MAX_PANELS = 1024

# QUADPACK's QK15 rule on [-1, 1] as doubles: per node x <= 0, ascending, x, its
# Kronrod K15 weight and its Gauss G7 weight (0 off the G7 nodes); x > 0 mirror.
_GK_NODES, _GK_K15, _GK_G7 = (
    np.concatenate((col, sign * col[-2::-1]))
    for sign, col in zip((-1.0, 1.0, 1.0), np.array([
        (-0.9914553711208126, 0.022935322010529224, 0.0),
        (-0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
        (-0.8648644233597691, 0.10479001032225019, 0.0),
        (-0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
        (-0.5860872354676911, 0.1690047266392679, 0.0),
        (-0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
        (-0.20778495500789848, 0.20443294007529889, 0.0),
        (0.0, 0.20948214108472782, 0.4179591836734694),
    ]).T)
)


def _gauss_kronrod(f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adaptive Gauss–Kronrod (G7–K15) quadrature of f on each interval [a[i], b[i]].

    ``a`` and ``b`` are equal-length 1-D arrays, and ``f(t, k)`` maps a 1-D
    ndarray of nodes t, with the index k of each node's interval, to the
    ndarray of its values.  The result is one value per interval, each to
    absolute tolerance ``_QUAD_TOL``.  The refinement runs breadth-first:
    each level calls f once, on the 15 nodes of every panel still open.  A
    panel is accepted with its K15 value once |K15 - G7| is at most
    ``_QUAD_TOL`` times its share of its interval or 1e-14 of |K15| (the
    rounding floor of large integrands), or at depth ``_QUAD_MAX_DEPTH``;
    else it is halved, unless its interval would then hold over ``_QUAD_MAX_PANELS``
    open panels: then all are accepted, so f noisier than the tolerance stops after
    11 calls.  A NaN estimate is accepted as it is: NaN after one call.  Each
    panel's rule is a row-wise sum, and an interval adds its accepted panels
    level by level in a fixed order, so its value is bit for bit that of a
    batch of it alone.  An interval with a == b gives 0.0, and f is not
    called on it.
    """
    total = np.zeros(a.size)
    k = np.flatnonzero(a != b)
    lo, hi = a[k], b[k]
    eps = _QUAD_TOL
    for depth in range(_QUAD_MAX_DEPTH + 1):
        if k.size == 0:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        ft = f(t, np.repeat(k, _GK_NODES.size)).reshape(k.size, _GK_NODES.size)
        kronrod = half * np.sum(ft * _GK_K15, axis=1)
        err = np.abs(kronrod - half * np.sum(ft * _GK_G7, axis=1))
        split = (err > eps) & (err > 1e-14 * np.abs(kronrod)) & (depth < _QUAD_MAX_DEPTH)
        split &= (np.bincount(k, split, a.size) <= _QUAD_MAX_PANELS // 2)[k]
        np.add.at(total, k[~split], kronrod[~split])
        # the left and right half of each split panel, side by side
        lo, hi = (np.stack(pair, axis=1)[split].ravel() for pair in ((lo, mid), (mid, hi)))
        k = np.repeat(k[split], 2)
        eps *= 0.5
    return total


def _discounted_utility(
    params: ModelParams, c_of_t: Callable[..., np.ndarray], horizon: np.ndarray
) -> np.ndarray:
    """Present discounted utility of each plan k: c_of_t on [0, horizon[k]], y after.

    ``horizon`` is a 1-D array of horizons, one plan each, and
    ``c_of_t(t, k)`` maps an ndarray of times, with the index k of each
    time's plan, to the plans' consumption there.  The head integrals are
    one adaptive Gauss–Kronrod call; each constant-consumption tail is
    evaluated analytically as e^(-rho*T)*u(y)/rho, with ``math.exp`` per
    horizon.
    """
    rho, gam, y = params.rho, params.gamma, params.y
    heads = _gauss_kronrod(
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


# perturbed_path_values's plans: their amplitude, and each plan's frequency in
# cycles per horizon (ten uniform draws on [1, 8), written out as doubles)
_PERTURBATION = 0.05
_PERTURBATION_CYCLES = (
    4.717980841733359, 7.311324807967013, 5.607743348616114, 6.2136749664291,
    5.721664902205905, 3.3725831833491933, 6.674356317774705, 5.97319857372346,
    1.5402462145845388, 3.357423215343582,
)


def perturbed_path_values(params: ModelParams, a0: float) -> tuple[float, list[float]]:
    """Optimality spot check: discounted utility of feasible perturbed plans.

    Ten perturbations multiply the closed-form path by (1 + 0.05*sin(w*t)),
    each w = 2*pi*n/T for a fixed number n of cycles per horizon (the
    module constants above), then rescale by the largest factor that keeps
    the cumulative budget inequality satisfied at every t (capped by budget
    equality at the horizon, with a 1e-6 safety margin for the cumulative
    quadrature).
    The optimum is one ``pdv_utility`` call and the ten plans one
    ``_discounted_utility`` call.  Returns (optimal pdv, list of perturbed
    pdvs); every perturbed value must fall strictly below the optimum.
    """
    T = best_depletion_time(params, a0).T
    if T <= 0.0:
        raise ValueError("perturbed_path_values: need a0 > 0 so the horizon is positive")
    v_star = pdv_utility(params, a0)
    omegas = np.array(_PERTURBATION_CYCLES) * (2.0 * math.pi / T)
    tgrid = np.linspace(0.0, T, 4001)
    base = consumption_from_depletion_time(params, T, tgrid)
    disc = np.exp(-params.r * tgrid)
    # the cumulative budget: integral_0^t e^(-r*tau) c <= a0 - (y/r)(e^(-rt) - 1)
    if params.r == 0.0:
        rhs = a0 + params.y * tgrid[1:]
    else:
        rhs = a0 - params.y * np.expm1(-params.r * tgrid[1:]) / params.r
    dt = np.diff(tgrid)
    scales = []
    for omega in omegas:
        integrand = disc * (base * (1.0 + _PERTURBATION * np.sin(omega * tgrid)))
        cum = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dt)
        scales.append(float(np.min(rhs / cum)) * (1.0 - 1e-6))
    scales = np.array(scales)

    def c_tilde(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        wave = 1.0 + _PERTURBATION * np.sin(omegas[k] * t)
        return scales[k] * consumption_from_depletion_time(params, T, t) * wave

    values = _discounted_utility(params, c_tilde, np.full(omegas.size, T)).tolist()
    return v_star, values


def _anchor_depletion_time(params: ModelParams, a: float) -> float:
    """Exact depletion time at the rate r = rho/(1 + gamma), from assets a >= 0.

    There k = (rho - r)/gamma equals r, and mu(T) = a reads
    s + 1/s - 2 = du with s = e^(rT) and du = B*a/(gamma*y), that is
    (2*sinh(rT/2))^2 = du, so T = (2/r)*asinh(sqrt(du)/2).  It shares no
    code with ``h_numeric``, so it grades that inversion at r > 0.
    """
    if params.r != params.rho / (1.0 + params.gamma):
        raise ValueError(f"_anchor_depletion_time: need r = rho/(1 + gamma), got r={params.r}")
    du = (params.r * (params.gamma - 1.0) + params.rho) * a / (params.gamma * params.y)
    return 2.0 / params.r * math.asinh(math.sqrt(du) / 2.0)


# The stencils' points as offsets (i, j) in units of the steps (ha, hy)
_AXES = tuple(ij for s in (0.5, -0.5, 1.0, -1.0) for ij in ((s, 0.0), (0.0, s)))
_CORNERS = tuple((i, j) for s in (0.5, 1.0) for i in (s, -s) for j in (s, -s))


def _on_stencil(fn: Callable, point: tuple, step: tuple, offsets: tuple) -> dict:
    # fn at (a + i*ha, y + j*hy) for each offset (i, j), in one call with them stacked first;
    # i and j are 0 or signed powers of two, so a point is bit for bit a + h at h = i*ha
    (a, y), (ha, hy) = point, step
    i, j = np.array(offsets).T.reshape((2, -1) + (1,) * np.broadcast(a, y, ha, hy).ndim)
    at_a, at_y = a + i * ha, y + j * hy
    return dict(zip(offsets, np.broadcast_to(fn(at_a, at_y), np.broadcast(at_a, at_y).shape)))


def fd_gradient(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    point: tuple[float, float],
    step: tuple[float, float],
) -> tuple[float, float]:
    """Central-difference gradient of fn(a, y), Richardson-extrapolated once.

    ``step`` is the pair of absolute steps (ha, hy), one per coordinate.  ``fn``
    must take ndarrays a and y that broadcast: it is called once, on all 8 points.
    ``point`` and ``step`` may hold arrays of centres; each entry is then an array.
    """
    ha, hy = step
    f = _on_stencil(fn, point, step, _AXES)
    central = lambda i, j, h: (f[i, j] - f[-i, -j]) / (2.0 * h)
    d_da = (4.0 * central(0.5, 0.0, 0.5 * ha) - central(1.0, 0.0, ha)) / 3.0
    d_dy = (4.0 * central(0.0, 0.5, 0.5 * hy) - central(0.0, 1.0, hy)) / 3.0
    return d_da, d_dy


def fd_hessian(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    point: tuple[float, float],
    step: tuple[float, float],
) -> tuple[float, float, float]:
    """Second-order central stencils for (d2_aa, d2_ay, d2_yy), Richardson-extrapolated once.

    As ``fd_gradient``, with ``fn`` called once on the 17 stencil points.
    """
    ha, hy = step
    f = _on_stencil(fn, point, step, ((0.0, 0.0),) + _AXES + _CORNERS)
    second = lambda i, j, h: (f[i, j] - 2.0 * f[0.0, 0.0] + f[-i, -j]) / (h * h)
    cross = lambda s, h1, h2: (f[s, s] - f[s, -s] - f[-s, s] + f[-s, -s]) / (4.0 * h1 * h2)
    d2_aa = (4.0 * second(0.5, 0.0, 0.5 * ha) - second(1.0, 0.0, ha)) / 3.0
    d2_yy = (4.0 * second(0.0, 0.5, 0.5 * hy) - second(0.0, 1.0, hy)) / 3.0
    d2_ay = (4.0 * cross(0.5, 0.5 * ha, 0.5 * hy) - cross(1.0, ha, hy)) / 3.0
    return d2_aa, d2_ay, d2_yy


_DENSITY_RATIO = 5.0  # _make_asset_grid's node density below dense_below over that above


def _make_asset_grid(a_max: float, n: int, dense_below: float) -> np.ndarray:
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


# grid_dp's cap on its sweeps.  Finite depletion stops them after about as many
# sweeps as the top node's plan takes periods to reach a = 0.
_DP_MAX_SWEEPS = 100_000


def grid_dp(params: ModelParams, delta: float, a_grid: np.ndarray) -> _DpSolution:
    """Endogenous-grid solve of the discrete model on ``a_grid`` (must start at 0).

    Bellman equation V(a) = max_c delta*u(c) + beta*V(a'), beta = 1/(1 + rho*delta), on the one
    budget, a' = (1 + r*delta)*a + delta*(y - c) with 0 <= a' <= a_grid[-1], that
    ``figures.discrete_policy`` solves in closed form.  Each sweep (Carroll 2006) reads the policy on
    the grid as next period's c'(a'); the Euler equation gives c = (beta*(1 + r*delta))^(-1/gamma)*c'
    and the endogenous a = (a' - delta*(y - c))/(1 + r*delta).  ``np.interp`` maps the pairs (a, a')
    back to the grid, where c is the budget's remainder, a' clamped to 0 below the first endogenous
    point (the binding constraint c = y + (1 + r*delta)*a/delta) and to a_grid[-1] above the last.
    The sweeps start from consuming all cash and stop when the policy repeats bit for bit, which finite
    depletion brings about; ``_DP_MAX_SWEEPS`` sweeps without it raise RuntimeError.  ``value`` is the
    value of the policy's own plan, followed through the same map until a' = 0, and c = y from then
    on; a plan still short of a = 0 after ``iterations`` steps raises RuntimeError.
    """
    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0.0):
        raise ValueError("grid_dp: a_grid must be a strictly increasing 1-D array")
    if a[0] != 0.0:
        raise ValueError("grid_dp: a_grid must start at 0 to cover the constraint")
    rho, r, gam, y = params.rho, params.r, params.gamma, params.y
    beta = 1.0 / (1.0 + rho * delta)
    gross = 1.0 + r * delta
    growth = (beta * gross) ** (-1.0 / gam)
    cash = y + gross * a / delta
    policy = cash
    for it in range(1, _DP_MAX_SWEEPS + 1):
        a_end = (a - delta * (y - growth * policy)) / gross
        new = cash - np.interp(a, a_end, a) / delta
        if np.array_equal(new, policy):
            break
        policy = new
    else:
        raise RuntimeError(f"grid_dp: no convergence after {_DP_MAX_SWEEPS} iterations")
    at, v, discount = a, np.zeros(a.size), 1.0
    for _ in range(it):
        a_next = np.interp(at, a_end, a)
        v += discount * delta * crra_utility(y + (gross * at - a_next) / delta, gam)
        at, discount = a_next, discount * beta
    if at.any():
        raise RuntimeError(f"grid_dp: a plan is short of a = 0 after {it} steps")
    v += discount * delta * crra_utility(y, gam) / (1.0 - beta)
    residual = float(np.max(np.abs(new - policy)))  # 0.0: the stop is a bit-for-bit repeat
    return _DpSolution(policy=policy, value=v, iterations=it, sup_norm_residual=residual)
