"""The asset-depletion map mu(T) and its inverse h(a; y).

mu(T) is the level of initial assets that the optimal plan exhausts in
exactly T time units; h = mu^(-1) maps assets to the depletion time.  Under
impatience (rho > r) mu is a smooth, strictly increasing, strictly convex
bijection of [0, inf), so h exists, is strictly increasing and concave.

h is computed three ways:

* ``h_closed_r0``     -- exact Lambert-W closed form, r = 0 only
* ``h_approx_small_r`` -- closed-form approximation valid for r ~ 0
* ``h_numeric``       -- safeguarded Newton inversion of mu, any r >= 0;
                         the oracle the closed forms are checked against

plus the discrete-time counterpart ``mu_discrete`` built from the implicit
recursion on a time grid of step delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import ModelParams
from .special_functions import wm1_neg_exp_offset

__all__ = [
    "R_SWITCH",
    "DepletionTime",
    "KnotSequence",
    "best_depletion_time",
    "h_approx_small_r",
    "h_closed_r0",
    "h_numeric",
    "mu",
    "mu_discrete",
    "mu_prime",
    "step_growth_factor",
]

# Below this rate the general-r formula for mu is evaluated as its r -> 0
# limit: the y/r terms cancel catastrophically, while the limit form is exact
# to O(r) < 1e-12 relative.
R_SWITCH = 1e-12


@dataclass(frozen=True)
class DepletionTime:
    """Time T >= 0 to run initial assets down to zero, with its provenance."""

    T: float
    method: str  # "exact_r0" | "approx_small_r" | "numeric"


@dataclass(frozen=True)
class KnotSequence:
    """Discrete depletion thresholds mu(k*delta), k = 0..n, with mu(0) = 0."""

    delta: float
    times: np.ndarray
    assets: np.ndarray


def mu(params: ModelParams, T: float) -> float:
    """Assets exhausted in exactly T: the solution of the depletion ODE.

    General r: mu(T) = (gamma*y/B)*(e^((rho-r)T/gamma) - e^(-rT)) + y*expm1(-rT)/r
    with B = r*(gamma-1) + rho, rearranged from the textbook display so no
    y/r term survives on its own.  For r <= R_SWITCH the r = 0 limit
    (y/b)*(e^(bT) - 1 - bT), b = rho/gamma, is used, with a short series
    below b*T < 1e-3 to keep full relative precision near T = 0.
    """
    if T < 0.0:
        raise ValueError(f"mu: need T >= 0, got T={T}")
    rho, r, gam, y = params.rho, params.r, params.gamma, params.y
    if r <= R_SWITCH:
        bt = (rho / gam) * T
        if bt < 1e-3:
            # e^z - 1 - z = z^2 (1/2 + z/6 + z^2/24 + z^3/120 + z^4/720) + O(z^7)
            tail = 0.5 + bt * (1.0 / 6.0 + bt * (1.0 / 24.0 + bt * (1.0 / 120.0 + bt / 720.0)))
            return (y * gam / rho) * bt * bt * tail
        return (y * gam / rho) * (math.expm1(bt) - bt)
    big_b = r * (gam - 1.0) + rho
    e1m = math.expm1((rho - r) * T / gam)
    e2m = math.expm1(-r * T)
    return (gam * y / big_b) * (e1m - e2m) + y * e2m / r


def mu_prime(params: ModelParams, T: float) -> float:
    """dmu/dT = y*(rho-r)/B * (e^((rho-r)T/gamma) - e^(-rT)); 0 at T = 0."""
    if T < 0.0:
        raise ValueError(f"mu_prime: need T >= 0, got T={T}")
    rho, r, gam, y = params.rho, params.r, params.gamma, params.y
    if r <= R_SWITCH:
        return y * math.expm1((rho / gam) * T)
    big_b = r * (gam - 1.0) + rho
    return y * (rho - r) / big_b * (math.expm1((rho - r) * T / gam) - math.expm1(-r * T))


def h_numeric(params: ModelParams, a: float) -> DepletionTime:
    """Invert mu numerically: the T >= 0 with |mu(T) - a| <= 1e-12*max(a, y).

    Safeguarded Newton inside a bracket grown by doubling from [0, 1];
    steps leaving the bracket fall back to bisection.  Seeded from the
    second-order Taylor expansion of mu at the origin,
    T ~ sqrt(2*a*gamma/(rho*y)), where mu vanishes quadratically and pure
    Newton would stall.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"h_numeric: need finite a >= 0, got a={a}")
    if a == 0.0:
        return DepletionTime(0.0, "numeric")
    lo, hi = 0.0, 1.0
    for _ in range(1100):
        if mu(params, hi) >= a:
            break
        lo = hi
        hi *= 2.0
    else:  # pragma: no cover - unreachable for finite a
        raise RuntimeError("h_numeric: failed to bracket the depletion time")
    T = math.sqrt(2.0 * a * params.gamma / (params.rho * params.y))
    if not lo < T < hi:
        T = 0.5 * (lo + hi)
    tol = 1e-12 * max(a, params.y)
    for _ in range(200):
        g = mu(params, T) - a
        if g > 0.0:
            hi = T
        elif g < 0.0:
            lo = T
        else:
            break
        d = mu_prime(params, T)
        T_new = T - g / d if d > 0.0 and math.isfinite(d) else math.nan
        if not math.isfinite(T_new) or not lo < T_new < hi:
            T_new = 0.5 * (lo + hi)
        if abs(T_new - T) <= 1e-15 * (1.0 + abs(T_new)):
            T = T_new
            break
        T = T_new
    if abs(mu(params, T) - a) > tol:
        raise RuntimeError(
            f"h_numeric: no convergence after 200 iterations at a={a} (this is a bug)"
        )
    return DepletionTime(T, "numeric")


def _r0_branch(params: ModelParams, a: float) -> tuple[float, float, float]:
    """(du, v, T) at r = 0: the exponent offset, the branch offset, the depletion time.

    du = rho*a/(gamma*y) and v = 1 + W-1(-e^(-(1 + du))), which the kernel
    returns at full relative precision without forming the underflowing
    argument.  T = -(a + gamma*y/rho)/y - (gamma/rho)*w with w = v - 1;
    because w*e^w = -e^(-(1 + du)) forces -(1 + du) - w = log(-w), the same
    T equals (gamma/rho)*log1p(-v), which is free of the large-argument
    cancellation of the literal form and exact at a = 0 (v = 0 there).
    """
    du = params.rho * a / (params.gamma * params.y)
    v = wm1_neg_exp_offset(du)
    return du, v, (params.gamma / params.rho) * math.log1p(-v) + 0.0  # +0.0 normalizes -0.0


def h_closed_r0(params: ModelParams, a: float) -> DepletionTime:
    """Exact closed form of the depletion time at r = 0.

    T = -(a + gamma*y/rho)/y - (gamma/rho) * W-1(f(a; y)) with
    f(a; y) = -exp(-(rho/(gamma*y))*(a + gamma*y/rho)).  Rejects r != 0:
    inverting the general-r mu in closed form would require inverting a sum
    of exponentials with different exponents.
    """
    if params.r != 0.0:
        raise ValueError(f"h_closed_r0: requires r = 0, got r={params.r}")
    if not 0.0 <= a < math.inf:
        raise ValueError(f"h_closed_r0: need finite a >= 0, got a={a}")
    return DepletionTime(_r0_branch(params, a)[2], "exact_r0")


def h_approx_small_r(params: ModelParams, a: float) -> DepletionTime:
    """Closed-form approximation of the depletion time, valid for r ~ 0.

    T ~ -(a + y/b_r)/(d_r*y) - W-1(f_r(a; y))/(b_r*d_r) with
    f_r(a; y) = -exp(-(b_r/y)*(a + y/b_r)), b_r = (r*(gamma-1) + rho)/gamma
    and d_r = (rho - r)/(r*(gamma-1) + rho); the o(r) term inside
    a + y/b_r is dropped.  Impatience makes b_r > 0 and d_r in (0, 1].
    Coincides with ``h_closed_r0`` exactly at r = 0, where b_r -> rho/gamma
    and d_r -> 1.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"h_approx_small_r: need finite a >= 0, got a={a}")
    if params.r == 0.0:
        return DepletionTime(_r0_branch(params, a)[2], "approx_small_r")
    big_b = params.r * (params.gamma - 1.0) + params.rho
    b_r = big_b / params.gamma
    d_r = (params.rho - params.r) / big_b
    v = wm1_neg_exp_offset(b_r * a / params.y)
    return DepletionTime(math.log1p(-v) / (b_r * d_r) + 0.0, "approx_small_r")


def best_depletion_time(params: ModelParams, a: float) -> DepletionTime:
    """Depletion time by the best available route: exact at r = 0, numeric otherwise."""
    if params.r == 0.0:
        return h_closed_r0(params, a)
    return h_numeric(params, a)


def step_growth_factor(params: ModelParams, delta: float) -> float:
    """Per-step consumption growth ((1+r*delta)/(1+rho*delta))^(-1/gamma) > 1."""
    if delta <= 0.0:
        raise ValueError(f"step_growth_factor: need delta > 0, got {delta}")
    return ((1.0 + params.r * delta) / (1.0 + params.rho * delta)) ** (-1.0 / params.gamma)


def mu_discrete(params: ModelParams, delta: float, n_knots: int) -> KnotSequence:
    """Discrete-time depletion thresholds from the implicit recursion.

    Solves mu(k*delta) + (delta*y - mu((k-1)*delta))/(1 + r*delta)
    = G^k * delta*y forward from mu(0) = 0, where G is the per-step
    consumption growth factor.  The sequence is strictly increasing.
    """
    if delta <= 0.0:
        raise ValueError(f"mu_discrete: need delta > 0, got {delta}")
    if n_knots < 1:
        raise ValueError(f"mu_discrete: need n_knots >= 1, got {n_knots}")
    growth = step_growth_factor(params, delta)
    dy = delta * params.y
    shrink = 1.0 + params.r * delta
    rhs = dy * growth ** np.arange(n_knots + 1)
    assets = np.empty(n_knots + 1)
    assets[0] = 0.0
    for k in range(1, n_knots + 1):
        assets[k] = rhs[k] - (dy - assets[k - 1]) / shrink
    return KnotSequence(delta=delta, times=delta * np.arange(n_knots + 1.0), assets=assets)
