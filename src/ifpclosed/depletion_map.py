"""The asset-depletion map mu(T) and its inverse h(a; y).

mu(T) is the level of initial assets that the optimal plan exhausts in
exactly T time units; h = mu^(-1) maps assets to the depletion time.  Under
impatience (rho > r) mu is a smooth, strictly increasing, strictly convex
bijection of [0, inf), so h exists, is strictly increasing and concave.  One
expression gives mu at every r >= 0, within 3.5e-13 relative of 60-digit
mpmath (see ``mu``); mu and mu' share one body, which h_numeric calls once a step.

h is computed three ways:

* ``h_closed_r0``     -- exact Lambert-W closed form, r = 0 only
* ``h_approx_small_r`` -- closed-form approximation valid for r ~ 0
* ``h_numeric``       -- safeguarded Newton inversion of mu, any r >= 0;
                         the oracle the closed forms are checked against
"""

from __future__ import annotations

import math
from collections import namedtuple

from .model_core import ModelParams
from .special_functions import _is_ndarray, _wm1_offset_array, wm1_neg_exp_offset

__all__ = [
    "DepletionTime",
    "best_depletion_time",
    "h_approx_small_r",
    "h_closed_r0",
    "h_numeric",
    "mu",
    "mu_prime",
]


class DepletionTime(namedtuple("DepletionTime", "T method")):
    """Time T >= 0 to run initial assets down to zero, with its provenance.

    method: "exact_r0" | "approx_small_r" | "numeric"
    """

    __slots__ = ()


def _mu_pair(params: ModelParams, T: float) -> tuple:
    """(mu(T), mu_prime(T)) at T >= 0 (unchecked) from one expm1 of each exponent."""
    if T == math.inf:
        return math.inf, math.inf
    rho, r, gam, y = params
    x, z, big_b = (rho - r) * T / gam, -r * T, r * (gam - 1.0) + rho
    try:
        em_x = math.expm1(x)
    except OverflowError:
        return math.inf, math.inf
    em_z = math.expm1(z)
    slope = y * (rho - r) / big_b * (em_x - em_z)
    if x - z < 1e-3:
        h1 = x + z
        h2 = x * h1 + z * z
        h3 = x * h2 + z * z * z
        series = 0.5 + h1 / 6.0 + h2 / 24.0 + h3 / 120.0 + (x * h3 + z * z * z * z) / 720.0
        return gam * y / big_b * x * (x - z) * series, slope
    return gam * y / big_b * (em_x - x * (em_z / z if z else 1.0)), slope


def mu(params: ModelParams, T: float) -> float:
    """Assets exhausted in exactly T: the solution of the depletion ODE.

    mu(T) = (gamma*y/B)*(expm1(x) - x*E(z)) at every r >= 0, with x = (rho-r)*T/gamma,
    z = -r*T, E(z) = expm1(z)/z, E(0) = 1 and B = r*(gamma-1) + rho: the textbook
    (gamma*y/B)*(e^x - e^z) + y*expm1(z)/r rearranged through x - z = B*T/gamma, so
    no y/r term is left.  Below x - z < 1e-3 the bracket is summed as
    x*(x-z)*sum_n h_n(x, z)/(n+2)!, n <= 4, h_n the complete homogeneous
    polynomials, so the error stays near rounding as T -> 0; just above the switch
    the bracket cancels by about 2/(x - z), and mu is off by up to 3.5e-13 relative.
    Returns +inf at T = inf and once e^x overflows (T beyond ~709*gamma/(rho-r)).
    """
    if not T >= 0.0:
        raise ValueError(f"mu: need T >= 0, got T={T}")
    return _mu_pair(params, T)[0]


def mu_prime(params: ModelParams, T: float) -> float:
    """dmu/dT = y*(rho-r)/B * (e^((rho-r)T/gamma) - e^(-rT)); 0 at T = 0.

    Exact at every r >= 0, as the two exponentials never cancel.  +inf at T = inf and
    once e^x overflows; as mu'/mu -> (rho-r)/gamma, it overflows before mu when that is > 1.
    """
    if not T >= 0.0:
        raise ValueError(f"mu_prime: need T >= 0, got T={T}")
    return _mu_pair(params, T)[1]


def h_numeric(params: ModelParams, a: float) -> DepletionTime:
    """Invert mu numerically: the T >= 0 with |mu(T) - a| <= 1e-12*max(a, y).

    Safeguarded Newton inside a bracket grown by doubling from [0, 1];
    steps leaving the bracket fall back to bisection, and iteration stops
    once a step from an iterate within that bound moves T by at most 4e-15
    relative; if that step lands outside it (past x = (rho-r)T/gamma ~ 250
    mu magnifies T's last ulps), the iterate it started from is returned.  Seeded
    from the second-order Taylor expansion of mu at the origin,
    mu(T) ~ (rho-r)*y*T^2/(2*gamma), where mu vanishes quadratically and
    pure Newton would stall.  Each step takes mu and mu' from one body, one expm1
    of each exponent.  Raises ``ValueError`` past the largest mu(T) a double holds
    (``mu`` reads +inf from there on).
    """
    if not isinstance(a, float) and _is_ndarray(a):
        raise ValueError("h_numeric: the numeric inversion takes one point at a time, got an array")
    if not 0.0 <= a < math.inf:
        raise ValueError(f"h_numeric: need finite a >= 0, got a={a}")
    if a == 0.0:
        return DepletionTime(0.0, "numeric")
    lo, hi = 0.0, 1.0
    while _mu_pair(params, hi)[0] < a:  # ends: mu(inf) = inf
        lo = hi
        hi *= 2.0
    # a float seed, since a numpy-scalar a would warn past the double range; where
    # (rho - r)*y underflows to 0 there is none, and the bracket's midpoint serves
    scale = (params.rho - params.r) * params.y
    T = math.sqrt(2.0 * float(a) * params.gamma / scale) if scale else math.inf
    if not lo < T < hi:
        T = 0.5 * (lo + hi)
    tol = 1e-12 * max(a, params.y)
    T_prev = T
    # x = (rho-r)*T/gamma <= 710, and Newton from mu's overflow edge gains ~1 in x a step
    for _ in range(1000):
        mu_T, d = _mu_pair(params, T)
        g = mu_T - a
        if g > 0.0:
            hi = T
        elif g < 0.0:
            lo = T
        else:
            break
        # d = inf once mu' overflows, before mu if (rho-r)/gamma > 1; inf/inf warns on numpy scalars
        T_new = T - g / d if 0.0 < d < math.inf else math.nan
        if not lo < T_new < hi:
            T_new = 0.5 * (lo + hi)
        if abs(T_new - T) <= 4e-15 * T_new and (-tol <= g <= tol or T_new == T):
            T_prev, T = T, T_new
            break
        T = T_new
    if abs(_mu_pair(params, T)[0] - a) > tol:
        if abs(_mu_pair(params, T_prev)[0] - a) <= tol:  # the stop's own iterate was within
            return DepletionTime(T_prev, "numeric")
        if _mu_pair(params, hi)[0] == math.inf:
            limit = _mu_pair(params, lo)[0]
            raise ValueError(f"h_numeric: a={a} is past the range of mu, which ends near {limit:.6g}")
        raise RuntimeError(f"h_numeric: no convergence after 1000 iterations at a={a} (this is a bug)")
    return DepletionTime(T, "numeric")


def _branch(params: ModelParams, a: float | np.ndarray) -> tuple:
    """(du, v, log1p(-v), T): exponent offset, branch offset, its log, closed-form depletion time.

    du = B*a/(gamma*y) with B = r*(gamma-1) + rho, and v = 1 + W-1(-e^(-(1 + du))),
    which the kernel returns without forming the underflowing argument (its error
    near the branch point is in ``special_functions``).  T = (gamma/B)*log1p(-v)/d_r
    with d_r = (rho - r)/B is the small-r closed form; at r = 0, B = rho and
    d_r = 1 exactly, so it is the exact Lambert-W solution
    -(a + gamma*y/rho)/y - (gamma/rho)*w, w = v - 1, rewritten through
    -(1 + du) - w = log(-w): free of the large-argument cancellation of the
    literal form and exact at a = 0 (v = 0 there).  An ndarray ``a`` gives
    arrays of its shape from one array kernel call; a du that overflows to inf
    is a ValueError.
    """
    big_b = params.r * (params.gamma - 1.0) + params.rho
    if not isinstance(a, float) and _is_ndarray(a):
        import numpy as np
        if a.ndim == 0:  # numpy turns 0-d results into scalars, which take the scalar path
            return tuple(x.reshape(()) for x in _branch(params, a.reshape(1)))
        with np.errstate(over="ignore"):  # an overflowed du is the ValueError below
            du = big_b * a / (params.gamma * params.y)
        for bad in a[~((a >= 0.0) & (du < math.inf))][:1]:
            _branch(params, float(bad))  # raises the scalar path's error
        v = _wm1_offset_array(du)  # du is checked: finite and >= 0
        log1p_neg_v = np.log1p(-v)
    else:
        if not 0.0 <= a < math.inf:
            raise ValueError(f"depletion time: need finite a >= 0, got a={a}")
        du = big_b * a / (params.gamma * params.y)
        try:
            v = wm1_neg_exp_offset(du)
        except ValueError:  # du >= 0 here, so only an overflowed one
            raise ValueError(f"depletion time: B*a/(gamma*y) overflows a double at a={a}") from None
        log1p_neg_v = math.log1p(-v)
    T = (params.gamma / big_b) * log1p_neg_v / ((params.rho - params.r) / big_b)
    return du, v, log1p_neg_v, T + 0.0  # +0.0 normalizes -0.0


def h_closed_r0(params: ModelParams, a: float | np.ndarray) -> DepletionTime:
    """Exact closed form of the depletion time at r = 0.

    T = -(a + gamma*y/rho)/y - (gamma/rho) * W-1(f(a; y)) with
    f(a; y) = -exp(-(rho/(gamma*y))*(a + gamma*y/rho)).  Rejects r != 0:
    inverting the general-r mu in closed form would require inverting a sum
    of exponentials with different exponents.
    """
    if params.r != 0.0:
        raise ValueError(f"h_closed_r0: requires r = 0, got r={params.r}")
    return DepletionTime(_branch(params, a)[3], "exact_r0")


def h_approx_small_r(params: ModelParams, a: float | np.ndarray) -> DepletionTime:
    """Closed-form approximation of the depletion time, valid for r ~ 0.

    T ~ -(a + y/b_r)/(d_r*y) - W-1(f_r(a; y))/(b_r*d_r) with
    f_r(a; y) = -exp(-(b_r/y)*(a + y/b_r)), b_r = (r*(gamma-1) + rho)/gamma
    and d_r = (rho - r)/(r*(gamma-1) + rho); the o(r) term inside
    a + y/b_r is dropped.  Impatience makes b_r > 0 and d_r in (0, 1].
    Coincides with ``h_closed_r0`` bit for bit at r = 0, where
    b_r -> rho/gamma and d_r -> 1.
    """
    return DepletionTime(_branch(params, a)[3], "approx_small_r")


def best_depletion_time(params: ModelParams, a: float) -> DepletionTime:
    """Depletion time by the best available route: exact at r = 0, numeric otherwise."""
    if params.r == 0.0:
        return h_closed_r0(params, a)
    return h_numeric(params, a)

