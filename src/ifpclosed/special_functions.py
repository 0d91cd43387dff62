"""Real-branch Lambert W kernel.

Evaluates the lower real branch W-1 of the Lambert W function, the inverse
of w -> w*exp(w) on [-1/e, 0).  Every closed form in this package bottoms
out here, so the target is near machine precision: residual
|w*exp(w) - x| <= 1e-13*|x|.

The closed forms use the exponent form: ``wm1_neg_exp_offset`` returns the
branch offset 1 + W-1(-exp(-(1 + du))).  It stays accurate arbitrarily
deep into the tail where -exp(-u) itself would underflow, and it sidesteps
the catastrophic cancellation of forming 1 + e*x near the branch point.
Near the branch point the residual is a series free of v + log1p(-v)'s
cancellation; v is within 2.7e-16 relative of 50-digit mpmath on 2701
log-spaced du in [1e-15, 1e12] on both paths (1.8 ulp at du ~ 0.1-1).

Algorithm: series / asymptotic initial guess followed by Halley iteration
(Corless, Gonnet, Hare, Jeffrey & Knuth 1996 style) on the log form of the
defining equation, written in the branch offset so it is well scaled on
the whole branch.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BRANCH_EPS", "lambert_wm1", "wm1_neg_exp_offset"]

# The branch point of W-1: W-1(-1/e) = -1.
_X_BRANCH = -1.0 / math.e

# Inputs within 4 ulp of -1/e are snapped onto the branch point: the double
# nearest -1/e is itself ~1 ulp off the real number, so exact-arithmetic
# callers (a = 0 downstream) must land inside this band.
BRANCH_EPS = 4.0 * math.ulp(1.0 / math.e)

# Same snap radius expressed in the exponent variable u of -exp(-u);
# |du/dx| = e at the branch point, so this matches BRANCH_EPS to first order.
_U_EPS = 4.0 * math.ulp(1.0)

_MAX_ITER = 30
# Halley is cubic: a step of relative size m leaves an error ~m^3, so a step this small is final.
_STOP = 1e-6
_NEAR_BRANCH = -0.5  # above this v the residual is summed by _phi_near_branch
_ndarray = np.ndarray  # the array paths take exactly this type; bound once for a cheap test
_BLOCK = 2048


def _wm1_offset_guess(du: float) -> float:
    """Initial guess for v = 1 + W-1(-exp(-(1 + du))), du > 0.

    Below du = 0.6 the branch series in p = sqrt(-2*expm1(-du)) to p^6, from
    du = 0.6 on the asymptotic form w ~ -u - L - L/u + L(L-2)/(2u^2) in
    u = 1 + du and L = log(u), written so no product overflows at du ~ 1e308.
    Either is within 2% of v where they meet, and far closer away from there.
    """
    if du < 0.6:
        p = math.sqrt(-2.0 * math.expm1(-du))
        # 1 + W-1 = -p - p^2/3 - 11 p^3/72 - 43 p^4/540 - 769 p^5/17280 - 221 p^6/8505 - ...
        tail = 43 / 540 + p * (769 / 17280 + p * (221 / 8505))
        return -p * (1.0 + p * (1 / 3 + p * (11 / 72 + p * tail)))
    log_u = math.log1p(du)
    l_u = log_u / (1.0 + du)
    return l_u * ((0.5 * log_u - 1.0) / (1.0 + du)) - l_u - log_u - du


def _phi_near_branch(v, du):
    # phi = v + log1p(-v) + du without cancellation: log1p(-v) = -2*atanh(s), s = v/(2 - v), so
    # v + log1p(-v) = -v^2/2 - s*(v^2/2 + 2s^2*(1/3 + s^2/5 + ... + s^20/23)), to 1e-17 for v > -0.5
    s = v / (2.0 - v)
    s2 = s * s
    tail = 1 / 13 + s2 * (1 / 15 + s2 * (1 / 17 + s2 * (1 / 19 + s2 * (1 / 21 + s2 / 23))))
    tail = 1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (1 / 9 + s2 * (1 / 11 + s2 * tail))))
    half_v2 = 0.5 * v * v
    return (du - half_v2) - s * (half_v2 + 2.0 * s2 * tail)


def wm1_neg_exp_offset(du: float | np.ndarray) -> float | np.ndarray:
    """The branch offset v = 1 + W-1(-exp(-(1 + du))) for du >= 0.

    Iterating in the offset keeps v relatively accurate near the branch
    point (measured bounds in the module docstring), where w itself would
    only be known to an absolute ulp of 1; downstream formulas that divide
    by 1 + w need exactly this.  Solves phi(v) = v + log1p(-v) + du = 0
    (the log form of w*exp(w) = -exp(-u)) by Halley's method until a step
    moves v by at most ``_STOP`` relative; exact 0.0 is returned for du within
    ``_U_EPS`` of the branch point.  Valid for any finite du, in particular far
    beyond du ~ 745 where -exp(-u) underflows to -0.0, and no intermediate
    overflows; du = inf (an overflowed input) is a ValueError.

    An ndarray ``du`` takes one masked numpy Halley iteration: the same guess
    and step, each element stopping by the rule above.  99.3% of values are
    bit-equal to the scalar kernel's and w = v - 1 agrees to 2 ulp; where
    numpy's log1p rounds apart from libm's (du ~ 1e-3..10), v differs by up to
    5.1e-16 relative (4e5 du in 1e-14..1e12).
    """
    if type(du) is _ndarray:
        return _wm1_offset_array(du)
    if not -_U_EPS <= du < math.inf:
        if du == math.inf:
            raise ValueError("wm1_neg_exp_offset: du overflowed to inf")
        raise ValueError(f"wm1_neg_exp_offset: need du >= 0, got du={du!r}")
    if du <= _U_EPS:
        return 0.0
    v = _wm1_offset_guess(du)
    prev_move = math.inf
    for it in range(_MAX_ITER):
        # Grouping keeps the leading cancellation exact in each regime: near
        # the branch the series has none; then v and the linear part of
        # log1p(-v) cancel; far out v + du cancels to -log(-w) within Sterbenz range.
        if v > _NEAR_BRANCH:
            phi = _phi_near_branch(v, du)
        elif v > -2.5:
            phi = (v + math.log1p(-v)) + du
        else:
            phi = (v + du) + math.log1p(-v)
        # Halley on phi' = -v/(1 - v), phi'' = -1/(1 - v)^2, with t = phi/v: no term overflows
        t = phi / v
        v_new = v + t * (1.0 - v) / (1.0 + 0.5 * t / v)
        if v_new >= 0.0:  # overshot past the branch value; bisect toward it
            v_new = 0.5 * v
        move = abs(v_new - v)
        # Second clause: steps have hit the rounding floor of phi.
        if move <= -_STOP * v_new or (it >= 2 and move >= prev_move):
            return v_new
        prev_move = move
        v = v_new
    return v  # still moving at the cap: the last iterate


def _wm1_offset_array(du: np.ndarray) -> np.ndarray:
    """``wm1_neg_exp_offset`` over an array, in blocks of ``_BLOCK`` to bound its temporaries."""
    for bad in du[~((du >= -_U_EPS) & (du < math.inf))][:1]:
        wm1_neg_exp_offset(float(bad))  # raises the scalar path's error
    out = np.zeros(du.shape)
    flat, live = out.reshape(-1), np.flatnonzero(du > _U_EPS)
    for start in range(0, live.size, _BLOCK):
        idx = live[start : start + _BLOCK]
        d = du.reshape(-1)[idx].astype(float)
        p = np.sqrt(-2.0 * np.expm1(-np.minimum(d, 0.6)))  # _wm1_offset_guess, element-wise
        tail = 43 / 540 + p * (769 / 17280 + p * (221 / 8505))
        v = -p * (1.0 + p * (1 / 3 + p * (11 / 72 + p * tail)))
        log_u = np.log1p(d)
        l_u = log_u / (1.0 + d)
        v = np.where(d < 0.6, v, l_u * ((0.5 * log_u - 1.0) / (1.0 + d)) - l_u - log_u - d)
        prev_move = math.inf
        for it in range(_MAX_ITER):
            log1p_neg_v = np.log1p(-v)
            phi = np.where(v > -2.5, (v + log1p_neg_v) + d, (v + d) + log1p_neg_v)
            near = v > _NEAR_BRANCH
            if near.any():
                phi[near] = _phi_near_branch(v[near], d[near])
            t = phi / v
            v_new = v + t * (1.0 - v) / (1.0 + 0.5 * t / v)
            v_new = np.where(v_new >= 0.0, 0.5 * v, v_new)
            move = np.abs(v_new - v)
            done = (move <= -_STOP * v_new) | ((it >= 2) & (move >= prev_move))  # v_new < 0
            flat[idx[done]] = v_new[done]
            idx, d, v, prev_move = idx[~done], d[~done], v_new[~done], move[~done]
            if not idx.size:
                break
        flat[idx] = v  # still moving at the cap: the last iterate, as in the scalar path
    return out


def lambert_wm1(x: float | np.ndarray) -> float | np.ndarray:
    """Lower real branch W-1 on [-1/e, 0): the solution w <= -1 of w*exp(w) = x.

    Inputs within ``BRANCH_EPS`` of -1/e (including slightly below, where
    the floating representation of -1/e may put exact-arithmetic callers)
    return exactly -1.0.  An ndarray ``x`` is evaluated element-wise with one
    array kernel call.

    Raises
    ------
    ValueError
        If x < -1/e - BRANCH_EPS or x >= 0 (including -0.0).
    """
    if type(x) is _ndarray:
        for bad in x[~((x >= _X_BRANCH - BRANCH_EPS) & (x < 0.0))][:1]:
            lambert_wm1(float(bad))  # raises the scalar path's error
        du = np.where(x <= _X_BRANCH + BRANCH_EPS, 0.0, -np.log(-x) - 1.0)
        return wm1_neg_exp_offset(du) - 1.0
    if math.isnan(x) or not x < 0.0:
        raise ValueError(f"lambert_wm1: need -1/e <= x < 0, got x={x!r}")
    if x < _X_BRANCH - BRANCH_EPS:
        raise ValueError(f"lambert_wm1: x={x!r} below the branch point -1/e")
    if x <= _X_BRANCH + BRANCH_EPS:
        return -1.0
    return wm1_neg_exp_offset(-math.log(-x) - 1.0) - 1.0

