"""Real-branch Lambert W kernel.

Evaluates the lower real branch W-1 of the Lambert W function, the inverse
of w -> w*exp(w) on [-1/e, 0).  Every closed form in this package bottoms
out here, so the target is near machine precision: residual
|w*exp(w) - x| <= 1e-13*|x|.

The closed forms use the exponent form: ``wm1_neg_exp_offset`` returns the
branch offset 1 + W-1(-exp(-(1 + du))).  It stays accurate arbitrarily
deep into the tail where -exp(-u) itself would underflow, and it sidesteps
the catastrophic cancellation of forming 1 + e*x near the branch point.
Near the branch point v + log1p(-v) cancels to about -v^2/2 in the residual,
and v's relative error against 60-digit mpmath grows: 2.7e-15 at du = 1e-4,
5.8e-13 at 1e-8, 4.1e-11 at 1e-12 and 6.4e-10 at 1e-15.

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
_ndarray = np.ndarray  # the array paths take exactly this type; bound once for a cheap test
_BLOCK = 2048


def _wm1_offset_guess(du: float) -> float:
    """Initial guess for v = 1 + W-1(-exp(-(1 + du))), du > 0.

    Near the branch point (du ~ 0) a truncated series in
    p = sqrt(-2*expm1(-du)) is used, whose relative error in the offset
    shrinks with du.  Away from the branch point the asymptotic form
    -w ~ u + log(u), u = 1 + du, applies.
    """
    if du < 1.0:
        p = math.sqrt(-2.0 * math.expm1(-du))
        # 1 + W-1 = -p - p^2/3 - 11 p^3/72 - 43 p^4/540 - ...
        return -p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0 + p * (43.0 / 540.0))))
    return -(du + math.log1p(du))


def wm1_neg_exp_offset(du: float | np.ndarray) -> float | np.ndarray:
    """The branch offset v = 1 + W-1(-exp(-(1 + du))) for du >= 0.

    Iterating in the offset keeps v relatively accurate near the branch
    point (measured bounds in the module docstring), where w itself would
    only be known to an absolute ulp of 1; downstream formulas that divide
    by 1 + w need exactly this.  Solves phi(v) = v + log1p(-v) + du = 0
    (the log form of w*exp(w) = -exp(-u)) by Halley's method; exact 0.0 is
    returned for du within ``_U_EPS`` of the branch point.  Valid for any
    finite du, in particular far beyond du ~ 745 where -exp(-u) underflows
    to -0.0; du = inf (an overflowed input) is a ValueError.

    An ndarray ``du`` takes one masked numpy Halley iteration: the same guess
    and step, each element stopping by the rule above.  97% of values are
    bit-equal to the scalar kernel's and w = v - 1 agrees to 1.5 ulp; near the
    branch, where phi is at its rounding floor and numpy's log1p rounds apart
    from libm's, v differs by up to 1.4e-10 relative (4e5 du in 1e-14..1e12).
    """
    if type(du) is _ndarray:
        return _wm1_offset_array(du)
    if math.isnan(du) or du < -_U_EPS:
        raise ValueError(f"wm1_neg_exp_offset: need du >= 0, got du={du!r}")
    if du <= _U_EPS:
        return 0.0
    v = _wm1_offset_guess(du)
    prev_move = math.inf
    for it in range(_MAX_ITER):
        # Grouping keeps the leading cancellation exact in both regimes:
        # near the branch v and the linear part of log1p(-v) cancel; far out
        # v + du cancels to -log(-w) within Sterbenz range.
        if v > -0.5:
            phi = (v + math.log1p(-v)) + du
        else:
            phi = (v + du) + math.log1p(-v)
        phip = -v / (1.0 - v)
        phipp = -1.0 / ((1.0 - v) * (1.0 - v))
        step = 2.0 * phi * phip / (2.0 * phip * phip - phi * phipp)
        v_new = v - step
        if v_new >= 0.0:
            # Overshot past the branch value; bisect toward it.
            v_new = 0.5 * v
        move = abs(v_new - v)
        # Second clause: steps have hit the rounding floor of phi.
        if move <= 1e-15 * abs(v_new) or (it >= 2 and move >= prev_move):
            return v_new
        prev_move = move
        v = v_new
    if du == math.inf:  # checked here, off the path of every finite du
        raise ValueError("wm1_neg_exp_offset: du overflowed to inf")
    return v


@np.errstate(over="ignore")  # (1 - v)^2 overflows to inf far out, as in the scalar path
def _wm1_offset_array(du: np.ndarray) -> np.ndarray:
    """``wm1_neg_exp_offset`` over an array, in blocks of ``_BLOCK`` to bound its temporaries."""
    for bad in du[~((du >= -_U_EPS) & (du < math.inf))][:1]:
        wm1_neg_exp_offset(float(bad))  # raises the scalar path's error
    out = np.zeros(du.shape)
    flat, live = out.reshape(-1), np.flatnonzero(du > _U_EPS)
    for start in range(0, live.size, _BLOCK):
        idx = live[start : start + _BLOCK]
        d = du.reshape(-1)[idx].astype(float)
        p = np.sqrt(-2.0 * np.expm1(-np.minimum(d, 1.0)))  # _wm1_offset_guess, element-wise
        v = -p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0 + p * (43.0 / 540.0))))
        v, prev_move = np.where(d < 1.0, v, -(d + np.log1p(d))), math.inf
        for it in range(_MAX_ITER):
            log1p_neg_v = np.log1p(-v)
            phi = np.where(v > -0.5, (v + log1p_neg_v) + d, (v + d) + log1p_neg_v)
            one_m_v = 1.0 - v
            phip, phipp = -v / one_m_v, -1.0 / (one_m_v * one_m_v)
            v_new = v - 2.0 * phi * phip / (2.0 * phip * phip - phi * phipp)
            v_new = np.where(v_new >= 0.0, 0.5 * v, v_new)
            move = np.abs(v_new - v)
            done = (move <= -1e-15 * v_new) | ((it >= 2) & (move >= prev_move))  # v_new < 0
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

