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
cancellation; v is within 3.0e-16 relative of 50-digit mpmath on 2701
log-spaced du in [1e-15, 1e12] on both paths (1.8 ulp at du ~ 0.1-1).

Algorithm: a start within 1.8e-6 relative of the root, then one step of
Householder's method of degree 3 (order four) on the log form of the defining
equation, in the branch offset so it is well scaled on the whole branch.  The
step leaves at most 1.1e-25 in exact arithmetic, so its rounded result is
final and there is no iteration (Fritsch, Shafer & Crowley 1973; Veberic 2012).
The start is the branch series (Corless et al. 1996) below du = 0.02, a
degree-7 polynomial in sqrt(du) up to du = 25, and the asymptotic series
beyond.  The polynomial is a least-squares fit of v, in the Chebyshev basis,
at 400 Chebyshev nodes of sqrt(du) on [sqrt(0.02), 5] against 40-digit mpmath,
reweighted by |relative error|^0.3 sixty times toward the minimax error
(1.0e-6), then converted to monomials.

Only an exact ``numpy.ndarray`` takes the array paths; ints, floats, numpy
scalars and ndarray subclasses take the scalar path, which runs on ``math``
alone.  A float (an ``np.float64`` too) is settled by an inline ``isinstance``;
anything else by ``_is_ndarray``, which reads ``sys.modules`` rather than
importing numpy, since an ndarray exists only once numpy is loaded.  So numpy
is imported on the first array, never by a scalar call.
"""

from __future__ import annotations

import math
import sys

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

_NEAR_BRANCH = -0.5  # above this v the residual is summed by _phi_near_branch
_BLOCK = 2048
_SERIES_TO, _ASYMPTOTIC_FROM = 0.02, 25.0  # where the start's three regions meet


def _is_ndarray(x) -> bool:
    # exactly numpy.ndarray, tested without importing numpy: an ndarray means numpy is loaded
    return type(x) is getattr(sys.modules.get("numpy"), "ndarray", None)


def _branch_series(p):
    # 1 + W-1 = -p - p^2/3 - 11 p^3/72 - 43 p^4/540 - 769 p^5/17280 - 221 p^6/8505 - ...
    tail = 43 / 540 + p * (769 / 17280 + p * (221 / 8505))
    return -p * (1.0 + p * (1 / 3 + p * (11 / 72 + p * tail)))


def _sqrt_du_poly(s):
    # v in s = sqrt(du) on [0.02, 25], within 1.0e-6 relative; the fit is in the module docstring
    tail = 0.015561556905724487 + s * (-0.0022559769542965817 + s * (
        0.00020432546293953438 - 8.43636054992978e-06 * s))
    head = -0.6666884472957597 + s * (-0.07881391823337144 + s * tail)
    return -2.960187195810704e-06 + s * (-1.4141879007704798 + s * head)


def _asymptotic(log_u, du):
    # w ~ -u - L - L/u + L(L-2)/(2u^2) in u = 1 + du and L = log(u), with no product that overflows
    l_u = log_u / (1.0 + du)
    return l_u * ((0.5 * log_u - 1.0) / (1.0 + du)) - l_u - log_u - du


def _wm1_offset_guess(du):
    """The start (regions in the module docstring): within 1.8e-6 relative of v for du > 0."""
    if not isinstance(du, float) and _is_ndarray(du):
        import numpy as np
        # the polynomial, clamped to stay finite, then the other regions
        v = _sqrt_du_poly(np.sqrt(np.minimum(du, _ASYMPTOTIC_FROM)))
        near, far = du < _SERIES_TO, du >= _ASYMPTOTIC_FROM
        v[near] = _branch_series(np.sqrt(-2.0 * np.expm1(-du[near])))
        v[far] = _asymptotic(np.log1p(du[far]), du[far])
        return v
    if du < _SERIES_TO:
        return _branch_series(math.sqrt(-2.0 * math.expm1(-du)))
    if du < _ASYMPTOTIC_FROM:
        return _sqrt_du_poly(math.sqrt(du))
    return _asymptotic(math.log1p(du), du)


def _phi_near_branch(v, du):
    # phi = v + log1p(-v) + du without cancellation: log1p(-v) = -2*atanh(s), s = v/(2 - v), so
    # v + log1p(-v) = -v^2/2 - s*(v^2/2 + 2s^2*(1/3 + s^2/5 + ... + s^20/23)), to 1e-17 for v > -0.5
    s = v / (2.0 - v)
    s2 = s * s
    tail = 1 / 13 + s2 * (1 / 15 + s2 * (1 / 17 + s2 * (1 / 19 + s2 * (1 / 21 + s2 / 23))))
    tail = 1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (1 / 9 + s2 * (1 / 11 + s2 * tail))))
    half_v2 = 0.5 * v * v
    return (du - half_v2) - s * (half_v2 + 2.0 * s2 * tail)


def _phi(v, du):
    # phi(v) = v + log1p(-v) + du with each regime's leading cancellation exact: the series has
    # none; then v cancels log1p(-v)'s linear part; far out v + du cancels within Sterbenz range
    if not isinstance(v, float) and _is_ndarray(v):
        import numpy as np
        log1p_neg_v = np.log1p(-v)
        phi = np.where(v > -2.5, (v + log1p_neg_v) + du, (v + du) + log1p_neg_v)
        near = v > _NEAR_BRANCH
        phi[near] = _phi_near_branch(v[near], du[near])
        return phi
    if v > _NEAR_BRANCH:
        return _phi_near_branch(v, du)
    if v > -2.5:
        return (v + math.log1p(-v)) + du
    return (v + du) + math.log1p(-v)


def _step(v, du):
    # Householder on phi' = -v/(1-v), phi'' = -1/(1-v)^2, phi''' = -2/(1-v)^3; t, q never overflow
    t = _phi(v, du) / v
    q = t / v
    return v + t * (1.0 - v) * (1.0 + 0.5 * q) / (1.0 + q + t * q / 3.0)


def wm1_neg_exp_offset(du: float | np.ndarray) -> float | np.ndarray:
    """The branch offset v = 1 + W-1(-exp(-(1 + du))) for du >= 0.

    Working in the offset keeps v relatively accurate near the branch point
    (measured bounds in the module docstring), where w itself would only be
    known to an absolute ulp of 1; downstream formulas that divide by 1 + w
    need exactly this.  v solves phi(v) = v + log1p(-v) + du = 0 (the log form
    of w*exp(w) = -exp(-u)) by a three-region start and one fourth-order step,
    with no loop; 0.0 for du within ``_U_EPS`` of the branch point.  Valid for
    any finite du, far beyond du ~ 745 where -exp(-u) underflows to -0.0, with
    no intermediate overflow; du = inf (an overflowed input) is a ValueError.

    An ndarray ``du`` takes the same start and step in numpy, one residual per
    block of ``_BLOCK`` elements.  On 4e5 du in 1e-14..1e12, 99.5% of values are
    bit-equal to the scalar kernel's and w = v - 1 agrees to 2 ulp; where numpy's
    log1p rounds apart from libm's (du ~ 1e-3..10), v differs by up to 5.1e-16.
    """
    if not isinstance(du, float) and _is_ndarray(du):
        return _wm1_offset_array(du)
    if not -_U_EPS <= du < math.inf:
        if du == math.inf:
            raise ValueError("wm1_neg_exp_offset: du overflowed to inf")
        raise ValueError(f"wm1_neg_exp_offset: need du >= 0, got du={du!r}")
    if du <= _U_EPS:
        return 0.0
    return _step(_wm1_offset_guess(du), du)


def _wm1_offset_array(du: np.ndarray) -> np.ndarray:
    """``wm1_neg_exp_offset`` over an array, in blocks of ``_BLOCK`` to bound its temporaries."""
    import numpy as np
    for bad in du[~((du >= -_U_EPS) & (du < math.inf))][:1]:
        wm1_neg_exp_offset(float(bad))  # raises the scalar path's error
    out = np.zeros(du.shape)
    flat, live = out.reshape(-1), np.flatnonzero(du > _U_EPS)
    for start in range(0, live.size, _BLOCK):
        idx = live[start : start + _BLOCK]
        d = du.reshape(-1)[idx].astype(float)
        flat[idx] = _step(_wm1_offset_guess(d), d)
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
    if not isinstance(x, float) and _is_ndarray(x):
        import numpy as np
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

