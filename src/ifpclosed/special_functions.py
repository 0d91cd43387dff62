"""Real-branch Lambert W kernel.

Evaluates the lower real branch W-1 of the Lambert W function, the inverse
of w -> w*exp(w) on [-1/e, 0), in the exponent form: ``wm1_neg_exp_offset``
returns the branch offset v = 1 + W-1(-exp(-(1 + du))) for du >= 0.  Every
closed form in this package bottoms out here, so the target is near machine
precision.  The offset stays accurate arbitrarily deep into the tail where
-exp(-u) itself would underflow, and it sidesteps the catastrophic
cancellation of forming 1 + e*x near the branch point.  Near the branch point
the residual is a series free of v + log1p(-v)'s cancellation; v is within
3.0e-16 relative of 50-digit mpmath on 2701 log-spaced du in [1e-15, 1e12] on
both paths (1.8 ulp at du ~ 0.1-1), and within 1.2e-16 on 600 log-spaced du
in [5e-324, 1e-13], subnormals included, where v ~ -sqrt(2*du).  The only
snap is the branch point itself: du = 0 gives v = 0.0.

Algorithm: a start within eps = 1.8e-6 relative of the root, then one Halley
step on the log form of the defining equation, in the branch offset so it is
well scaled on the whole branch: v + t*(1 - v)/(1 + t/(2v)), t = phi/v.  It
leaves (3 - 4v)/(12(1 - v)^2)*eps^3 <= eps^3/4 ~ 1.5e-18 relative in exact
arithmetic, so its rounded result is final and there is no iteration (Fritsch,
Shafer & Crowley 1973; Veberic 2012).  On both paths it is bit-equal to a
fourth-order (Householder) step from the same start at 3000 of 3001 log-spaced
du (2701 in [1e-15, 1e12], 300 in [5e-324, 1e-13]) and 19,997 of criterion 1's 20,000.
The start is the branch series (Corless et al. 1996) below du = 0.02, a
degree-7 polynomial in sqrt(du) up to du = 25, and the asymptotic series
beyond.  The polynomial is a least-squares fit of v, in the Chebyshev basis,
at 400 Chebyshev nodes of sqrt(du) on [sqrt(0.02), 5] against 40-digit mpmath,
reweighted by |relative error|^0.3 sixty times toward the minimax error
(1.0e-6), then converted to monomials.

Only an exact ``numpy.ndarray`` takes the array body; ints, floats, numpy
scalars and ndarray subclasses take the scalar body, straight-line ``math`` in
the entry itself: one frame plus its start region's helper.  A float (an
``np.float64`` too) is settled by an inline ``isinstance``; anything else by
``_is_ndarray``, which reads ``sys.modules`` rather than importing numpy, since
an ndarray exists only once numpy is loaded.  So numpy is imported on the
first array, never by a scalar call.  An array is checked once, by the entry or
by ``depletion_map._branch``, which calls ``_wm1_offset_array`` directly.
"""

from __future__ import annotations

import sys
from math import expm1, inf, log1p, sqrt

__all__ = ["wm1_neg_exp_offset"]

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
    # the scalar start over ndarrays: the polynomial, clamped to stay finite, then the rest
    import numpy as np
    v = _sqrt_du_poly(np.sqrt(np.minimum(du, _ASYMPTOTIC_FROM)))
    near, far = du < _SERIES_TO, du >= _ASYMPTOTIC_FROM
    if near.any():  # a region no element is in is skipped: numpy calls on empty masks cost time
        v[near] = _branch_series(np.sqrt(-2.0 * np.expm1(-du[near])))
    if far.any():
        v[far] = _asymptotic(np.log1p(du[far]), du[far])
    return v


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
    # the scalar residual over ndarrays, with the same three groupings
    import numpy as np
    log1p_neg_v = np.log1p(-v)
    phi = np.where(v > -2.5, (v + log1p_neg_v) + du, (v + du) + log1p_neg_v)
    near = v > _NEAR_BRANCH
    if near.any():
        phi[near] = _phi_near_branch(v[near], du[near])
    return phi


def wm1_neg_exp_offset(du: float | np.ndarray) -> float | np.ndarray:
    """The branch offset v = 1 + W-1(-exp(-(1 + du))) for du >= 0.

    Working in the offset keeps v relatively accurate near the branch point
    (measured bounds in the module docstring), where w itself would only be
    known to an absolute ulp of 1; downstream formulas that divide by 1 + w
    need exactly this.  v solves phi(v) = v + log1p(-v) + du = 0 (the log form
    of w*exp(w) = -exp(-u)) by a three-region start and one Halley step,
    with no loop; 0.0 exactly at du = 0 (-0.0 too), the branch point.  Valid
    for any finite du >= 0, subnormal ones and those far beyond du ~ 745 where
    -exp(-u) underflows to -0.0, with no intermediate overflow; a negative or
    NaN du is a ValueError, and so is du = inf (an overflowed input).

    An ndarray ``du`` takes the same start and step in numpy, one residual per
    block of ``_BLOCK`` elements.  On 4e5 du in 1e-14..1e12, 99.5% of values are
    bit-equal to the scalar kernel's and w = v - 1 agrees to 2 ulp; where numpy's
    log1p rounds apart from libm's (du ~ 1e-3..10), v differs by up to 5.1e-16.
    """
    if not isinstance(du, float) and _is_ndarray(du):
        for bad in du[~((du >= 0.0) & (du < inf))][:1]:
            wm1_neg_exp_offset(float(bad))  # raises the scalar path's error
        return _wm1_offset_array(du)
    # the start (regions in the module docstring): within 1.8e-6 relative of v for du > 0; the
    # polynomial region first, then the other two, and du = 0, inf, negative or NaN last
    if _SERIES_TO <= du < _ASYMPTOTIC_FROM:
        v = _sqrt_du_poly(sqrt(du))
    elif 0.0 < du < _SERIES_TO:
        v = _branch_series(sqrt(-2.0 * expm1(-du)))
    elif _ASYMPTOTIC_FROM <= du < inf:
        v = _asymptotic(log1p(du), du)
    elif du == 0.0:
        return 0.0
    elif du == inf:
        raise ValueError("wm1_neg_exp_offset: du overflowed to inf")
    else:
        raise ValueError(f"wm1_neg_exp_offset: need du >= 0, got du={du!r}")
    # phi(v) = v + log1p(-v) + du with each regime's leading cancellation exact: the series has
    # none; then v cancels log1p(-v)'s linear part; far out v + du cancels within Sterbenz range
    if v > _NEAR_BRANCH:
        phi = _phi_near_branch(v, du)
    elif v > -2.5:
        phi = (v + log1p(-v)) + du
    else:
        phi = (v + du) + log1p(-v)
    # Halley on phi' = -v/(1-v), phi'' = -1/(1-v)^2, so -phi*phi''/(2*phi'^2) = t/(2v); t stays finite
    t = phi / v
    return v + t * (1.0 - v) / (1.0 + 0.5 * t / v)


def _wm1_offset_array(du: np.ndarray) -> np.ndarray:
    """``wm1_neg_exp_offset`` on a checked ndarray, in blocks of ``_BLOCK`` to bound temporaries."""
    import numpy as np
    flat = du.reshape(-1).astype(float, copy=False)
    out = np.zeros(flat.size)
    for start in range(0, flat.size, _BLOCK):
        idx = slice(start, start + _BLOCK)
        if not flat[idx].all():  # du = 0 keeps v = 0.0; a block free of it needs no gather
            idx = start + np.flatnonzero(flat[idx])
        d = flat[idx]
        v = _wm1_offset_guess(d)
        t = _phi(v, d) / v  # the scalar body's Halley step
        out[idx] = v + t * (1.0 - v) / (1.0 + 0.5 * t / v)
    return out.reshape(du.shape)
