"""The consumption function and its exact derivatives.

Time path: c*(t) = y * e^((rho-r)(T-t)/gamma) while assets last (t <= T),
and c* = y forever after, where T = h(a; y) is the depletion time.  At
r = 0 the time-0 consumption function c*(a; y) = y * e^(rho*h(a;y)/gamma)
has Lambert-W closed forms for its Jacobian and Hessian.  The paper writes
them in w = W-1(f(a; y)): dc/da = b*w/(1+w), dc/dy = -w*(1 + du/(1+w)) and
d2c/da2, d2c/dady, d2c/dy2 = (-1, a/y, -(a/y)^2) * (b^2/y)*w/(1+w)^3, with
b = rho/gamma and du = rho*a/(gamma*y).  ``consumption_derivatives``
evaluates them from one branch offset v = 1 + w < 0 through the bounded
factors q = (v-1)/v > 1 and s = du/v in (-1, 0):

    dc/da    = b*q
    dc/dy    = q*log1p(-v)            (v + du = -log1p(-v))
    d2c/da2  = -(b/v) * (b/v/y) * q   (-b^2/y * q/v^2)
    d2c/dady = b/y * (s*q) / v       (s*q in [-1, -1/2])
    d2c/dy2  = -s^2*q/y

so no entry forms (a/y)^2 or v^3, dc/dy does not cancel, and no product of b
underflows before its division (b*b does at gamma = 1e300).  An entry past
the double range (d2c/da2 at a = 1e-312, y = 1e-300) is a ValueError, never
inf; d2c/da2 and d2c/dady, ~1/v^2, underflow from a/y ~ 1e155.  Each inherits
v's error, which is at the rounding level on the whole branch: dc/da is off by
9.8e-17 at a = 1e-12 (rho 0.08, gamma 0.5, y 3).
Both MPCs are strictly positive, the Hessian diagonal is strictly negative
and the cross-derivative strictly positive (supermodularity), all because
w < -1 on the relevant domain.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .depletion_map import _branch, _is_ndarray, best_depletion_time, h_approx_small_r
from .model_core import ModelParams

__all__ = [
    "ConsumptionDerivatives",
    "consumption_approx_small_r",
    "consumption_derivatives",
    "consumption_from_depletion_time",
    "consumption_path",
]


class ConsumptionDerivatives(
    namedtuple("ConsumptionDerivatives", "T c dc_da dc_dy d2c_da2 d2c_dady d2c_dy2")
):
    """Depletion time, level, Jacobian pair, and distinct Hessian entries at r = 0."""

    __slots__ = ()


def consumption_from_depletion_time(params: ModelParams, T: float, t: float = 0.0) -> float:
    """Consumption at time t given depletion time T: y*e^((rho-r)(T-t)/gamma), y past T.

    Single evaluation point for the time-path expression, so routes that
    must coincide (e.g. the small-r approximation at r = 0 against the
    exact closed form) coincide to the last bit when their T's do, and the
    oracles in ``validation`` integrate the path that ships.  T, t or both may
    be ndarrays: they broadcast, and the result is exactly y wherever t > T.  A
    consumption past the double range is a ValueError on either path, never inf.
    """
    if not (isinstance(T, float) and isinstance(t, float)) and (_is_ndarray(T) or _is_ndarray(t)):
        import numpy as np
        with np.errstate(over="ignore"):
            c = np.asarray(params.y * np.exp((params.rho - params.r) * (T - t) / params.gamma))
        if type(t) is not float or t != 0.0:  # t = 0.0 > T only at a T < 0, refused below
            c = np.where(t > T, params.y, c)
        bad = ~((T >= 0.0) & (t >= 0.0)) | (c == math.inf)
        if bad.any():
            i = int(np.argmax(bad))
            T_i, t_i = (float(x.flat[i]) for x in np.broadcast_arrays(T, t))
            consumption_from_depletion_time(params, T_i, t_i)  # raises the scalar path's error
            raise _overflow(T_i, t_i)  # reached if math.exp lands an ulp inside the range
        return c
    if not (t >= 0.0 and T >= 0.0):
        raise ValueError(f"consumption_from_depletion_time: need t >= 0 and T >= 0, got {t}, {T}")
    if t > T:
        return params.y
    try:
        c = params.y * math.exp((params.rho - params.r) * (T - t) / params.gamma)
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise _overflow(T, t)
    return c


def _overflow(T: float, t: float) -> ValueError:
    return ValueError(
        f"consumption_from_depletion_time: y*e^((rho-r)(T-t)/gamma) overflows a double"
        f" at T={T}, t={t}"
    )


def consumption_path(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Optimal consumption at calendar time t >= 0 from initial assets a >= 0.

    Uses the best available depletion time (exact closed form at r = 0,
    numeric inversion otherwise); returns exactly y once t exceeds T.  At
    r = 0, t = 0 it is c*(a; y) = y * e^(rho*h(a;y)/gamma) = -y * W-1(f(a; y)).
    An ndarray a takes one array kernel call at r = 0 and is a ValueError at r > 0.
    """
    return consumption_from_depletion_time(params, best_depletion_time(params, a).T, t)


def consumption_approx_small_r(params: ModelParams, a: float, t: float = 0.0) -> float:
    """Time path evaluated with the small-r closed-form depletion time.

    Reduces exactly to ``consumption_path`` at r = 0.  ``a`` may be an ndarray.
    """
    return consumption_from_depletion_time(params, h_approx_small_r(params, a).T, t)


def consumption_derivatives(params: ModelParams, a: float) -> ConsumptionDerivatives:
    """Depletion time, level, Jacobian and Hessian of c*(a; y) at r = 0, a > 0.

    Every entry is a few flops on one branch offset v = 1 + w (the forms in
    the module docstring), so the kernel runs once per point, or once per
    ndarray a (the fields are then arrays).  T and c are exactly ``h_closed_r0``
    and ``consumption_path``; dc/da falls from +inf at a -> 0+ toward rho/gamma,
    and the Hessian has rank 1.  a = 0 is a domain error: w = -1 there and the
    MPC is unbounded.  So is an entry past the double range: the ValueError
    names the first such entry and the first a where it overflows.
    """
    if params.r != 0.0:
        raise ValueError(f"consumption_derivatives: requires r = 0, got r={params.r}")
    du, v, log1p_neg_v, T = _branch(params, a)
    array = not isinstance(v, float) and _is_ndarray(v)
    if (v == 0.0).any() if array else v == 0.0:
        raise ValueError(f"consumption_derivatives: MPC unbounded at the constraint, a={a}")
    if array:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            # asarray: numpy turns 0-d arithmetic into scalars
            entries = [np.asarray(x) for x in _derivative_entries(params, du, v, log1p_neg_v)]
        finite = all(np.isfinite(x).all() for x in entries)
    else:
        entries = _derivative_entries(params, du, v, log1p_neg_v)
        finite = all(map(math.isfinite, entries))
    if not finite:
        import numpy as np
        for name, x in zip(ConsumptionDerivatives._fields[2:], entries):
            bad = ~np.isfinite(x)
            if bad.any():
                at = np.asarray(a).flat[int(np.argmax(bad))]
                raise ValueError(f"consumption_derivatives: {name} overflows a double at a={at}")
    return ConsumptionDerivatives(T, consumption_from_depletion_time(params, T), *entries)


def _derivative_entries(params: ModelParams, du, v, log1p_neg_v) -> tuple:
    # the five forms of the module docstring, in the order of the fields after c
    rho, _, gam, y = params
    b = rho / gam
    q, s = (v - 1.0) / v, du / v
    return (b - b / v, q * log1p_neg_v, -(b / v) * (b / v / y) * q, b / y * (s * q) / v, -s * s * q / y)

