"""Independent high-precision references for the benchmark's correctness check.

Nothing here calls into ``ifpclosed``: the r = 0 closed forms are evaluated
from ``mpmath.lambertw(., -1)`` and the r > 0 depletion time is judged by
the residual mu(T) - a of the general-r depletion map, all at ``DPS``
decimal digits.  Each function returns the relative error of every output
it checks, keyed by output name, and whether all of them are within
``TOLERANCE``.

A depletion time is judged the way acceptance criterion 2 judges it, by the
consumption gap its error causes, (rho - r)/gamma * |T - T_ref|: T itself is
only accurate to an absolute 1e-15 or so near T = 0, where its relative
error is large but harmless.  Its relative error is still reported.
"""

from __future__ import annotations

import mpmath

from workloads import GAP_TOLERANCE

DPS = 50

# Limits, each no looser than the acceptance tolerance in ``ifpclosed.checks``
# that covers the same output:
#   c          1e-13  relative; criterion 2, closed form against -y*W-1
#   c_numeric  1e-9   relative; criterion 2, closed form against numeric inversion
#   T*         GAP_TOLERANCE, on the consumption gap; criterion 2 as above
#   dc_*       1e-6   relative; criterion 3 (Richardson differences)
#   d2c_*      1e-6   relative; criterion 4 pins 1e-4 (Richardson differences)
# T_approx is the small-r closed form against the same formula in mpmath.
TOLERANCE = {
    "c": 1e-13,
    "T": GAP_TOLERANCE,
    "T_numeric": GAP_TOLERANCE,
    "c_numeric": 1e-9,
    "T_approx": GAP_TOLERANCE,
    "dc_da": 1e-6,
    "dc_dy": 1e-6,
    "d2c_da2": 1e-6,
    "d2c_dady": 1e-6,
    "d2c_dy2": 1e-6,
}


def _rel(value: float, ref) -> float:
    return float(abs((mpmath.mpf(value) - ref) / ref))


def _judge(errors: dict, growth, times: dict) -> tuple[dict, bool]:
    # Depletion times are held to their consumption gap growth*|dT|, every
    # other output to its relative error.
    ok = True
    for name, err in errors.items():
        measure = float(growth * err * times[name]) if name in times else err
        ok &= measure <= TOLERANCE[name]
    return errors, ok


def _wm1_neg_exp(du) -> mpmath.mpf:
    # W-1(-exp(-(1 + du))); at DPS digits 1 + du keeps du to ~35 digits even at du ~ 1e-15.
    return mpmath.lambertw(-mpmath.exp(-(1 + du)), -1).real


def closed_r0_errors(rho: float, gamma: float, y: float, a: float, out: dict) -> tuple[dict, bool]:
    """Errors of r = 0 outputs: ``out`` maps any of T, c, dc_*, d2c_* to a value, a > 0.

    Depletion times under other names (T_numeric, T_approx) are judged
    against the same exact T.
    """
    with mpmath.workdps(DPS):
        rho_, gam, y_, a_ = (mpmath.mpf(x) for x in (rho, gamma, y, a))
        k = rho_ * a_ / (gam * y_)
        w = _wm1_neg_exp(k)
        curv = w / (1 + w) ** 3
        T = (gam / rho_) * mpmath.log(-w)
        ref = {
            "c": -y_ * w,
            "dc_da": (rho_ / gam) * w / (1 + w),
            "dc_dy": -w * (1 + k / (1 + w)),
            "d2c_da2": -(rho_**2 / (gam**2 * y_)) * curv,
            "d2c_dady": (a_ * rho_**2 / (gam**2 * y_**2)) * curv,
            "d2c_dy2": -(rho_**2 * a_**2 / (gam**2 * y_**3)) * curv,
        }
        times = {name: T for name in out if name.startswith("T")}
        errors = {name: _rel(value, T if name in times else ref[name]) for name, value in out.items()}
        return _judge(errors, rho_ / gam, times)


def _mu(rho, r, gam, y, T):
    big_b = r * (gam - 1) + rho
    grow, decay = mpmath.exp((rho - r) * T / gam), mpmath.exp(-r * T)
    mu = (gam * y / big_b) * (grow - decay) + y * (decay - 1) / r
    mu_prime = y * (rho - r) / big_b * (grow - decay)
    return mu, mu_prime


def numeric_errors(rho: float, r: float, gamma: float, y: float, a: float, T: float, c: float) -> tuple[dict, bool]:
    """Errors of a depletion time T and time-0 consumption c at r > 0, a > 0.

    The residual mu(T) - a divided by mu'(T) is T's error to first order;
    c is compared with y*exp((rho-r)*T_ref/gamma) at the corrected
    T_ref = T - (mu(T) - a)/mu'(T).
    """
    with mpmath.workdps(DPS):
        rho_, r_, gam, y_, a_ = (mpmath.mpf(x) for x in (rho, r, gamma, y, a))
        mu, mu_prime = _mu(rho_, r_, gam, y_, mpmath.mpf(T))
        T_ref = T - (mu - a_) / mu_prime
        c_ref = y_ * mpmath.exp((rho_ - r_) * T_ref / gam)
        errors = {"T_numeric": _rel(T, T_ref), "c_numeric": _rel(c, c_ref)}
        return _judge(errors, (rho_ - r_) / gam, {"T_numeric": T_ref})


def approx_errors(rho: float, r: float, gamma: float, y: float, a: float, T: float) -> tuple[dict, bool]:
    """Error of the small-r closed form T ~ log(-w_r)/(b_r*d_r) at r > 0, a > 0."""
    with mpmath.workdps(DPS):
        rho_, r_, gam, y_, a_ = (mpmath.mpf(x) for x in (rho, r, gamma, y, a))
        big_b = r_ * (gam - 1) + rho_
        b_r, d_r = big_b / gam, (rho_ - r_) / big_b
        T_ref = mpmath.log(-_wm1_neg_exp(b_r * a_ / y_)) / (b_r * d_r)
        return _judge({"T_approx": _rel(T, T_ref)}, (rho_ - r_) / gam, {"T_approx": T_ref})
