"""High-precision mpmath references shared by the precision tests.

Nothing here calls into ``ifpclosed``.  ``mu_ref`` evaluates the depletion
map from its textbook display; ``branch_offset_ref`` solves
v + log1p(-v) + du = 0 for the branch offset v = 1 + w with ``findroot`` on
a bracket in v < 0 (this works where the argument -e^(-(1 + du)) of
``lambertw`` underflows, and cannot land on the W0 root v > 0),
and ``r0_reference`` evaluates the r = 0 closed forms from the paper's
w-displays on that root.  Importing
this module skips the calling test when mpmath is not installed.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")

DPS = 50


def mu_ref(rho, r, gamma, y, T):
    """mu(T) = (gamma*y/B)*(e^x - e^(-rT)) + y*expm1(-rT)/r, (gamma*y/rho)*(expm1(x) - x) at r = 0."""
    with mpmath.workdps(DPS):
        rho, r, gamma, y, T = (mpmath.mpf(v) for v in (rho, r, gamma, y, T))
        x = (rho - r) * T / gamma
        if r == 0:
            return gamma * y / rho * (mpmath.expm1(x) - x)
        big_b = r * (gamma - 1) + rho
        return gamma * y / big_b * (mpmath.exp(x) - mpmath.exp(-r * T)) + y * mpmath.expm1(-r * T) / r


def depletion_time_ref(rho, r, gamma, y, a, T0):
    """The root of mu_ref(T) = a, started from T0 > 0."""
    with mpmath.workdps(DPS):
        return mpmath.findroot(lambda T: mu_ref(rho, r, gamma, y, T) - a, mpmath.mpf(T0))


def branch_offset_ref(du):
    """v = 1 + W-1(-e^(-(1 + du))) for du > 0, as an mpf at DPS digits."""
    with mpmath.workdps(DPS):
        du = mpmath.mpf(du)
        return _branch_offset(du)


def _branch_offset(du):
    # f(v) = v + log1p(-v) + du rises from -inf to f(0) = du > 0 on v < 0, and
    # f(-2*s) < 0 for s = du + sqrt(2*du), the size of |v|; so the bracket
    # [-2*s, 0] holds the W-1 root and not the W0 root, which is positive.  f
    # cancels to du - v^2/2 near 0 and the solver's stop is absolute, so the
    # solve carries log10(1/du) extra digits.
    s = du + mpmath.sqrt(2 * du)
    with mpmath.workdps(mpmath.mp.dps + max(0, -int(mpmath.log10(du)))):
        v = mpmath.findroot(lambda v: v + mpmath.log1p(-v) + du, (-2 * s, 0), solver="anderson")
    return +v


def r0_reference(rho, gamma, y, a):
    """r = 0 references for T, c and the five derivatives at a > 0, as mpf values.

    The working precision grows with du = rho*a/(gamma*y), so dc/dy's
    1 + du/(1 + w), which cancels like 1/du, keeps DPS digits.
    """
    with mpmath.workdps(DPS + max(0, int(math.log10(rho * a / (gamma * y))))):
        rho, gamma, y, a = (mpmath.mpf(v) for v in (rho, gamma, y, a))
        du = rho * a / (gamma * y)
        w = _branch_offset(du) - 1
        k = w / (1 + w) ** 3
        ref = {
            "T": gamma / rho * mpmath.log(-w),
            "c": -y * w,
            "dc_da": rho / gamma * w / (1 + w),
            "dc_dy": -w * (1 + du / (1 + w)),
            "d2c_da2": -(rho / gamma) ** 2 / y * k,
            "d2c_dady": a * (rho / gamma) ** 2 / y**2 * k,
            "d2c_dy2": -((rho * a / gamma) ** 2) / y**3 * k,
        }
    return ref


def rel_err(value, ref):
    """|value - ref|/|ref| as a float (NaN for a NaN value, which fails any bound)."""
    return float(abs((mpmath.mpf(value) - ref) / ref))
