"""The high-precision references themselves: each solves for the intended root."""

import numpy as np

from ifpclosed.consumption import consumption_derivatives
from ifpclosed.model_core import ModelParams

from mp_reference import DPS, branch_offset_ref, mpmath, r0_reference, rel_err


def test_branch_offset_is_the_w_minus_1_root():
    # a start of -sqrt(2*du) once led findroot to the W0 root (v = +0.129 at
    # du = 0.00916) and to a complex value near du = 0.007
    for du in np.geomspace(1e-3, 1e-1, 200).tolist():
        v = branch_offset_ref(du)
        assert isinstance(v, mpmath.mpf) and v < 0, du
        with mpmath.workdps(DPS):
            exact = mpmath.lambertw(-mpmath.exp(-(1 + mpmath.mpf(du))), -1) + 1
        assert abs(v - exact) <= mpmath.mpf("1e-40"), du


def test_income_mpc_reference_where_the_root_was_wrong():
    p = ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0)
    a = 0.00916 * p.gamma * p.y / p.rho
    ref = r0_reference(p.rho, p.gamma, p.y, a)["dc_dy"]
    assert rel_err(consumption_derivatives(p, a).dc_dy, ref) <= 1e-13
