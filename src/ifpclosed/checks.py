"""Acceptance checks: every release criterion as a callable, with pinned tolerances.

Each criterion function returns a list of ``CheckResult`` rows; a row passes
when its measured error is within the pinned tolerance (or, for sign/shape
checks, when the measured margin is positive where required).  The CLI
``check`` subcommand and the acceptance test suite both run these, so there
is exactly one place where tolerances live.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from typing import Callable

import numpy as np

from .consumption import (
    consumption_approx_small_r,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
)
from .depletion_map import h_closed_r0, h_numeric, mu
from .figures import _mu_discrete, discrete_policy, figure_rows
from .model_core import ModelParams
from .special_functions import wm1_neg_exp_offset
from .validation import (
    _anchor_depletion_time,
    _make_asset_grid,
    _value_upper_bound,
    fd_gradient,
    fd_hessian,
    grid_dp,
    pdv_utility,
    perturbed_path_values,
    simulate_assets,
)

__all__ = ["CheckResult", "CRITERIA", "run_level"]

_FIGURE1_PARAMS = ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0)
_FIGURE1_R0 = _FIGURE1_PARAMS._replace(r=0.0)

_EPS = float(np.finfo(float).eps)

# Relative agreement in W-1 of the array and the scalar kernel on the same
# inputs: about 10x the worst seen on criterion 1's grids (2.8e-16).  Outputs
# that divide by the branch offset v = 1 + W inherit it amplified by about 1/|v|.
_ARRAY_AGREEMENT = 3e-15

# Criterion 1's bound on W-1's relative residual |w*e^w - x|/|x|, scalar and array
_RESIDUAL_TOL = 1e-13


class CheckResult(namedtuple("CheckResult", "name measured tolerance passed")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<46s} measured={self.measured:<12.4e} tol={self.tolerance:.4e}"


def _bounded(name: str, measured: float, tol: float) -> CheckResult:
    return CheckResult(name, float(measured), tol, bool(measured <= tol))


def _positive(name: str, margin: float) -> CheckResult:
    # Margin checks: pass when the measured margin is strictly positive.
    return CheckResult(name, float(margin), 0.0, bool(margin > 0.0))


def _wm1(x: np.ndarray) -> np.ndarray:
    """W-1 of ndarray x in [-1/e, 0): v - 1 at du = -log(-x) - 1, which is 0.0 at x = -1/e."""
    return wm1_neg_exp_offset(-np.log(-x) - 1.0) - 1.0


def check_lambert_kernel() -> list[CheckResult]:
    """Criterion 1: kernel residuals, round trip and runtime; the array path on the same du."""
    xs = -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 10_000)
    ws = np.linspace(-50.0, -1.0, 10_000)
    x_trips = ws * np.exp(ws)
    dus = [-np.log(-x) - 1.0 for x in (xs, x_trips)]  # W-1(x) = v - 1 at du = -log(-x) - 1
    arr_m1, arr_trips = (wm1_neg_exp_offset(du) - 1.0 for du in dus)
    arr_res = float(np.max(np.abs(arr_m1 * np.exp(arr_m1) - xs) / -xs))
    t0 = time.perf_counter()
    # memoryviews hand the timed scalar calls Python floats, with no list of them held
    ws_m1, trips = (np.fromiter(map(wm1_neg_exp_offset, memoryview(d)), float, d.size) for d in dus)
    elapsed = time.perf_counter() - t0
    ws_m1, trips = ws_m1 - 1.0, trips - 1.0
    res_m1 = float(np.max(np.abs(ws_m1 * np.exp(ws_m1) - xs) / -xs))
    agreement = max(
        float(np.max(np.abs(arr_m1 - ws_m1) / -arr_m1)),
        float(np.max(np.abs(arr_trips - trips) / -arr_trips)),
    )
    return [
        _bounded("lambert.wm1_residual", res_m1, _RESIDUAL_TOL),
        _bounded("lambert.round_trip", float(np.max(np.abs(trips - ws))), 1e-12),
        _bounded("lambert.runtime_seconds", elapsed, 1.0),
        _bounded("lambert.array_residual", arr_res, _RESIDUAL_TOL),
        _bounded("lambert.array_round_trip", float(np.max(np.abs(arr_trips - ws))), 1e-12),
        _bounded("lambert.array_vs_scalar", agreement, _ARRAY_AGREEMENT),
    ]


def check_closed_vs_numeric() -> list[CheckResult]:
    """Criterion 2: numeric inversion against the r = 0 closed form and the exact r > 0 anchor.

    Also the -y*w identity of the r = 0 closed form.
    """
    p = _FIGURE1_R0
    a = np.geomspace(1e-6, 1e6, 200) * p.y
    c_num = np.array([consumption_from_depletion_time(p, h_numeric(p, a_).T) for a_ in a.tolist()])
    gap = float(np.max(np.abs(consumption_path(p, a) - c_num) / c_num))
    # Identity grid spans where the double f(a; y) = -e^(-u) is a faithful
    # carrier: above a/y ~ 4.6e3 it underflows to -0.0, and below
    # a/y ~ 1e-5 its quantization alone moves W-1 by more than 1e-13.
    a = np.geomspace(1e-4, 2e3, 200) * p.y
    c_closed = consumption_path(p, a)
    f = -np.exp(-(1.0 + p.rho * a / (p.gamma * p.y)))
    ident = float(np.max(np.abs(c_closed + p.y * _wm1(f)) / c_closed))
    p = _FIGURE1_PARAMS._replace(r=_FIGURE1_PARAMS.rho / (1.0 + _FIGURE1_PARAMS.gamma))
    anchor_gap = 0.0
    for a in (10.0**k * p.y for k in range(-12, 13)):
        T = _anchor_depletion_time(p, a)
        anchor_gap = max(anchor_gap, abs(h_numeric(p, a).T - T) / T)
    # Both c's are y*e^x, x = rho*T/gamma <= 12 here, so each carries its T's
    # relative error times x, and h_numeric's T is trusted to its 4e-15*T step
    # stop: about 5e-14 at worst.  Reads 4.1e-14; 1e-12 is about 25x that.
    return [
        _bounded("closed_vs_numeric.max_rel_gap", gap, 1e-12),
        _bounded("closed_vs_numeric.lambert_identity", ident, 1e-13),
        _bounded("closed_vs_numeric.exact_anchor_rel_gap", anchor_gap, 1e-12),
    ]


def _fd_rel_err(stencil: Callable, h_rel: float, names: tuple[str, ...]) -> float:
    """Worst relative gap of a Richardson stencil to the closed-form entries ``names``.

    Criteria 3 and 4 share it: 25 points a/y in 1e-3..1e3 at ``_FIGURE1_R0``,
    each coordinate stepped by h_rel times itself, all in one stencil call.
    """
    p = _FIGURE1_R0
    a = np.geomspace(1e-3, 1e3, 25) * p.y
    # at r = 0, c(a; y) = y*c(a/y; 1): every stencil point in one call at unit income
    fn = lambda a_, y_: y_ * consumption_path(p._replace(y=1.0), a_ / y_)
    fd = stencil(fn, (a, p.y), (h_rel * a, h_rel * p.y))
    d = consumption_derivatives(p, a)
    exact = (getattr(d, name) for name in names)
    return max(float(np.max(np.abs(f - c) / np.abs(c))) for f, c in zip(fd, exact))


def check_jacobian() -> list[CheckResult]:
    """Criterion 3: Jacobian vs Richardson differences, signs, Euler identity, asymptote."""
    p = _FIGURE1_R0
    y = p.y
    # fd_gradient's error is O(h^4) truncation plus O(eps/h) rounding: both
    # are about eps^(4/5) at h = eps^(1/5) relative to each coordinate
    fd_err = _fd_rel_err(fd_gradient, _EPS ** (1.0 / 5.0), ("dc_da", "dc_dy"))
    a = np.geomspace(1e-8, 1e8, 200) * y
    d = consumption_derivatives(p, a)
    sign_margin = float(min(d.dc_da.min(), d.dc_dy.min()))
    euler = float(np.max(np.abs(a * d.dc_da + y * d.dc_dy - d.c) / d.c))
    mpc_tail = abs(consumption_derivatives(p, 1e8 * y).dc_da - p.rho / p.gamma)
    return [
        _bounded("jacobian.fd_rel_err", fd_err, 1e-9),
        _positive("jacobian.entries_positive_margin", sign_margin),
        # c = y*e^x carries T's rounding times x = log(c/y) <= 17 here, and the two
        # positive terms a*dc_da + y*dc_dy a few eps of c each: about 20 eps at
        # worst.  Reads 2.4e-15; 1e-13 is about 40x that.
        _bounded("jacobian.euler_identity", euler, 1e-13),
        _bounded("jacobian.asymptotic_mpc", mpc_tail, 1e-4),
    ]


def check_hessian() -> list[CheckResult]:
    """Criterion 4: Hessian vs FD, sign pattern, rank-1 determinant, supermodularity margins."""
    p = _FIGURE1_R0
    y = p.y
    # fd_hessian's error is O(h^4) truncation plus O(eps/h^2) rounding: both
    # are about eps^(2/3) at h = eps^(1/6) relative to each coordinate
    fd_err = _fd_rel_err(fd_hessian, _EPS ** (1.0 / 6.0), ("d2c_da2", "d2c_dady", "d2c_dy2"))
    d = consumption_derivatives(p, np.geomspace(1e-6, 1e6, 200) * y)
    h_aa, h_ay, h_yy = d.d2c_da2, d.d2c_dady, d.d2c_dy2
    sign_margin = float(min(-h_aa.max(), h_ay.min(), -h_yy.max()))
    det_rel = float(np.max(np.abs(h_aa * h_yy - h_ay * h_ay) / np.abs(h_aa * h_yy)))
    a_lo, y_lo = np.meshgrid(np.geomspace(1e-2, 1e2, 50) * y, np.geomspace(1.0, 10.0, 50))
    a_hi, y_hi = a_lo + 1e-3 * np.maximum(a_lo, y_lo), y_lo + 1e-3 * y_lo
    a_c, y_c = np.array([a_lo, a_hi, a_lo, a_hi]), np.array([y_lo, y_lo, y_hi, y_hi])
    # at r = 0, c(a; y) = y*c(a/y; 1): all four corners of every cell in one call at unit income
    c_ll, c_hl, c_lh, c_hh = y_c * consumption_path(p._replace(y=1.0), a_c / y_c)
    cross = c_hh - c_hl - c_lh + c_ll
    rel_margin = float((cross / (abs(c_hh) + abs(c_hl) + abs(c_lh) + abs(c_ll))).min())
    return [
        _bounded("hessian.fd_rel_err", fd_err, 1e-6),
        _positive("hessian.sign_pattern_margin", sign_margin),
        # each entry is a product of about four rounded factors of v, so the two
        # products differ by about 16 eps at worst.  Reads 6.8e-16; 1e-14 is 15x that.
        _bounded("hessian.determinant_rel", det_rel, 1e-14),
        _positive("hessian.supermodularity_margin", cross.min()),
        # four rounded terms cancel to about 4 eps of their summed |c|: reads 4.1e-9 (1.8e7 eps)
        CheckResult("hessian.supermodularity_rel_margin", rel_margin, 4 * _EPS, rel_margin >= 4 * _EPS),
    ]


def check_feasibility_rk4() -> list[CheckResult]:
    """Criterion 5: RK4 budget integration reproduces depletion and a(t) = mu(T - t)."""
    t0 = time.perf_counter()
    p = _FIGURE1_R0
    a0 = 3.0
    T = h_closed_r0(p, a0).T
    path = simulate_assets(p, a0, T / 10_000.0)
    terminal = abs(path.a[10_000]) / a0
    t_obs_err = abs(path.depletion_time_observed - T) / T
    mid_err = 0.0
    for j in range(1, 11):
        i = int(round(j * 10_000 / 11))
        t = path.t[i]
        mid_err = max(mid_err, abs(path.a[i] - mu(p, T - t)) / mu(p, T - t))
    elapsed = time.perf_counter() - t0
    return [
        _bounded("rk4.terminal_assets_rel", terminal, 1e-6),
        _bounded("rk4.depletion_time_rel", t_obs_err, 1e-5),
        _bounded("rk4.mu_identity_rel", mid_err, 1e-6),
        _bounded("rk4.runtime_seconds", elapsed, 1.0),
    ]


def check_value_bound() -> list[CheckResult]:
    """Criterion 6: Lemma-style value bound and dominance over perturbed plans."""
    v_star, perturbed = perturbed_path_values(_FIGURE1_R0, 3.0)
    margins = [_value_upper_bound(_FIGURE1_R0, 3.0) - v_star]
    for r in (0.0, _FIGURE1_PARAMS.r):
        p = _FIGURE1_PARAMS._replace(r=r)
        a0s = [mult * p.y for mult in (0.1, 1.0, 3.0, 10.0, 100.0)]
        # v_star is already the optimum at (r = 0, a0 = 3)
        a0s = [a0 for a0 in a0s if (p, a0) != (_FIGURE1_R0, 3.0)]
        values = pdv_utility(p, a0s).tolist()
        margins += [_value_upper_bound(p, a0) - v for a0, v in zip(a0s, values)]
    bound_margin = min(margins)
    dominance = min(v_star - v for v in perturbed)
    return [
        _positive("value_bound.margin", bound_margin),
        _positive("value_bound.perturbation_dominance", dominance),
    ]


def _small_r_gaps(p: ModelParams, grid: np.ndarray) -> list[float]:
    """Relative gap of the small-r closed form to the numeric inversion, per figure 2 row."""
    return [abs(r[1] - r[2]) / r[2] for r in figure_rows(p, 2, grid, delta=1.0)[1]]


def check_small_r() -> list[CheckResult]:
    """Criterion 7: O(r) behavior of the small-r approximation; figure 2's grid against the report's."""
    base = _FIGURE1_PARAMS
    a_grid = np.linspace(0.0, 100.0, 81) * base.y
    p0 = _FIGURE1_R0  # where the two routes are one closed form
    c_ref = consumption_path(p0, a_grid)
    zero_rate = float(np.max(np.abs(consumption_approx_small_r(p0, a_grid) - c_ref) / c_ref))
    gaps = {r: _small_r_gaps(base._replace(r=r), a_grid) for r in (0.02, 0.01, 0.005)}
    gap_at_zero = max(g[0] for g in gaps.values())  # the grid starts at a = 0
    ratio_hi = max(gaps[0.02]) / max(gaps[0.01])
    ratio_lo = max(gaps[0.01]) / max(gaps[0.005])
    in_band = (1.5 <= ratio_hi <= 3.0) and (1.5 <= ratio_lo <= 3.0)
    # figure 2 at its default grid, against the report grid's gaps at the same rate
    fig2_gap = max(_small_r_gaps(base, np.linspace(0.0, 10.0 * base.y, 201)))
    return [
        _bounded("small_r.zero_rate_row", zero_rate, 0.0),
        _bounded("small_r.gap_at_zero_assets", gap_at_zero, 0.0),
        CheckResult("small_r.halving_ratio_band", min(ratio_hi, ratio_lo), 3.0, in_band),
        _bounded("figures.fig2_vs_report", fig2_gap, max(gaps[0.01])),
    ]


def check_discrete_model() -> list[CheckResult]:
    """Criterion 8: discrete knots, DP agreement, and the continuum limit."""
    p = _FIGURE1_PARAMS
    knots = _mu_discrete(p, 1.0, 40)
    knot_margin = float(np.min(np.diff(knots)))
    p0 = _FIGURE1_R0
    t0 = time.perf_counter()
    grid = _make_asset_grid(30.0, 2000, p0.y)
    sol = grid_dp(p0, 1.0, grid)
    pol = discrete_policy(p0, 1.0, 30.0)
    dp_gap = float(np.max(np.abs(sol.policy - pol(grid)))) / p0.y
    elapsed = time.perf_counter() - t0
    a_eval = np.linspace(0.0, 10.0, 201)
    exact = consumption_path(p0, a_eval)
    gaps = []
    for delta in (0.5, 0.1, 0.02):
        pol = discrete_policy(p0, delta, 10.0)
        gaps.append(float(np.max(np.abs(pol(a_eval) - exact))))
    shrink_margin = min(gaps[0] - gaps[1], gaps[1] - gaps[2])
    return [
        _bounded("discrete.mu0", abs(float(knots[0])), 0.0),
        _positive("discrete.knots_increasing_margin", knot_margin),
        _bounded("discrete.dp_policy_gap_over_y", dp_gap, 2e-3),
        _bounded("discrete.dp_runtime_seconds", elapsed, 1.0),
        # grid_dp's own stop, a policy that repeats bit for bit
        _bounded("discrete.dp_sup_norm_residual", sol.sup_norm_residual, 0.0),
        _positive("discrete.delta_shrink_margin", shrink_margin),
    ]


def check_figures() -> list[CheckResult]:
    """Criterion 9: figure 1's CSV data reproduce its qualitative shape (figure 2's row is in 7)."""
    p = _FIGURE1_PARAMS
    _, rows1 = figure_rows(p, 1, np.linspace(0.0, 10.0 * p.y, 201), delta=1.0)
    gap_over_y = rows1[0][2] - rows1[0][1]  # the first row is at a = 0
    return [CheckResult("figures.constrained_gap_over_y", gap_over_y, 0.1, gap_over_y >= 0.1)]


CRITERIA = {
    1: ("Lambert kernel", check_lambert_kernel),
    2: ("closed form vs numeric inversion", check_closed_vs_numeric),
    3: ("Jacobian", check_jacobian),
    4: ("Hessian", check_hessian),
    5: ("feasibility and depletion", check_feasibility_rk4),
    6: ("value bound", check_value_bound),
    7: ("small-r approximation", check_small_r),
    8: ("discrete-time model", check_discrete_model),
    9: ("figure reproduction", check_figures),
}


def run_level(level: str) -> list[CheckResult]:
    """Every row of every acceptance criterion, in order; ``level`` must be ``"full"``."""
    if level != "full":
        raise ValueError(f"unknown check level {level!r}; the only suite is 'full'")
    return [row for n in sorted(CRITERIA) for row in CRITERIA[n][1]()]
