"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one line per check (run pytest with -s or -rA to see them)
and fails if any measured value exceeds its tolerance.
"""

from collections import Counter

import numpy as np
import pytest

from ifpclosed import checks
from ifpclosed.checks import _EPS, _FIGURE1_R0, CRITERIA, run_level
from ifpclosed.consumption import consumption_path


def run_and_report(n):
    title, criterion = CRITERIA[n]
    results = criterion()
    for res in results:
        print(f"criterion {n} ({title}): {res.line()}")
    bad = [r for r in results if not r.passed]
    assert not bad, f"criterion {n} ({title}) failed: " + "; ".join(r.line() for r in bad)


def test_criterion_1_lambert_kernel():
    run_and_report(1)


def test_criterion_2_closed_form_vs_numeric_inversion():
    run_and_report(2)


def test_criterion_3_jacobian():
    run_and_report(3)


def test_criterion_4_hessian():
    run_and_report(4)


def test_criterion_5_feasibility_and_depletion():
    run_and_report(5)


def test_criterion_6_value_bound():
    run_and_report(6)


def test_criterion_7_small_r_approximation():
    run_and_report(7)


def test_criterion_8_discrete_time_model():
    run_and_report(8)


def test_criterion_9_figure_reproduction():
    run_and_report(9)


# every row of the suite, sorted by name
ROW_NAMES = [
    "closed_vs_numeric.exact_anchor_rel_gap", "closed_vs_numeric.lambert_identity",
    "closed_vs_numeric.max_rel_gap", "discrete.delta_shrink_margin",
    "discrete.dp_policy_gap_over_y", "discrete.dp_runtime_seconds", "discrete.dp_sup_norm_residual",
    "discrete.knots_increasing_margin", "discrete.mu0", "figures.constrained_gap_over_y",
    "figures.fig2_vs_report", "hessian.determinant_rel", "hessian.fd_rel_err",
    "hessian.sign_pattern_margin", "hessian.supermodularity_margin",
    "hessian.supermodularity_rel_margin", "jacobian.asymptotic_mpc",
    "jacobian.entries_positive_margin", "jacobian.euler_identity", "jacobian.fd_rel_err",
    "lambert.array_residual", "lambert.array_round_trip", "lambert.array_vs_scalar",
    "lambert.round_trip", "lambert.runtime_seconds", "lambert.wm1_residual",
    "rk4.depletion_time_rel", "rk4.mu_identity_rel", "rk4.runtime_seconds",
    "rk4.terminal_assets_rel", "small_r.gap_at_zero_assets", "small_r.halving_ratio_band",
    "small_r.zero_rate_row", "value_bound.margin", "value_bound.perturbation_dominance",
]


def test_full_suite_builds_each_figure_2_grid_once(monkeypatch):
    # criterion 7's r = 0.01 report grid gives both its halving ratios and figure 2's bound, from
    # one inversion; the five are its three rates, figure 2's default grid and figure 1
    built, figure_rows = Counter(), checks.figure_rows

    def counted(params, which, grid, delta):
        built[params, which, grid.tobytes()] += 1
        return figure_rows(params, which, grid, delta)

    monkeypatch.setattr(checks, "figure_rows", counted)
    rows = run_level("full")
    assert sorted(row.name for row in rows) == ROW_NAMES and all(row.passed for row in rows)
    assert sum(built.values()) == 5 and max(built.values()) == 1


def test_criterion_8_reports_the_dp_residual_against_its_stop_bound():
    row = {r.name: r for r in CRITERIA[8][1]()}["discrete.dp_sup_norm_residual"]
    # grid_dp stops when the policy repeats bit for bit, so the last change is 0
    assert row.passed and row.measured == row.tolerance == 0.0


def test_criterion_4_one_call_supermodularity_grid_matches_the_per_income_loop():
    # criterion 4 reads all four corners of its 50 x 50 grid off one call at
    # unit income, by c(a; y) = y*c(a/y; 1) at r = 0; here is the loop it replaced
    p = _FIGURE1_R0
    a_cross = np.geomspace(1e-2, 1e2, 50) * p.y
    corners, ys = [], np.geomspace(1.0, 10.0, 50)
    for y_j in ys:
        a = np.concatenate((a_cross, a_cross + 1e-3 * np.maximum(a_cross, y_j)))
        c_lo = consumption_path(p._replace(y=y_j), a)
        c_hi = consumption_path(p._replace(y=y_j + 1e-3 * y_j), a)
        corners.append((c_lo[:50], c_lo[50:], c_hi[:50], c_hi[50:]))
    c_ll, c_hl, c_lh, c_hh = np.array(corners).transpose(1, 0, 2)
    loop_cross = c_hh - c_hl - c_lh + c_ll
    a_lo, y_lo = np.meshgrid(a_cross, ys)
    a_hi, y_hi = a_lo + 1e-3 * np.maximum(a_lo, y_lo), y_lo + 1e-3 * y_lo
    a_c, y_c = np.array([a_lo, a_hi, a_lo, a_hi]), np.array([y_lo, y_lo, y_hi, y_hi])
    one_call = y_c * consumption_path(p._replace(y=1.0), a_c / y_c)
    loop = np.array([c_ll, c_hl, c_lh, c_hh])
    # the identity holds to rounding: reads 4.6 eps
    assert np.max(np.abs(one_call - loop) / loop) <= 8 * _EPS
    row = {r.name: r for r in CRITERIA[4][1]()}["hessian.supermodularity_margin"]
    # each of the four terms moves by at most 8 eps of the argmin cell's largest |c|
    cell = np.unravel_index(np.argmin(loop_cross), loop_cross.shape)
    assert abs(row.measured - loop_cross.min()) <= 4 * 8 * _EPS * loop[(slice(None), *cell)].max()
