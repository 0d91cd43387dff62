"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one line per check (run pytest with -s or -rA to see them)
and fails if any measured value exceeds its tolerance.
"""

import numpy as np
import pytest

from ifpclosed.checks import _EPS, _FIGURE1_R0, CRITERIA
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
