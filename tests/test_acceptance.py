"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one line per check (run pytest with -s or -rA to see them)
and fails if any measured value exceeds its tolerance.
"""

import pytest

from ifpclosed.checks import CRITERIA


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
