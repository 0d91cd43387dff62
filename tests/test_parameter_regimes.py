"""Cross-parameter hardening: the formulas must hold far from the default calibration."""

import math

import numpy as np
import pytest

from ifpclosed.consumption import consumption_derivatives, consumption_path
from ifpclosed.depletion_map import best_depletion_time, h_approx_small_r, h_closed_r0, h_numeric, mu
from ifpclosed.figures import discrete_policy
from ifpclosed.model_core import ModelParams, validate
from ifpclosed.validation import (
    _make_asset_grid,
    _value_upper_bound,
    crra_utility,
    fd_gradient,
    fd_hessian,
    grid_dp,
    pdv_utility,
    simulate_assets,
)

EPS = float(np.finfo(float).eps)

ZERO_RATE_SETS = [
    ModelParams(rho=0.08, r=0.0, gamma=1.0, y=3.0),  # log utility
    ModelParams(rho=0.08, r=0.0, gamma=2.0, y=1.0),
    ModelParams(rho=0.08, r=0.0, gamma=5.0, y=0.01),
    ModelParams(rho=1.2, r=0.0, gamma=0.5, y=100.0),
]
POSITIVE_RATE_SETS = [
    ModelParams(rho=0.08, r=0.079, gamma=0.5, y=3.0),  # r just below rho
    ModelParams(rho=0.05, r=0.03, gamma=2.0, y=1.0),
    ModelParams(rho=0.08, r=0.02, gamma=1.0, y=3.0),
]


@pytest.mark.parametrize("p", ZERO_RATE_SETS + POSITIVE_RATE_SETS)
def test_numeric_inversion_round_trip(p):
    validate(p)
    for ratio in np.geomspace(1e-6, 1e6, 25):
        a = ratio * p.y
        T = h_numeric(p, a).T
        assert abs(mu(p, T) - a) <= 1e-12 * max(a, p.y)
        assert h_approx_small_r(p, a).T >= 0.0


@pytest.mark.parametrize("p", ZERO_RATE_SETS)
def test_closed_form_matches_numeric(p):
    for ratio in np.geomspace(1e-6, 1e6, 25):
        a = ratio * p.y
        assert h_closed_r0(p, a).T == pytest.approx(h_numeric(p, a).T, rel=1e-9)


@pytest.mark.parametrize("p", ZERO_RATE_SETS)
def test_derivatives_match_finite_differences(p):
    fn = lambda a_, y_: y_ * consumption_path(p._replace(y=1.0), a_ / y_)  # c(a; y) = y*c(a/y; 1)
    for ratio in (0.01, 1.0, 100.0):
        a = ratio * p.y
        step = (EPS ** (1 / 3) * max(a, p.y), EPS ** (1 / 3) * p.y)
        g_fd = fd_gradient(fn, (a, p.y), step)
        d = consumption_derivatives(p, a)
        g_cl = (d.dc_da, d.dc_dy)
        assert g_fd[0] == pytest.approx(g_cl[0], rel=1e-5)
        assert g_fd[1] == pytest.approx(g_cl[1], rel=1e-5)
        step2 = (EPS**0.25 * max(a, p.y), EPS**0.25 * p.y)
        h_fd = fd_hessian(fn, (a, p.y), step2)
        h_cl = (d.d2c_da2, d.d2c_dady, d.d2c_dy2)
        for f, c in zip(h_fd, h_cl):
            assert f == pytest.approx(c, rel=5e-4)


@pytest.mark.parametrize("p", ZERO_RATE_SETS[:2])
def test_dp_agrees_with_knot_policy_at_zero_rate(p):
    grid = _make_asset_grid(10.0 * p.y, 400, p.y)
    sol = grid_dp(p, 1.0, grid)
    pol = discrete_policy(p, 1.0, 10.0 * p.y)
    assert np.max(np.abs(sol.policy - pol(grid))) <= 5e-4 * p.y
    assert sol.policy[0] == pytest.approx(p.y, abs=1e-6)


@pytest.mark.parametrize("p", ZERO_RATE_SETS + POSITIVE_RATE_SETS)
def test_dp_policy_beats_a_dense_scan(p):
    # the Bellman objective rebuilt from V by linear interpolation, scanned at
    # 4001 points of each node's consumption range [c_lo, c_hi].  The policy
    # solves the Euler equation, not this objective: the interpolant lies
    # below the concave V by up to h^2*|V''|/8 between nodes, so a scanned c
    # whose a' lands nearer a node can gain up to beta times that.  The gain
    # reads up to 7.4e-7*(1 + |V|) (at gamma = 5, y = 0.01); the bound is
    # about 13x that.
    delta = 1.0
    grid = _make_asset_grid(10.0 * p.y, 400, p.y)
    sol = grid_dp(p, delta, grid)
    beta = 1.0 / (1.0 + p.rho * delta)
    gross = 1.0 + p.r * delta

    def objective(c, a):
        a_next = gross * a + delta * (p.y - c)
        return delta * crra_utility(c, p.gamma) + beta * np.interp(a_next, grid, sol.value)

    c_hi = p.y + gross * grid / delta
    c_lo = np.maximum(1e-6 * p.y, (gross * grid + delta * p.y - grid[-1]) / delta)
    at_policy = objective(sol.policy, grid)
    share = np.linspace(0.0, 1.0, 4001)
    for block in np.array_split(np.arange(grid.size), 8):
        c = c_lo[block, None] + share * (c_hi - c_lo)[block, None]
        best = np.max(objective(c, grid[block, None]), axis=1)
        assert np.all(best - at_policy[block] <= 1e-5 * (1.0 + np.abs(sol.value[block])))


@pytest.mark.parametrize("p", ZERO_RATE_SETS + POSITIVE_RATE_SETS)
def test_value_bound_and_depletion(p):
    a0 = 2.0 * p.y
    assert pdv_utility(p, a0) < _value_upper_bound(p, a0)
    T = best_depletion_time(p, a0).T
    path = simulate_assets(p, a0, T / 5_000.0)
    assert path.depletion_time_observed == pytest.approx(T, rel=1e-6)
