"""Oracle machinery: finite differences, quadrature, RK4, perturbations, grid DP."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ifpclosed
from ifpclosed.consumption import discrete_policy
from ifpclosed.depletion_map import h_closed_r0, h_numeric, mu
from ifpclosed.model_core import ModelParams, crra_utility, validate, value_upper_bound
from ifpclosed.validation import (
    PATH_TOL,
    adaptive_simpson,
    approximation_error_report,
    discounted_utility,
    fd_gradient,
    fd_hessian,
    grid_dp,
    make_asset_grid,
    pdv_utility,
    perturbed_path_values,
    simulate_assets,
    _pchip,
)

FIG1 = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0))
FIG1_R0 = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0))


class TestFiniteDifferences:
    def test_gradient_bilinear(self):
        fd = fd_gradient(lambda a, y: a * y, (2.0, 3.0), 1e-4)
        assert fd[0] == pytest.approx(3.0, abs=1e-10)
        assert fd[1] == pytest.approx(2.0, abs=1e-10)

    def test_gradient_constant(self):
        fd = fd_gradient(lambda a, y: 7.0, (1.0, 1.0), 1e-3)
        assert fd == (0.0, 0.0)

    def test_gradient_per_coordinate_steps(self):
        fd = fd_gradient(lambda a, y: a**2 + y**3, (2.0, 3.0), (1e-4, 1e-5))
        assert fd[0] == pytest.approx(4.0, rel=1e-10)
        assert fd[1] == pytest.approx(27.0, rel=1e-10)

    def test_hessian_polynomial(self):
        fd = fd_hessian(lambda a, y: a**2 * y, (1.0, 1.0), 1e-3)
        assert fd[0] == pytest.approx(2.0, abs=1e-6)
        assert fd[1] == pytest.approx(2.0, abs=1e-6)
        assert fd[2] == pytest.approx(0.0, abs=1e-6)

    def test_hessian_cross_symmetric_function(self):
        fn = lambda a, y: math.sin(a * y)
        at = fd_hessian(fn, (0.4, 0.9), 1e-4)[1]
        swapped = fd_hessian(lambda a, y: fn(y, a), (0.9, 0.4), 1e-4)[1]
        assert at == pytest.approx(swapped, rel=1e-9)


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0

    def test_oscillatory(self):
        val = adaptive_simpson(lambda x: math.sin(20.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(20.0)) / 20.0, abs=1e-10)


class TestPdvUtility:
    def test_constrained_value_exact(self):
        assert pdv_utility(FIG1_R0, 0.0) == crra_utility(3.0, 0.5) / 0.08

    def test_frozen_figure_value(self):
        assert pdv_utility(FIG1_R0, 3.0) == pytest.approx(44.756179411569563, rel=1e-9)

    def test_matches_analytic_head(self):
        # gamma != 1, r = 0: the head integral has the closed form
        # u(y) e^{qT} (1 - e^{-(rho+q)T})/(rho+q), q = (1-gamma)*rho/gamma
        p = FIG1_R0
        for a0 in (0.5, 3.0, 20.0):
            T = h_closed_r0(p, a0).T
            q = (1.0 - p.gamma) * p.rho / p.gamma
            head = (
                crra_utility(p.y, p.gamma)
                * math.exp(q * T)
                * (1.0 - math.exp(-(p.rho + q) * T))
                / (p.rho + q)
            )
            tail = math.exp(-p.rho * T) * crra_utility(p.y, p.gamma) / p.rho
            assert pdv_utility(p, a0) == pytest.approx(head + tail, rel=1e-9)

    def test_stable_under_tighter_tolerance(self):
        coarse = pdv_utility(FIG1_R0, 3.0, tol=1e-10)
        fine = pdv_utility(FIG1_R0, 3.0, tol=1e-12)
        assert abs(coarse - fine) <= 1e-9

    @pytest.mark.parametrize("mult", [0.1, 1.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_below_value_bound(self, mult, r):
        p = validate(replace(FIG1, r=r))
        a0 = mult * p.y
        assert pdv_utility(p, a0) < value_upper_bound(p, a0)


class TestSimulateAssets:
    def test_depletion_matches_closed_form(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        path = simulate_assets(FIG1_R0, 3.0, T / 10_000.0)
        assert abs(path.a[10_000]) <= 1e-6 * 3.0
        assert path.depletion_time_observed == pytest.approx(T, rel=1e-5)

    def test_path_identity_with_mu(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        path = simulate_assets(FIG1_R0, 3.0, T / 10_000.0)
        for j in range(1, 11):
            i = int(round(j * 10_000 / 11))
            expected = mu(FIG1_R0, T - path.t[i])
            assert path.a[i] == pytest.approx(expected, rel=1e-6)

    def test_feasible_throughout(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        path = simulate_assets(FIG1_R0, 3.0, T / 2_000.0)
        assert np.min(path.a) >= -PATH_TOL

    def test_assets_strictly_decreasing_before_depletion(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        path = simulate_assets(FIG1_R0, 3.0, T / 2_000.0)
        before = path.a[path.t < T * (1.0 - 1e-6)]
        assert np.all(np.diff(before) < 0.0)

    def test_immediate_depletion_for_tiny_assets(self):
        a0 = 1e-6
        path = simulate_assets(FIG1_R0, a0, h_closed_r0(FIG1_R0, a0).T / 200.0)
        assert path.depletion_time_observed <= h_closed_r0(FIG1_R0, a0).T * 1.5
        assert np.max(np.abs(path.c - FIG1_R0.y)) <= 1e-3 * FIG1_R0.y

    def test_positive_rate(self):
        T = h_numeric(FIG1, 3.0).T
        path = simulate_assets(FIG1, 3.0, T / 5_000.0)
        assert path.depletion_time_observed == pytest.approx(T, rel=1e-5)
        assert abs(path.a[5_000]) <= 1e-6 * 3.0

    def test_fourth_order_self_convergence(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        coarse = abs(simulate_assets(FIG1_R0, 3.0, T / 100.0).a[100])
        fine = abs(simulate_assets(FIG1_R0, 3.0, T / 200.0).a[200])
        assert 8.0 <= coarse / fine <= 32.0

    def test_consumption_samples_follow_policy(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        path = simulate_assets(FIG1_R0, 3.0, T / 500.0)
        assert path.c[0] == pytest.approx(5.0310481756909513, rel=1e-12)
        assert path.c[-1] == FIG1_R0.y

    def test_step_size_precondition(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        with pytest.raises(ValueError):
            simulate_assets(FIG1_R0, 3.0, T / 10.0)

    def test_rejects_zero_assets(self):
        with pytest.raises(ValueError):
            simulate_assets(FIG1_R0, 0.0, 1e-3)


class TestPerturbationDominance:
    def test_closed_form_beats_perturbed_plans(self):
        v_star, values = perturbed_path_values(FIG1_R0, 3.0, n_paths=10, eps=0.05)
        assert len(values) == 10
        assert all(v < v_star for v in values)

    def test_deterministic(self):
        first = perturbed_path_values(FIG1_R0, 3.0)
        second = perturbed_path_values(FIG1_R0, 3.0)
        assert first == second

    def test_discounted_utility_of_plain_path_matches_pdv(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        b = FIG1_R0.rho / FIG1_R0.gamma
        c_fn = lambda t: FIG1_R0.y * math.exp(b * (T - t))
        assert discounted_utility(FIG1_R0, c_fn, T) == pytest.approx(
            pdv_utility(FIG1_R0, 3.0), rel=1e-12
        )


class TestMakeAssetGrid:
    def test_endpoints_and_order(self):
        grid = make_asset_grid(30.0, 500, 3.0)
        assert grid[0] == 0.0 and grid[-1] == 30.0
        assert np.all(np.diff(grid) > 0.0)

    def test_denser_below_income(self):
        grid = make_asset_grid(30.0, 2_000, 3.0)
        below = np.sum(grid < 3.0) / 3.0
        above = np.sum(grid >= 3.0) / 27.0
        assert 3.5 <= below / above <= 6.5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            make_asset_grid(10.0, 100, 20.0)


class TestGridDp:
    def test_policy_against_piecewise_linear_r0(self):
        grid = make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        pol = discrete_policy(FIG1_R0, 1.0, 10.0)
        assert np.max(np.abs(sol.policy - pol(grid))) <= 5e-4 * FIG1_R0.y

    def test_constrained_node_consumes_income(self):
        grid = make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert sol.policy[0] == pytest.approx(FIG1_R0.y, abs=1e-6)

    def test_constrained_node_positive_rate(self):
        grid = make_asset_grid(10.0, 300, FIG1.y)
        sol = grid_dp(FIG1, 1.0, grid)
        assert sol.policy[0] == pytest.approx(FIG1.y, abs=1e-6)

    def test_value_increasing_and_concave(self):
        grid = make_asset_grid(10.0, 400, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert np.all(np.diff(sol.value) > 0.0)
        slopes = np.diff(sol.value) / np.diff(grid)
        assert np.max(np.diff(slopes)) <= 1e-9

    def test_policy_monotone(self):
        grid = make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert np.all(np.diff(sol.policy) > -1e-10)

    def test_converged_residual_reported(self):
        grid = make_asset_grid(5.0, 100, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert sol.sup_norm_residual <= 1e-10 * (1.0 + float(np.max(np.abs(sol.value))))
        assert sol.iterations < 100

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_dp(FIG1_R0, 1.0, np.array([1.0, 2.0]))  # must start at 0
        with pytest.raises(ValueError):
            grid_dp(FIG1_R0, 1.0, np.array([0.0, 2.0, 1.0]))


def _pchip_reference(x, y, q):
    interpolate = pytest.importorskip("scipy.interpolate")
    return interpolate.PchipInterpolator(x, y, extrapolate=True)(q)


class TestPchip:
    """``_pchip`` against scipy's PchipInterpolator, to 1e-13 of the values' scale."""

    @staticmethod
    def assert_matches_reference(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        span = x[-1] - x[0]
        # queries inside, on every node, and up to half a span beyond both ends
        q = np.sort(np.concatenate([np.linspace(x[0] - 0.5 * span, x[-1] + 0.5 * span, 997), x]))
        ref = _pchip_reference(x, y, q)
        got = _pchip(x, y)(q)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_monotone_data(self):
        x = make_asset_grid(30.0, 400, 3.0)
        self.assert_matches_reference(x, np.log1p(x) + 0.1 * x)

    def test_non_monotone_data(self):
        x = np.geomspace(0.1, 20.0, 150)
        self.assert_matches_reference(x, np.sin(x) + 0.3 * np.cos(3.1 * x))

    def test_random_data(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 10, 60):
            x = np.cumsum(rng.uniform(0.01, 2.0, n))
            self.assert_matches_reference(x, rng.normal(size=n))

    def test_flat_segments(self):
        x = [0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 7.0]
        self.assert_matches_reference(x, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 0.5, 0.5])

    @pytest.mark.parametrize(
        "y", [[0.0, 1.0, 11.0], [0.0, 1.0, -9.0], [11.0, 1.0, 0.0], [-9.0, 1.0, 0.0]]
    )
    def test_end_slope_clamps(self, y):
        # three-point end slope opposing the end secant (-> 0), and secants
        # changing sign with |slope| > 3*|secant| (-> 3*secant), at either end
        self.assert_matches_reference([0.0, 1.0, 2.0], y)

    def test_two_nodes_give_the_line(self):
        self.assert_matches_reference([1.0, 3.0], [2.0, -4.0])
        line = _pchip(np.array([1.0, 3.0]), np.array([2.0, -4.0]))
        assert np.array_equal(line(np.array([-1.0, 1.0, 2.0, 5.0])), [8.0, 2.0, -1.0, -10.0])

    def test_interpolates_nodes_and_keeps_monotone_shape(self):
        x = make_asset_grid(10.0, 50, 1.0)
        y = np.sqrt(x)
        interp = _pchip(x, y)
        # a node is the left end of its interval (s = 0) except the last
        assert np.array_equal(interp(x[:-1]), y[:-1])
        assert interp(x[-1:])[0] == pytest.approx(y[-1], rel=1e-14)
        fine = interp(np.linspace(0.0, 10.0, 5001))
        assert np.all(np.diff(fine) >= 0.0)

    def test_grid_dp_imports_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ifpclosed.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys\n"
            "import ifpclosed.checks, ifpclosed.cli\n"
            "from ifpclosed.model_core import ModelParams\n"
            "from ifpclosed.validation import grid_dp, make_asset_grid\n"
            "sol = grid_dp(ModelParams(0.08, 0.0, 0.5, 3.0), 1.0, make_asset_grid(5.0, 60, 3.0))\n"
            "assert sol.iterations > 1\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestApproximationErrorReport:
    def test_zero_rate_row_identically_zero(self):
        a_grid = np.linspace(0.0, 100.0, 41) * 3.0
        rows = approximation_error_report(FIG1, [0.0], a_grid)
        assert rows[0].max_rel_gap == 0.0

    def test_gap_vanishes_at_constraint(self):
        for r in (0.02, 0.01, 0.005):
            rows = approximation_error_report(FIG1, [r], np.array([0.0]))
            assert rows[0].max_rel_gap == 0.0

    def test_order_r_halving(self):
        a_grid = np.linspace(0.0, 100.0, 41) * 3.0
        rows = approximation_error_report(FIG1, [0.02, 0.01, 0.005], a_grid)
        by_r = {row.r: row.max_rel_gap for row in rows}
        assert 1.5 <= by_r[0.02] / by_r[0.01] <= 3.0
        assert 1.5 <= by_r[0.01] / by_r[0.005] <= 3.0

    def test_rejects_rate_at_or_above_rho(self):
        with pytest.raises(ValueError):
            approximation_error_report(FIG1, [0.08], np.array([1.0]))
