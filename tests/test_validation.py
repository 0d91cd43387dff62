"""Oracle machinery: finite differences, quadrature, RK4, perturbations, grid DP."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ifpclosed
from ifpclosed import checks, consumption, validation
from ifpclosed.checks import CRITERIA
from ifpclosed.consumption import consumption_from_depletion_time, discrete_policy
from ifpclosed.depletion_map import best_depletion_time, h_closed_r0, h_numeric, mu
from ifpclosed.model_core import ModelParams, crra_utility, validate, value_upper_bound
from ifpclosed.validation import (
    _adaptive_simpson,
    _discounted_utility,
    approximation_error_report,
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

# Sample-level slack allowed on the borrowing constraint a(t) >= 0; covers
# the RK4 error floor at the coarsest admissible step dt = T/100.
PATH_TOL = 1e-8


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


RECURSION_CASES = [
    (lambda x: np.sin(20.0 * x), 0.0, 1.0, 60),
    (np.sqrt, 0.0, 2.0, 60),  # unbounded slope at 0: refines deep on the left only
    (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, 60),
    (lambda x: np.exp(-x) * np.cos(50.0 * x), 0.0, 3.0, 60),
    (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, 6),  # stopped by the depth cap
]


def integrate(f, a, b):
    """``_adaptive_simpson`` on the one interval [a, b], for an integrand of the nodes alone."""
    return float(_adaptive_simpson(lambda t, k: f(t), np.array([a]), np.array([b]))[0])


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sine(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(math.exp, 1.0, 1.0) == 0.0

    def test_oscillatory(self):
        val = integrate(lambda x: np.sin(20.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(20.0)) / 20.0, abs=1e-10)

    @pytest.mark.parametrize("f, a, b, max_depth", RECURSION_CASES)
    def test_equals_the_recursion(self, f, a, b, max_depth, monkeypatch):
        # classical depth-first adaptive Simpson, one node per call of f
        def f1(x):
            return float(f(np.array([x]))[0])

        def simpson(fl, fm, fr, h):
            return h / 6.0 * (fl + 4.0 * fm + fr)

        def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
            mid = 0.5 * (lo + hi)
            flm, frm = f1(0.5 * (lo + mid)), f1(0.5 * (mid + hi))
            left = simpson(flo, flm, fmid, mid - lo)
            right = simpson(fmid, frm, fhi, hi - mid)
            err = (left + right - whole) / 15.0
            if depth >= max_depth or abs(err) <= max(eps, 1e-14 * (abs(left) + abs(right))):
                return left + right + err
            return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth + 1) + recurse(
                mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth + 1
            )

        fa, fm, fb = f1(a), f1(0.5 * (a + b)), f1(b)
        expected = recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), 1e-10, 0)
        monkeypatch.setattr(validation, "_SIMPSON_MAX_DEPTH", max_depth)
        assert integrate(f, a, b) == expected

    def test_one_call_of_f_per_level(self, monkeypatch):
        nodes = []

        def f(x):
            assert isinstance(x, np.ndarray) and x.ndim == 1
            nodes.append(x.size)
            return np.sqrt(x)

        monkeypatch.setattr(validation, "_SIMPSON_MAX_DEPTH", 12)
        integrate(f, 0.0, 2.0)
        assert nodes[0] == 3 and len(nodes) <= 12 + 2

        # a batch: one call per level for all its intervals, as many as its deepest tree needs
        levels = []
        for a, b in ((0.0, 1.0), (1.0, 2.0), (0.0, 0.5)):
            nodes.clear()
            integrate(f, a, b)
            levels.append(len(nodes))
        nodes.clear()
        a, b = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 0.5])
        _adaptive_simpson(lambda t, k: f(t), a, b)
        assert nodes[0] == 9 and len(nodes) == max(levels)

    @pytest.mark.parametrize("max_depth", [60, 6])
    def test_a_batch_equals_calls_on_each_interval(self, max_depth, monkeypatch):
        # every recursion case's integrand on its interval, in one batch with a
        # zero-width interval; at max_depth = 6 the depth cap stops several trees
        cases = [(f, a, b) for f, a, b, _ in RECURSION_CASES] + [(np.exp, 0.7, 0.7)]
        seen = []

        def f(t, k):
            seen.extend(k.tolist())
            out = np.empty(t.size)
            for j, (g, _, _) in enumerate(cases):
                here = k == j
                out[here] = g(t[here])
            return out

        a, b = np.array([lo for _, lo, _ in cases]), np.array([hi for _, _, hi in cases])
        monkeypatch.setattr(validation, "_SIMPSON_MAX_DEPTH", max_depth)
        batch = _adaptive_simpson(f, a, b)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(cases),)
        single = [integrate(g, lo, hi) for g, lo, hi in cases]
        assert batch.tolist() == single
        assert batch[-1] == 0.0 and len(cases) - 1 not in seen

    def test_criterion_6_integrals_match_the_recursion(self, monkeypatch):
        # the 20 head integrals of criterion 6 (the optimum at a0 = 3 and ten
        # perturbed plans, then the nine other pdv_utility calls of the
        # bound), as the depth-first recursion with per-point calls returned them
        expected = [
            11.318815994643757, 11.312484363926892, 11.317038517864633, 11.315848772595473,
            11.317054278257821, 11.3130396568399, 11.317044110664067, 11.314655742103747,
            11.31043027881402, 11.316093099451574, 11.317043266235235,
            3.765604971414273, 18.790915095520692, 32.35201957043509, 91.97193575843927,
            4.017244793474083, 12.021904190414896, 19.87213645551057, 33.98325940908206,
            95.36555603329577,
        ]
        calls = []

        def recorded(*args, **kwargs):
            calls.append(_adaptive_simpson(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(validation, "_adaptive_simpson", recorded)
        CRITERIA[6][1]()
        # the optimum, the ten plans in one batch, and one batch per rate
        assert len(calls) == 4
        values = [v for batch in calls for v in batch.tolist()]
        assert len(values) == len(expected)
        assert np.all(np.abs(np.subtract(values, expected)) <= 1e-13 * np.abs(expected))


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

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_a_sequence_equals_scalar_calls(self, r):
        p = replace(FIG1, r=r)
        a0s = [0.0, 0.3, 3.0, 9.0, 300.0]
        values = pdv_utility(p, a0s)
        assert values.tolist() == [pdv_utility(p, a0) for a0 in a0s]
        assert values[0] == crra_utility(3.0, 0.5) / 0.08

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_a_negative_a0_in_a_sequence_raises(self, r):
        p = replace(FIG1, r=r)
        with pytest.raises(ValueError) as scalar:
            pdv_utility(p, -1.0)
        with pytest.raises(ValueError) as batch:
            pdv_utility(p, [3.0, -1.0])
        assert str(batch.value) == str(scalar.value)

    def test_stable_under_tighter_tolerance(self, monkeypatch):
        coarse = pdv_utility(FIG1_R0, 3.0)
        monkeypatch.setattr(validation, "_SIMPSON_TOL", 1e-12)
        fine = pdv_utility(FIG1_R0, 3.0)
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

    @staticmethod
    def rk4_loop(p, a0, dt):
        """Step-by-step classical RK4 with per-point calls of the time path."""
        T = best_depletion_time(p, a0).T
        r, y, t_end = p.r, p.y, T + 1.0
        t, a, c = 0.0, a0, consumption_from_depletion_time(p, T, 0.0)
        ts, as_, cs = [t], [a], [c]
        for _ in range(math.ceil(t_end / dt)):
            h = min(dt, t_end - t)
            c_mid = consumption_from_depletion_time(p, T, t + 0.5 * h)
            c_end = consumption_from_depletion_time(p, T, t + h)
            k1 = r * a + y - c
            k2 = r * (a + 0.5 * h * k1) + y - c_mid
            k3 = r * (a + 0.5 * h * k2) + y - c_mid
            k4 = r * (a + h * k3) + y - c_end
            a += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t, c = t + h, c_end
            ts.append(t), as_.append(a), cs.append(c)
        return np.array(ts), np.array(as_), np.array(cs)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_matches_the_reference_loop(self, p):
        T = best_depletion_time(p, 3.0).T
        for dt in (T / 2_000.0, T / 777.0, (T + 1.0) / 1000.0, (T + 1.0) / 1024.0):
            ts, as_, cs = self.rk4_loop(p, 3.0, dt)
            path = simulate_assets(p, 3.0, dt)
            assert np.array_equal(path.t, ts)  # the same nodes, bit for bit
            assert np.all(np.abs(path.c - cs) <= 2.0 * np.spacing(cs))  # vector exp: an ulp
            assert np.max(np.abs(path.a - as_)) <= 1e-14 * 3.0

    # a(t) of the step-by-step RK4 loop at the samples criterion 5 reads, and
    # at four early ones, from a0 = 3 with dt = T/10_000
    SAMPLES = [1, 10, 100, 1000] + [round(j * 10_000 / 11) for j in range(1, 11)]
    LOOP_PATHS = {
        0.0: [
            2.9993437391985385, 2.9934411735954454, 2.9347892525626436, 2.3850080263009135,
            2.4376082382634032, 1.9414905744786104, 1.5086043972234824, 1.1360467798781104,
            0.821048067763864, 0.5607089439473381, 0.35307814987125885, 0.19543455123611947,
            0.0854832603480847, 0.021034746684908883,
        ],
        0.01: [
            2.99935022828108, 2.993505936504738, 2.9354241713750833, 2.390166111464761,
            2.4424005030201834, 1.9491218934552472, 1.5174962056118817, 1.1449718291130584,
            0.8291084533641251, 0.5673135999891865, 0.35792864166720156, 0.1985019383453283,
            0.08699217707296064, 0.021447173571515404,
        ],
    }

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_matches_the_step_by_step_loop(self, r):
        p = validate(replace(FIG1, r=r))
        T = best_depletion_time(p, 3.0).T
        a = simulate_assets(p, 3.0, T / 10_000.0).a
        expected = np.array(self.LOOP_PATHS[r])
        assert np.all(np.abs(a[self.SAMPLES] - expected) <= 1e-12 * expected)


class TestPerturbationDominance:
    def test_closed_form_beats_perturbed_plans(self):
        v_star, values = perturbed_path_values(FIG1_R0, 3.0)
        assert len(values) == 10
        assert all(v < v_star for v in values)

    def test_deterministic(self):
        first = perturbed_path_values(FIG1_R0, 3.0)
        second = perturbed_path_values(FIG1_R0, 3.0)
        assert first == second

    def test_discounted_utility_of_plain_path_matches_pdv(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        b = FIG1_R0.rho / FIG1_R0.gamma
        c_fn = lambda t, k: FIG1_R0.y * np.exp(b * (T - t))
        assert _discounted_utility(FIG1_R0, c_fn, np.array([T]))[0] == pytest.approx(
            pdv_utility(FIG1_R0, 3.0), rel=1e-12
        )


class TestTimePathOracles:
    def test_criteria_5_and_6_evaluate_the_path_in_array_calls(self, monkeypatch):
        # one call per time point would be about 61,000
        original = consumption.consumption_from_depletion_time
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (consumption, validation, checks):
            monkeypatch.setattr(module, "consumption_from_depletion_time", counted)
        CRITERIA[5][1]()
        CRITERIA[6][1]()
        assert 0 < len(calls) <= 1_000


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

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_constrained_node_policy_is_exactly_income(self, p):
        # at a = 0 the upper end of the range is c = y, and the first-order
        # condition there is >= 0, so the node takes that end exactly
        sol = grid_dp(p, 1.0, make_asset_grid(10.0, 300, p.y))
        assert sol.policy[0] == p.y

    def test_acceptance_solve_takes_ten_sweeps(self):
        grid = make_asset_grid(30.0, 2000, FIG1_R0.y)
        assert grid_dp(FIG1_R0, 1.0, grid).iterations == 10

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

    def test_slopes_match_reference_derivatives(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        x = make_asset_grid(30.0, 400, 3.0)
        y = np.log1p(x) + 0.1 * x
        ref = interpolate.PchipInterpolator(x, y, extrapolate=True)
        q = np.linspace(-1.0, 31.0, 3001)
        slope, curvature = _pchip(x, y)(q, slopes=True)
        for got, want in ((slope, ref(q, 1)), (curvature, ref(q, 2))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
        assert approximation_error_report(FIG1, [0.0], a_grid) == {0.0: 0.0}

    def test_gap_vanishes_at_constraint(self):
        for r in (0.02, 0.01, 0.005):
            assert approximation_error_report(FIG1, [r], np.array([0.0])) == {r: 0.0}

    def test_order_r_halving(self):
        a_grid = np.linspace(0.0, 100.0, 41) * 3.0
        by_r = approximation_error_report(FIG1, [0.02, 0.01, 0.005], a_grid)
        assert 1.5 <= by_r[0.02] / by_r[0.01] <= 3.0
        assert 1.5 <= by_r[0.01] / by_r[0.005] <= 3.0

    def test_rejects_rate_at_or_above_rho(self):
        with pytest.raises(ValueError):
            approximation_error_report(FIG1, [0.08], np.array([1.0]))
