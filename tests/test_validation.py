"""Oracle machinery: finite differences, quadrature, RK4, perturbations, grid DP."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import ifpclosed
from ifpclosed import checks, consumption, validation
from ifpclosed.checks import CRITERIA
from ifpclosed.consumption import consumption_from_depletion_time
from ifpclosed.depletion_map import best_depletion_time, h_closed_r0, h_numeric, mu
from ifpclosed.figures import discrete_policy
from ifpclosed.model_core import ModelParams, validate
from ifpclosed.validation import (
    _discounted_utility,
    _gauss_kronrod,
    _make_asset_grid,
    _value_upper_bound,
    crra_utility,
    fd_gradient,
    fd_hessian,
    grid_dp,
    pdv_utility,
    perturbed_path_values,
    simulate_assets,
)
from test_parameter_regimes import POSITIVE_RATE_SETS, ZERO_RATE_SETS

FIG1 = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0))
FIG1_R0 = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0))

# Sample-level slack allowed on the borrowing constraint a(t) >= 0; covers
# the RK4 error floor at the coarsest admissible step dt = T/100.
PATH_TOL = 1e-8


class TestFiniteDifferences:
    def test_gradient_bilinear(self):
        fd = fd_gradient(lambda a, y: a * y, (2.0, 3.0), (1e-4, 1e-4))
        assert fd[0] == pytest.approx(3.0, abs=1e-10)
        assert fd[1] == pytest.approx(2.0, abs=1e-10)

    def test_gradient_constant(self):
        fd = fd_gradient(lambda a, y: 7.0, (1.0, 1.0), (1e-3, 1e-3))
        assert fd == (0.0, 0.0)

    def test_gradient_per_coordinate_steps(self):
        fd = fd_gradient(lambda a, y: a**2 + y**3, (2.0, 3.0), (1e-4, 1e-5))
        assert fd[0] == pytest.approx(4.0, rel=1e-10)
        assert fd[1] == pytest.approx(27.0, rel=1e-10)

    def test_hessian_polynomial(self):
        fd = fd_hessian(lambda a, y: a**2 * y, (1.0, 1.0), (1e-3, 1e-3))
        assert fd[0] == pytest.approx(2.0, abs=1e-6)
        assert fd[1] == pytest.approx(2.0, abs=1e-6)
        assert fd[2] == pytest.approx(0.0, abs=1e-6)

    def test_hessian_cross_symmetric_function(self):
        fn = lambda a, y: np.sin(a * y)
        at = fd_hessian(fn, (0.4, 0.9), (1e-4, 1e-4))[1]
        swapped = fd_hessian(lambda a, y: fn(y, a), (0.9, 0.4), (1e-4, 1e-4))[1]
        assert at == pytest.approx(swapped, rel=1e-9)

    @pytest.mark.parametrize("stencil", [fd_gradient, fd_hessian])
    @pytest.mark.parametrize("centres", [2.0, np.geomspace(0.5, 4.0, 7)])
    def test_fn_is_called_once(self, stencil, centres):
        calls = []

        def fn(a, y):
            calls.append(np.broadcast(a, y).shape)
            return a * y

        stencil(fn, (centres, 3.0), (1e-3, 1e-3))
        assert calls == [((8 if stencil is fd_gradient else 17),) + np.shape(centres)]

    @pytest.mark.parametrize("a", [2.0, np.geomspace(1e-3, 1e3, 9)])
    def test_bit_for_bit_the_one_point_stencils(self, a):
        # the stencils as one scalar fn call per point, written out
        fn = lambda a, y: a * a * y - 3.0 * a * y * y * y + 0.25 * a * a * a * a

        def gradient(a, y, ha, hy):
            central_a = lambda h: (fn(a + h, y) - fn(a - h, y)) / (2.0 * h)
            central_y = lambda h: (fn(a, y + h) - fn(a, y - h)) / (2.0 * h)
            d_da = (4.0 * central_a(0.5 * ha) - central_a(ha)) / 3.0
            return d_da, (4.0 * central_y(0.5 * hy) - central_y(hy)) / 3.0

        def hessian(a, y, ha, hy):
            f0 = fn(a, y)
            second_a = lambda h: (fn(a + h, y) - 2.0 * f0 + fn(a - h, y)) / (h * h)
            second_y = lambda h: (fn(a, y + h) - 2.0 * f0 + fn(a, y - h)) / (h * h)
            cross = lambda h1, h2: (
                fn(a + h1, y + h2) - fn(a + h1, y - h2) - fn(a - h1, y + h2) + fn(a - h1, y - h2)
            ) / (4.0 * h1 * h2)
            d2_aa = (4.0 * second_a(0.5 * ha) - second_a(ha)) / 3.0
            d2_yy = (4.0 * second_y(0.5 * hy) - second_y(hy)) / 3.0
            return d2_aa, (4.0 * cross(0.5 * ha, 0.5 * hy) - cross(ha, hy)) / 3.0, d2_yy

        y = 3.0
        for stencil, one_point in ((fd_gradient, gradient), (fd_hessian, hessian)):
            entries = np.column_stack(stencil(fn, (a, y), (1e-3 * a, 1e-3 * y)))
            want = [one_point(a_k, y, 1e-3 * a_k, 1e-3 * y) for a_k in np.atleast_1d(a).tolist()]
            assert entries.tolist() == [list(w) for w in want]


RECURSION_CASES = [
    (lambda x: np.sin(20.0 * x), 0.0, 1.0, 60),
    (np.sqrt, 0.0, 2.0, 60),  # unbounded slope at 0: refines deep on the left only
    (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, 60),
    (lambda x: np.exp(-x) * np.cos(50.0 * x), 0.0, 3.0, 60),
    (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, 6),  # stopped by the depth cap
]


def integrate(f, a, b):
    """``_gauss_kronrod`` on the one interval [a, b], for an integrand of the nodes alone."""
    return float(_gauss_kronrod(lambda t, k: f(t), np.array([a]), np.array([b]))[0])


def counted(f):
    """f, recording the number of nodes of each call in ``.nodes``."""

    def g(t):
        g.nodes.append(t.size)
        return f(t)

    g.nodes = []
    return g


def step(x):
    return np.where(x < 0.3, 1.0, 2.0)


class TestAdaptiveSimpson:
    """The adaptive quadrature behind ``pdv_utility``: Gauss–Kronrod G7–K15.

    The class keeps the name it had when the rule was adaptive Simpson.
    """

    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sine(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_empty_interval(self):
        # an interval with a == b is 0.0, and f never sees it
        def f(t, k):
            raise AssertionError("f called")

        out = _gauss_kronrod(f, np.array([1.0, -0.5]), np.array([1.0, -0.5]))
        assert out.tolist() == [0.0, 0.0]

    def test_oscillatory(self):
        val = integrate(lambda x: np.sin(20.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(20.0)) / 20.0, abs=1e-10)

    def test_degree_22_is_exact_on_one_panel(self, monkeypatch):
        # K15 integrates degree 3*7 + 1 = 22 exactly, and not degree 24
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", 0)  # accept the first panel
        coef = [(-1.0) ** j * (j + 1) / 7.0 for j in range(23)]
        a, b = -0.5, 1.25
        exact = sum(
            Fraction(c) * (Fraction(b) ** (j + 1) - Fraction(a) ** (j + 1)) / (j + 1)
            for j, c in enumerate(coef)
        )
        f = counted(lambda x: np.polyval(coef[::-1], x))
        assert integrate(f, a, b) == pytest.approx(float(exact), rel=1e-14)
        assert f.nodes == [15]
        assert abs(integrate(lambda x: x**24, -1.0, 1.0) - 2.0 / 25.0) > 1e-9

    def test_degree_13_is_accepted_on_one_panel(self, monkeypatch):
        # G7 integrates degree 13 exactly too, so |K15 - G7| is rounding alone.
        # At this scale a weight 1e-13 off fails the relative acceptance, and
        # the low cap keeps such a weight from refining every panel 60 deep.
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", 2)
        f = counted(lambda x: 1e6 * (x**13 - 2.0 * x**6 + 1.0))
        assert integrate(f, -1.0, 1.5) == pytest.approx(
            1e6 * ((1.5**14 - 1.0) / 14.0 - 2.0 * (1.5**7 + 1.0) / 7.0 + 2.5), rel=1e-14
        )
        assert f.nodes == [15]

    @pytest.mark.parametrize(
        "f, a, b, exact",
        [(np.sqrt, 0.0, 2.0, 2.0 / 3.0 * 2.0**1.5), (step, 0.0, 1.0, 1.7)],
        ids=["sqrt", "step"],
    )
    def test_refines_and_converges(self, f, a, b, exact):
        f = counted(f)
        assert integrate(f, a, b) == pytest.approx(exact, abs=1e-10)
        assert len(f.nodes) > 10

    def test_depth_cap_stops_the_step(self, monkeypatch):
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", 6)
        f = counted(step)
        val = integrate(f, 0.0, 1.0)
        # one panel, then the two halves of the one panel that holds the jump
        assert f.nodes == [15] + [30] * 6
        assert 1e-10 < abs(val - 1.7) <= 2.0**-6

    def test_a_nan_estimate_stops_refining(self, monkeypatch):
        # a NaN panel is accepted as it is, so a NaN integrand takes one call of f,
        # where halving it to the depth cap would open 2^depth panels
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", 8)
        f = counted(lambda x: np.full(x.size, math.nan))
        assert math.isnan(integrate(f, 0.0, 1.0))
        assert f.nodes == [15]

    @pytest.mark.parametrize("f, a, b, max_depth", RECURSION_CASES)
    def test_equals_the_recursion(self, f, a, b, max_depth, monkeypatch):
        # depth-first adaptive G7-K15, one panel per call of f, with the same
        # panel rule and acceptance test; it sums each split panel as left + right
        nodes, accepted = [], []

        def recurse(lo, hi, eps, depth):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * validation._GK_NODES
            nodes.append(t)
            ft = f(t)
            kronrod = half * np.sum(ft * validation._GK_K15)
            err = abs(kronrod - half * np.sum(ft * validation._GK_G7))
            if depth >= max_depth or err <= eps or err <= 1e-14 * abs(kronrod):
                accepted.append(kronrod)
                return kronrod
            return recurse(lo, mid, 0.5 * eps, depth + 1) + recurse(mid, hi, 0.5 * eps, depth + 1)

        expected = recurse(a, b, 1e-10, 0)
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", max_depth)
        seen = []
        got = integrate(lambda t: seen.append(t.copy()) or f(t), a, b)
        # the same panels, node for node; the sums differ only in their order
        assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(np.concatenate(nodes)))
        assert abs(got - expected) <= len(accepted) * np.finfo(float).eps * np.sum(np.abs(accepted))

    def test_one_call_of_f_per_level(self, monkeypatch):
        nodes = []

        def f(x):
            assert isinstance(x, np.ndarray) and x.ndim == 1
            nodes.append(x.size)
            return np.sqrt(x)

        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", 12)
        integrate(f, 0.0, 2.0)
        assert nodes[0] == 15 and len(nodes) <= 12 + 1

        # a batch: one call per level for all its intervals, as many as its deepest tree needs
        levels = []
        for a, b in ((0.0, 1.0), (1.0, 2.0), (0.0, 0.5)):
            nodes.clear()
            integrate(f, a, b)
            levels.append(len(nodes))
        nodes.clear()
        a, b = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 0.5])
        _gauss_kronrod(lambda t, k: f(t), a, b)
        assert nodes[0] == 45 and len(nodes) == max(levels)

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
        monkeypatch.setattr(validation, "_QUAD_MAX_DEPTH", max_depth)
        batch = _gauss_kronrod(f, a, b)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(cases),)
        single = [integrate(g, lo, hi) for g, lo, hi in cases]
        assert batch.tolist() == single
        assert batch[-1] == 0.0 and len(cases) - 1 not in seen

    def test_a_noisy_integrand_stops_at_the_panel_cap(self):
        # noise of 1e-3 down to scales of 1e-12 beats the tolerance on every panel, so
        # without the cap each level would halve every panel, toward 2^60 of them
        noisy = lambda x: 1.0 + 1e-3 * np.sin(1e12 * x)
        f = counted(noisy)
        value = integrate(f, 0.0, 1.0)
        cap = validation._QUAD_MAX_PANELS
        assert math.isfinite(value) and abs(value - 1.0) <= 1e-3
        assert len(f.nodes) <= cap.bit_length() and sum(f.nodes) <= 15 * (2 * cap - 1)
        assert max(f.nodes) == 15 * cap
        # the cap is per interval: in a batch, the noisy one stops as it does alone, and a
        # smooth one refines as it does alone
        both = _gauss_kronrod(lambda t, k: np.where(k == 0, noisy(t), np.sin(20.0 * t)),
                              np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert both.tolist() == [value, integrate(lambda x: np.sin(20.0 * x), 0.0, 1.0)]

    def test_criterion_6_integrals_match_the_recursion(self, monkeypatch):
        # the 20 head integrals of criterion 6 (the optimum at a0 = 3 and ten
        # perturbed plans, then the nine other pdv_utility calls of the
        # bound), as a depth-first adaptive Simpson recursion with per-point
        # calls returned them
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
            calls.append(_gauss_kronrod(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(validation, "_gauss_kronrod", recorded)
        CRITERIA[6][1]()
        # the optimum, the ten plans in one batch, and one batch per rate
        assert len(calls) == 4
        values = [v for batch in calls for v in batch.tolist()]
        assert len(values) == len(expected)
        assert np.all(np.abs(np.subtract(values, expected)) <= 1e-13 * np.abs(expected))

    def test_criterion_6_integrand_calls_and_nodes(self, monkeypatch):
        # counts repeat exactly, so a slide back into deep refinement shows
        # here without any timing
        nodes = []

        def recorded(f, a, b):
            return _gauss_kronrod(lambda t, k: nodes.append(t.size) or f(t, k), a, b)

        monkeypatch.setattr(validation, "_gauss_kronrod", recorded)
        CRITERIA[6][1]()
        assert (len(nodes), sum(nodes)) == (8, 3900)


class TestPdvUtility:
    def test_constrained_value_exact(self):
        assert pdv_utility(FIG1_R0, 0.0) == crra_utility(3.0, 0.5) / 0.08

    def test_frozen_figure_value(self):
        assert pdv_utility(FIG1_R0, 3.0) == pytest.approx(44.756179411569563, rel=1e-9)

    def test_matches_analytic_head(self):
        # gamma != 1, r = 0: the head integral has the closed form
        # u(y) e^{qT} (1 - e^{-(rho+q)T})/(rho+q), q = (1-gamma)*rho/gamma
        cases = [(FIG1_R0, a0) for a0 in (0.5, 3.0, 20.0)] + [
            (ModelParams(0.05, 0.0, 5.0, 0.01), 1e6 * 0.01),
            (ModelParams(0.06, 0.0, 2.0, 100.0), 1e6 * 100.0),
        ]
        for p, a0 in cases:
            T = h_closed_r0(p, a0).T
            q = (1.0 - p.gamma) * p.rho / p.gamma
            head = (
                crra_utility(p.y, p.gamma)
                * math.exp(q * T)
                * (1.0 - math.exp(-(p.rho + q) * T))
                / (p.rho + q)
            )
            tail = math.exp(-p.rho * T) * crra_utility(p.y, p.gamma) / p.rho
            assert pdv_utility(p, a0) == pytest.approx(head + tail, rel=1e-12), (p, a0)

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_a_sequence_equals_scalar_calls(self, r):
        p = FIG1._replace(r=r)
        a0s = [0.0, 0.3, 3.0, 9.0, 300.0]
        values = pdv_utility(p, a0s)
        assert values.tolist() == [pdv_utility(p, a0) for a0 in a0s]
        assert values[0] == crra_utility(3.0, 0.5) / 0.08

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_a_negative_a0_in_a_sequence_raises(self, r):
        p = FIG1._replace(r=r)
        with pytest.raises(ValueError) as scalar:
            pdv_utility(p, -1.0)
        with pytest.raises(ValueError) as batch:
            pdv_utility(p, [3.0, -1.0])
        assert str(batch.value) == str(scalar.value)

    def test_stable_under_tighter_tolerance(self, monkeypatch):
        coarse = pdv_utility(FIG1_R0, 3.0)
        monkeypatch.setattr(validation, "_QUAD_TOL", 1e-12)
        fine = pdv_utility(FIG1_R0, 3.0)
        assert abs(coarse - fine) <= 1e-9

    @pytest.mark.parametrize("mult", [0.1, 1.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_below_value_bound(self, mult, r):
        p = validate(FIG1._replace(r=r))
        a0 = mult * p.y
        assert pdv_utility(p, a0) < _value_upper_bound(p, a0)


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

    @pytest.mark.parametrize("p", [FIG1_R0, ModelParams(0.05, 0.0, 5.0, 0.01)])
    def test_zero_rate_path_is_the_step_loop_bit_for_bit(self, p):
        # at r = 0 each RK4 step adds (h/6)*(k1 + 2*(k2 + k3) + k4), with
        # k1 = y - c(t), k2 = k3 = y - c(t + h/2) and k4 = y - c(t + h)
        a0 = 3.0 * p.y
        T = best_depletion_time(p, a0).T
        for dt in (T / 10_000.0, (T + 1.0) / 1024.0):
            path = simulate_assets(p, a0, dt)
            t, c = path.t, path.c
            h = np.minimum(dt, (T + 1.0) - t[:-1])
            c_mid = consumption_from_depletion_time(p, T, t[:-1] + 0.5 * h)
            a, loop = a0, [a0]
            for i in range(h.size):
                k1, k23, k4 = p.y - c[i], p.y - c_mid[i], p.y - c[i + 1]
                a += (h[i] / 6.0) * (k1 + 2.0 * (k23 + k23) + k4)
                loop.append(a)
            assert path.a.tobytes() == np.array(loop).tobytes()

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
        p = validate(FIG1._replace(r=r))
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

    def test_cycles_are_the_seeded_draws(self):
        # the ten frequencies were drawn once from this seed; the module keeps the doubles
        drawn = np.random.default_rng(20240301).uniform(1.0, 8.0, 10)
        assert np.array(validation._PERTURBATION_CYCLES).tobytes() == drawn.tobytes()

    def test_discounted_utility_of_plain_path_matches_pdv(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        b = FIG1_R0.rho / FIG1_R0.gamma
        c_fn = lambda t, k: FIG1_R0.y * np.exp(b * (T - t))
        assert _discounted_utility(FIG1_R0, c_fn, np.array([T]))[0] == pytest.approx(
            pdv_utility(FIG1_R0, 3.0), rel=1e-12
        )


class TestExactAnchor:
    @pytest.mark.parametrize("rho, gamma, y", [(0.08, 0.5, 3.0), (0.05, 5.0, 0.01),
                                               (0.06, 2.0, 100.0), (0.08, 1.0, 1.0)])
    def test_matches_the_mpmath_root(self, rho, gamma, y):
        from mp_reference import depletion_time_ref, rel_err

        p = ModelParams(rho, rho / (1.0 + gamma), gamma, y)
        for a in (10.0**k * y for k in range(-12, 13)):
            T = validation._anchor_depletion_time(p, a)
            assert rel_err(T, depletion_time_ref(rho, p.r, gamma, y, a, T)) <= 1e-15, a

    def test_zero_assets_deplete_at_once(self):
        assert validation._anchor_depletion_time(ModelParams(0.08, 0.08 / 1.5, 0.5, 3.0), 0.0) == 0.0

    def test_refuses_another_rate(self):
        with pytest.raises(ValueError, match="need r = rho/"):
            validation._anchor_depletion_time(FIG1, 3.0)


class TestTimePathOracles:
    def test_criteria_5_and_6_evaluate_the_path_in_array_calls(self, monkeypatch):
        # one call per time point would be 34,092
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
        grid = _make_asset_grid(30.0, 500, 3.0)
        assert grid[0] == 0.0 and grid[-1] == 30.0
        assert np.all(np.diff(grid) > 0.0)

    def test_denser_below_income(self):
        grid = _make_asset_grid(30.0, 2_000, 3.0)
        below = np.sum(grid < 3.0) / 3.0
        above = np.sum(grid >= 3.0) / 27.0
        assert 3.5 <= below / above <= 6.5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            _make_asset_grid(10.0, 100, 20.0)


class TestGridDp:
    def test_policy_against_piecewise_linear_r0(self):
        grid = _make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        pol = discrete_policy(FIG1_R0, 1.0, 10.0)
        assert np.max(np.abs(sol.policy - pol(grid))) <= 5e-4 * FIG1_R0.y

    def test_constrained_node_consumes_income(self):
        grid = _make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert sol.policy[0] == pytest.approx(FIG1_R0.y, abs=1e-6)

    def test_constrained_node_positive_rate(self):
        grid = _make_asset_grid(10.0, 300, FIG1.y)
        sol = grid_dp(FIG1, 1.0, grid)
        assert sol.policy[0] == pytest.approx(FIG1.y, abs=1e-6)

    def test_value_increasing_and_concave(self):
        grid = _make_asset_grid(10.0, 400, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert np.all(np.diff(sol.value) > 0.0)
        slopes = np.diff(sol.value) / np.diff(grid)
        assert np.max(np.diff(slopes)) <= 1e-9

    def test_policy_monotone(self):
        grid = _make_asset_grid(10.0, 300, FIG1_R0.y)
        sol = grid_dp(FIG1_R0, 1.0, grid)
        assert np.all(np.diff(sol.policy) > -1e-10)

    @pytest.mark.parametrize("p", ZERO_RATE_SETS + POSITIVE_RATE_SETS + [FIG1_R0, FIG1])
    def test_converged_residual_reported(self, p):
        # the solve stops on a policy that repeats bit for bit, and the plan
        # that V values (the endogenous map rebuilt from that policy) is at
        # a = 0 within as many steps as the solve took sweeps
        delta, grid = 1.0, _make_asset_grid(10.0 * p.y, 400, p.y)
        sol = grid_dp(p, delta, grid)
        assert sol.sup_norm_residual == 0.0
        beta, gross = 1.0 / (1.0 + p.rho * delta), 1.0 + p.r * delta
        growth = (beta * gross) ** (-1.0 / p.gamma)
        a_end = (grid - delta * (p.y - growth * sol.policy)) / gross
        a = grid
        for _ in range(sol.iterations):
            a = np.interp(a, a_end, grid)
        assert not a.any()

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_constrained_node_policy_is_exactly_income(self, p):
        # at a = 0 the Euler equation asks for more than y, so the constraint
        # binds: a' = 0 exactly and c = y
        sol = grid_dp(p, 1.0, _make_asset_grid(10.0, 300, p.y))
        assert sol.policy[0] == p.y

    def test_acceptance_solve_takes_nine_sweeps(self):
        grid = _make_asset_grid(30.0, 2000, FIG1_R0.y)
        assert grid_dp(FIG1_R0, 1.0, grid).iterations == 9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_dp(FIG1_R0, 1.0, np.array([1.0, 2.0]))  # must start at 0
        with pytest.raises(ValueError):
            grid_dp(FIG1_R0, 1.0, np.array([0.0, 2.0, 1.0]))

    def test_grid_dp_imports_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ifpclosed.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys\n"
            "import ifpclosed.checks, ifpclosed.cli\n"
            "from ifpclosed.model_core import ModelParams\n"
            "from ifpclosed.validation import grid_dp, _make_asset_grid\n"
            "sol = grid_dp(ModelParams(0.08, 0.0, 0.5, 3.0), 1.0, _make_asset_grid(5.0, 60, 3.0))\n"
            "assert sol.iterations > 1\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
