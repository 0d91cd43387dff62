"""Consumption function, closed-form derivatives, and the discrete policy."""

import math
import warnings

import numpy as np
import pytest

import ifpclosed.figures
from ifpclosed.checks import _wm1
from ifpclosed.consumption import (
    consumption_approx_small_r,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
)
from ifpclosed.depletion_map import h_approx_small_r, h_closed_r0, h_numeric, mu
from ifpclosed.figures import _consumption_unconstrained, _mu_discrete, _step_growth, discrete_policy
from ifpclosed.model_core import ModelParams, validate
from ifpclosed.validation import fd_gradient, fd_hessian

FIG1 = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0))
FIG1_R0 = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0))
EPS = float(np.finfo(float).eps)


# (dc/da, dc/dy) and (d2c/da2, d2c/dady, d2c/dy2), read from the derivative bundle
def jacobian(p, a):
    d = consumption_derivatives(p, a)
    return d.dc_da, d.dc_dy


def hessian(p, a):
    d = consumption_derivatives(p, a)
    return d.d2c_da2, d.d2c_dady, d.d2c_dy2


class TestConsumptionPath:
    def test_constrained_from_start(self):
        for t in (0.0, 1.0, 50.0):
            assert consumption_path(FIG1_R0, 0.0, t) == FIG1_R0.y

    def test_returns_income_after_depletion(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        assert consumption_path(FIG1_R0, 3.0, T + 1e-9) == FIG1_R0.y
        assert consumption_path(FIG1_R0, 3.0, 1e6) == FIG1_R0.y

    def test_continuous_at_depletion(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        assert consumption_path(FIG1_R0, 3.0, T - 1e-10) == pytest.approx(FIG1_R0.y, rel=1e-9)

    def test_decreasing_in_time(self):
        T = h_closed_r0(FIG1_R0, 3.0).T
        ts = np.linspace(0.0, T, 50)
        cs = [consumption_path(FIG1_R0, 3.0, t) for t in ts]
        assert np.all(np.diff(cs) < 0.0)

    def test_positive_rate_uses_numeric_inversion(self):
        T = h_numeric(FIG1, 3.0).T
        expected = FIG1.y * math.exp((FIG1.rho - FIG1.r) * T / FIG1.gamma)
        assert consumption_path(FIG1, 3.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            consumption_path(FIG1_R0, 1.0, -0.5)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_rejects_nan_time(self, p):
        with pytest.raises(ValueError, match="t >= 0"):
            consumption_path(p, 1.0, math.nan)

    def test_infinite_time_consumes_income(self):
        assert consumption_path(FIG1, 3.0, math.inf) == FIG1.y

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_time_path_rejects_nan_and_negative_times(self, p):
        with pytest.raises(ValueError, match="t >= 0"):
            consumption_from_depletion_time(p, 1.0, math.nan)
        for T in (math.nan, -1.0):
            with pytest.raises(ValueError, match="T >= 0"):
                consumption_from_depletion_time(p, T)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_array_times_match_scalar_calls(self, p):
        # numpy's vector exp may differ from math.exp by one ulp; times y and
        # rounded, that is up to two ulps of c
        T = h_numeric(p, 3.0).T
        t = np.linspace(0.0, 1.5 * T, 2001)
        Ts = np.geomspace(1e-6, 1e2, 2001)
        for T_, t_ in ((T, t), (Ts, t), (Ts[:, None], t[None, ::50])):
            expected = np.vectorize(lambda T1, t1: consumption_from_depletion_time(p, T1, t1))(T_, t_)
            got = consumption_from_depletion_time(p, T_, t_)
            assert got.shape == expected.shape
            assert np.all(np.abs(got - expected) <= 2.0 * np.spacing(expected))
            past = np.broadcast_to(t_ > T_, got.shape)
            assert past.any() and np.all(got[past] == p.y)

    def test_array_times_keep_the_scalar_errors(self):
        for bad in (math.nan, -1.0):
            with pytest.raises(ValueError) as scalar_error:
                consumption_from_depletion_time(FIG1, 1.0, bad)
            with pytest.raises(ValueError) as array_error:
                consumption_from_depletion_time(FIG1, 1.0, np.array([0.0, bad, 0.5]))
            assert str(array_error.value) == str(scalar_error.value)

    def test_overflow_is_a_value_error(self):
        # (rho - r)T/gamma = 709.0: e^x fits, y*e^x does not; and e^x itself past 709.8
        p = validate(ModelParams(rho=0.08, r=0.01, gamma=0.05, y=3.0))
        for T in (506.4, 600.0, math.inf):
            with pytest.raises(ValueError, match="overflows a double"):
                consumption_from_depletion_time(p, T)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="overflows a double"):
                    consumption_from_depletion_time(p, np.array([1.0, T]))
                with pytest.raises(ValueError, match="overflows a double"):
                    consumption_from_depletion_time(p, T, np.array([1e3, 0.0]))
        assert consumption_from_depletion_time(p, 600.0, 601.0) == p.y

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_non_finite_assets(self, a):
        with pytest.raises(ValueError, match="finite a"):
            consumption_path(FIG1_R0, a, 0.0)


class TestConsumptionNowR0:
    def test_at_constraint(self):
        assert consumption_path(FIG1_R0, 0.0) == FIG1_R0.y

    def test_frozen_figure_value(self):
        assert consumption_path(FIG1_R0, 3.0) == pytest.approx(5.0310481756909513, rel=1e-13)

    def test_lambert_identity(self):
        a = np.geomspace(1e-4, 1e3, 50) * FIG1_R0.y
        f = -np.exp(-(1.0 + FIG1_R0.rho * a / (FIG1_R0.gamma * FIG1_R0.y)))
        c = [consumption_path(FIG1_R0, a_) for a_ in a.tolist()]
        assert c == pytest.approx(-FIG1_R0.y * _wm1(f), rel=1e-13)

    def test_round_trip_through_mu(self):
        a = mu(FIG1_R0, 10.0)
        expected = FIG1_R0.y * math.exp(FIG1_R0.rho * 10.0 / FIG1_R0.gamma)
        assert consumption_path(FIG1_R0, a) == pytest.approx(expected, rel=1e-11)

    def test_exceeds_income_away_from_constraint(self):
        for a in np.geomspace(1e-6, 1e6, 30):
            assert consumption_path(FIG1_R0, a) > FIG1_R0.y

    def test_monotone_and_concave_in_assets(self):
        grid = np.geomspace(1e-3, 1e3, 300)
        cs = np.array([consumption_path(FIG1_R0, a) for a in grid])
        assert np.all(np.diff(cs) > 0.0)
        slopes = np.diff(cs) / np.diff(grid)
        assert np.all(np.diff(slopes) < 0.0)

    def test_monotone_and_concave_in_income(self):
        a = 3.0
        ys = np.geomspace(0.5, 50.0, 200)
        cs = np.array([consumption_path(FIG1_R0._replace(y=y), a) for y in ys])
        assert np.all(np.diff(cs) > 0.0)
        slopes = np.diff(cs) / np.diff(ys)
        assert np.all(np.diff(slopes) < 0.0)

    @pytest.mark.parametrize("lam", [0.1, 2.0, 10.0])
    def test_homogeneous_of_degree_one(self, lam):
        for a in (0.3, 3.0, 30.0):
            scaled = consumption_path(FIG1_R0._replace(y=lam * FIG1_R0.y), lam * a)
            assert scaled == pytest.approx(lam * consumption_path(FIG1_R0, a), rel=1e-12)



class TestConsumptionApproxSmallR:
    def test_reduces_exactly_at_r0(self):
        for a in (0.0, 0.7, 3.0, 42.0):
            assert consumption_approx_small_r(FIG1_R0, a, 0.0) == consumption_path(FIG1_R0, a)

    def test_income_at_constraint(self):
        assert consumption_approx_small_r(FIG1, 0.0) == FIG1.y

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="t >= 0"):
            consumption_approx_small_r(FIG1, 1.0, math.nan)

    def test_tracks_numeric_solution_at_small_r(self):
        for a in np.linspace(0.0, 30.0, 16):
            c_ref = consumption_from_depletion_time(FIG1, h_numeric(FIG1, a).T)
            assert consumption_approx_small_r(FIG1, a) == pytest.approx(c_ref, rel=0.05)

    def test_positive_rate_signs_by_finite_differences(self):
        # no closed-form derivatives exist at r > 0; the shape claims are
        # checked numerically on the small-r approximation instead
        # c(a; y) = y*c(a/y; 1) at every r: the stencil's points in one array call at unit income
        fn = lambda a_, y_: y_ * consumption_approx_small_r(FIG1._replace(y=1.0), a_ / y_)
        for ratio in np.geomspace(1e-2, 1e2, 9):
            a = ratio * FIG1.y
            step = (EPS ** (1 / 3) * max(a, FIG1.y), EPS ** (1 / 3) * FIG1.y)
            g = fd_gradient(fn, (a, FIG1.y), step)
            assert g[0] > 0.0 and g[1] > 0.0
            step2 = (EPS**0.25 * max(a, FIG1.y), EPS**0.25 * FIG1.y)
            h_aa, h_ay, h_yy = fd_hessian(fn, (a, FIG1.y), step2)
            assert h_aa < 0.0 and h_yy < 0.0 and h_ay > 0.0


class TestJacobianClosed:
    def test_frozen_figure_values(self):
        dc_da, dc_dy = jacobian(FIG1_R0, 3.0)
        assert dc_da == pytest.approx(0.3963311740927596, rel=1e-13)
        assert dc_dy == pytest.approx(1.2806848844708909, rel=1e-13)

    def test_positive_everywhere(self):
        for ratio in np.geomspace(1e-8, 1e8, 100):
            dc_da, dc_dy = jacobian(FIG1_R0, ratio * FIG1_R0.y)
            assert dc_da > 0.0 and dc_dy > 0.0

    def test_matches_finite_differences(self):
        fn = lambda a_, y_: y_ * consumption_path(FIG1_R0._replace(y=1.0), a_ / y_)
        for ratio in np.geomspace(1e-3, 1e3, 15):
            a = ratio * FIG1_R0.y
            step = (EPS ** (1 / 3) * max(a, FIG1_R0.y), EPS ** (1 / 3) * FIG1_R0.y)
            fd = fd_gradient(fn, (a, FIG1_R0.y), step)
            closed = jacobian(FIG1_R0, a)
            assert fd[0] == pytest.approx(closed[0], rel=1e-6)
            assert fd[1] == pytest.approx(closed[1], rel=1e-6)

    def test_euler_identity(self):
        y = FIG1_R0.y
        for ratio in np.geomspace(1e-6, 1e6, 60):
            a = ratio * y
            dc_da, dc_dy = jacobian(FIG1_R0, a)
            c = consumption_path(FIG1_R0, a)
            assert a * dc_da + y * dc_dy == pytest.approx(c, rel=1e-10)

    def test_asymptotic_mpc(self):
        dc_da, _ = jacobian(FIG1_R0, 1e8 * FIG1_R0.y)
        assert abs(dc_da - FIG1_R0.rho / FIG1_R0.gamma) <= 1e-4

    def test_asset_mpc_non_increasing_at_rounding_level(self):
        # b*(v - 1)/v rose here in 5 of 60 steps; b - b/v is monotone op by op
        p = validate(ModelParams(rho=0.05859375, r=0.0, gamma=1.0, y=1.0))
        mpcs = [jacobian(p, 1e12 * 10.0 ** (k * 1e-9))[0] for k in range(61)]
        assert all(hi <= lo for lo, hi in zip(mpcs, mpcs[1:]))

    def test_mpc_diverges_at_constraint(self):
        dc_da, _ = jacobian(FIG1_R0, 1e-8 * FIG1_R0.y)
        assert dc_da > 1e3 * (FIG1_R0.rho / FIG1_R0.gamma)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobian(FIG1_R0, 0.0)
        with pytest.raises(ValueError):
            jacobian(FIG1, 1.0)

    def test_income_mpc_matches_mpmath(self):
        # the paper's form (1 - v)*(1 + du/v) cancels like du: 0 from a/y ~ 5.6e18
        from mp_reference import r0_reference, rel_err

        for ratio in map(float, np.geomspace(1e-3, 1e300, 61)):
            a = ratio * FIG1_R0.y
            ref = r0_reference(FIG1_R0.rho, FIG1_R0.gamma, FIG1_R0.y, a)["dc_dy"]
            assert rel_err(jacobian(FIG1_R0, a)[1], ref) <= 1e-14, ratio

    def test_income_mpc_finite_where_its_product_would_overflow(self):
        # (v - 1)*log1p(-v) passes the double range from a/y ~ 1e306; q*log1p(-v) does not
        from mp_reference import r0_reference, rel_err

        p = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=1e-8))
        ref = r0_reference(p.rho, p.gamma, p.y, 1e300)["dc_dy"]
        assert rel_err(jacobian(p, 1e300)[1], ref) <= 1e-14

    def test_income_mpc_array_finite_where_its_product_would_overflow(self):
        from mp_reference import r0_reference, rel_err

        p = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=1e-8))
        a = np.array([3e-8, 1e290, 1e297, 1e300, 1.7e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dc_dy = consumption_derivatives(p, a).dc_dy
        for a_i, got in zip(a.tolist(), dc_dy.tolist()):
            assert rel_err(got, r0_reference(p.rho, p.gamma, p.y, a_i)["dc_dy"]) <= 1e-14, a_i


class TestHessianClosed:
    def test_frozen_figure_values(self):
        h_aa, h_ay, h_yy = hessian(FIG1_R0, 3.0)
        # at a = y all three entries share one magnitude
        assert h_aa == pytest.approx(-0.046116784832560323, rel=1e-12)
        assert h_ay == pytest.approx(+0.046116784832560323, rel=1e-12)
        assert h_yy == pytest.approx(-0.046116784832560323, rel=1e-12)

    def test_sign_pattern(self):
        for ratio in np.geomspace(1e-6, 1e6, 100):
            h_aa, h_ay, h_yy = hessian(FIG1_R0, ratio * FIG1_R0.y)
            assert h_aa < 0.0 < h_ay and h_yy < 0.0

    def test_rank_one_determinant(self):
        for ratio in np.geomspace(1e-3, 1e3, 40):
            h_aa, h_ay, h_yy = hessian(FIG1_R0, ratio * FIG1_R0.y)
            assert abs(h_aa * h_yy - h_ay * h_ay) <= 1e-12 * abs(h_aa * h_yy)

    def test_matches_finite_differences(self):
        fn = lambda a_, y_: y_ * consumption_path(FIG1_R0._replace(y=1.0), a_ / y_)
        for ratio in np.geomspace(1e-3, 1e3, 15):
            a = ratio * FIG1_R0.y
            step = (EPS**0.25 * max(a, FIG1_R0.y), EPS**0.25 * FIG1_R0.y)
            fd = fd_hessian(fn, (a, FIG1_R0.y), step)
            closed = hessian(FIG1_R0, a)
            for f, c in zip(fd, closed):
                assert f == pytest.approx(c, rel=1e-4)

    def test_supermodularity_cross_difference(self):
        fn = lambda a_, y_: consumption_path(FIG1_R0._replace(y=y_), a_)
        for a in np.geomspace(0.03, 300.0, 20):
            for y in np.geomspace(1.0, 10.0, 10):
                h, k = 1e-3 * max(a, y), 1e-3 * y
                assert fn(a + h, y + k) - fn(a + h, y) - fn(a, y + k) + fn(a, y) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hessian(FIG1_R0, 0.0)
        with pytest.raises(ValueError):
            hessian(FIG1, 1.0)

    def test_finite_at_every_asset_level(self):
        # in the paper's forms v**3 overflows from a/y ~ 3.5e103 and
        # (a/y)**2 * k reads inf*0 from ~4.5e153; past a/y ~ 1e155 the true
        # d2c/da2 and d2c/dady (~1/v^2) underflow
        for ratio in map(float, np.geomspace(1e-12, 1e300, 105)):
            h_aa, h_ay, h_yy = hessian(FIG1_R0, ratio * FIG1_R0.y)
            assert h_aa <= 0.0 <= h_ay and h_yy < 0.0, ratio
            assert ratio > 1e150 or (h_aa < 0.0 < h_ay), ratio

    def test_asset_curvatures_at_tiny_rho_over_gamma(self):
        # b = rho/gamma = 8e-302, where b*b underflows: the entries read -0 and 0 when formed first
        from mp_reference import branch_offset_ref, mpmath, rel_err

        p = validate(ModelParams(rho=0.08, r=0.0, gamma=1e300, y=3.0))
        with mpmath.workdps(50):
            b = mpmath.mpf(p.rho) / p.gamma
            v = branch_offset_ref(b * 3.0 / p.y)
            b2_k_over_y = b * b / p.y * (v - 1) / v**3  # k = w/(1 + w)^3 with w = v - 1
        h_aa, h_ay, _ = hessian(p, 3.0)
        assert rel_err(h_aa, -b2_k_over_y) <= 1e-15
        assert rel_err(h_ay, 3.0 / p.y * b2_k_over_y) <= 1e-15

    @pytest.mark.parametrize("ratio", [1e104, 1e154, 1e300])
    def test_income_curvature_matches_mpmath_at_huge_assets(self, ratio):
        from mp_reference import r0_reference, rel_err

        a = ratio * FIG1_R0.y
        ref = r0_reference(FIG1_R0.rho, FIG1_R0.gamma, FIG1_R0.y, a)["d2c_dy2"]
        assert rel_err(hessian(FIG1_R0, a)[2], ref) <= 1e-14


class TestConsumptionDerivatives:
    def test_bundle_consistency(self):
        # the bundle's one branch offset reproduces every separate route bit for bit
        other = validate(ModelParams(rho=0.05, r=0.0, gamma=5.0, y=0.01))
        for p in (FIG1_R0, other):
            for ratio in np.geomspace(1e-12, 1e12, 49):
                a = ratio * p.y
                d = consumption_derivatives(p, a)
                assert d.T == h_closed_r0(p, a).T == h_approx_small_r(p, a).T
                assert d.c == consumption_path(p, a) == consumption_approx_small_r(p, a)

    def test_unpacks_in_field_order(self):
        d = consumption_derivatives(FIG1_R0, 3.0)
        assert tuple(d) == (d.T, d.c, d.dc_da, d.dc_dy, d.d2c_da2, d.d2c_dady, d.d2c_dy2)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_non_finite_assets(self, a):
        with pytest.raises(ValueError, match="finite a"):
            consumption_derivatives(FIG1_R0, a)

    # a/y = 1e-12 at y = 1e-300: d2c/da2 ~ -(b^2/y)/|v|^3 is about -1e316
    TINY_INCOME = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=1e-300))

    def test_entry_past_the_double_range_raises(self):
        with pytest.raises(ValueError, match=r"d2c_da2 overflows a double at a=1e-312$"):
            consumption_derivatives(self.TINY_INCOME, 1e-312)

    def test_zero_d_array_gives_zero_d_array_fields(self):
        d = consumption_derivatives(FIG1_R0, np.array(3.0))
        point = consumption_derivatives(FIG1_R0, 3.0)
        for name, value in d._asdict().items():
            assert type(value) is np.ndarray and value.shape == (), name
            assert value == getattr(point, name), name

    def test_array_entry_past_the_double_range_raises_without_warning(self):
        a = np.array([1e-290, 1e-300, 1e-312, 1e-313])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"d2c_da2 overflows a double at a=1e-312$"):
                consumption_derivatives(self.TINY_INCOME, a)
            d = consumption_derivatives(self.TINY_INCOME, a[:2])
        assert all(np.isfinite(getattr(d, f)).all() for f in d._asdict())


class TestDiscretePolicy:
    def test_income_at_constraint(self):
        pol = discrete_policy(FIG1, 1.0, 10.0)
        assert pol(0.0) == FIG1.y

    def test_exact_at_knots(self):
        pol = discrete_policy(FIG1, 1.0, 10.0)
        growth = _step_growth(FIG1, 1.0)
        for k, a_k in enumerate(pol.knot_assets):
            assert pol(float(a_k)) == pytest.approx(FIG1.y * growth**k, rel=1e-14)

    def test_continuous_at_interior_knots(self):
        pol = discrete_policy(FIG1, 1.0, 10.0)
        for a_k in pol.knot_assets[1:-1]:
            below = pol(float(a_k) - 1e-10)
            above = pol(float(a_k) + 1e-10)
            assert below == pytest.approx(above, abs=1e-8)

    def test_slopes_positive_and_nonincreasing(self):
        pol = discrete_policy(FIG1, 0.5, 20.0)
        slopes = np.diff(pol.knot_consumption) / np.diff(pol.knot_assets)
        assert np.all(slopes > 0.0)
        assert np.all(np.diff(slopes) < 0.0)

    def test_segments_interpolate_knots(self):
        # on each knot interval the policy is the chord between its end knots
        pol = discrete_policy(FIG1, 1.0, 10.0)
        slopes = np.diff(pol.knot_consumption) / np.diff(pol.knot_assets)
        mid = 0.5 * (pol.knot_assets[:-1] + pol.knot_assets[1:])
        chord = pol.knot_consumption[:-1] + slopes * (mid - pol.knot_assets[:-1])
        assert pol(mid) == pytest.approx(chord, rel=1e-12)

    def test_covers_requested_range(self):
        pol = discrete_policy(FIG1, 1.0, 25.0)
        assert pol.knot_assets[-1] >= 25.0
        assert pol.knot_assets[-2] < 25.0

    def test_converges_to_continuous_closed_form(self):
        a_eval = np.linspace(0.0, 10.0, 101)
        exact = np.array([consumption_path(FIG1_R0, a) for a in a_eval])
        gaps = []
        for delta in (0.5, 0.1):
            pol = discrete_policy(FIG1_R0, delta, 10.0)
            gaps.append(np.max(np.abs(pol(a_eval) - exact)))
        assert gaps[1] < gaps[0]

    def test_evaluation_domain(self):
        pol = discrete_policy(FIG1, 1.0, 5.0)
        with pytest.raises(ValueError):
            pol(-0.1)
        with pytest.raises(ValueError):
            pol(float(pol.knot_assets[-1]) * 1.01)

    @pytest.mark.parametrize("a", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_rejects_nan_assets(self, a):
        pol = discrete_policy(FIG1, 1.0, 30.0)
        with pytest.raises(ValueError, match="outside"):
            pol(a)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            discrete_policy(FIG1, 1.0, 0.0)

    @pytest.mark.parametrize("a_max", [math.nan, math.inf])
    def test_rejects_non_finite_a_max(self, a_max):
        with pytest.raises(ValueError, match="finite a_max"):
            discrete_policy(FIG1, 1.0, a_max)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite delta"):
            discrete_policy(FIG1, delta, 10.0)

    # (5, 1e100) needs ~19% more knots than T/delta and takes the doubling step
    @pytest.mark.parametrize("p", [FIG1, FIG1_R0], ids=["r>0", "r=0"])
    @pytest.mark.parametrize(
        "delta,a_max", [(1.0, 30.0), (0.01, 3e3), (5.0, 3e5), (1e-3, 1e3), (5.0, 1e100)]
    )
    def test_knots_are_a_prefix_of_the_recursion(self, p, delta, a_max):
        knots = discrete_policy(p, delta, a_max).knot_assets
        assert knots[-1] >= a_max > knots[-2]
        assert np.array_equal(knots, _mu_discrete(p, delta, knots.size + 100)[: knots.size])

    def test_too_many_knots_raise_before_any_is_built(self, monkeypatch):
        def no_knots(*args):
            pytest.fail("mu_discrete called")

        monkeypatch.setattr(ifpclosed.figures, "_mu_discrete", no_knots)
        with pytest.raises(ValueError, match=r"over 2\*\*24 knots"):
            discrete_policy(FIG1, 1e-7, 30.0)


class TestConsumptionUnconstrained:
    def test_frozen_intercept(self):
        # kappa*(y/r) = 0.15 * 300
        assert _consumption_unconstrained(FIG1, 0.0) == pytest.approx(45.0, rel=1e-14)

    def test_linear_with_constant_slope(self):
        kappa = (FIG1.rho + FIG1.r * (FIG1.gamma - 1.0)) / FIG1.gamma
        for a1, a2 in ((0.0, 1.0), (5.0, 9.0), (50.0, 100.0)):
            slope = (
                _consumption_unconstrained(FIG1, a2) - _consumption_unconstrained(FIG1, a1)
            ) / (a2 - a1)
            assert slope == pytest.approx(kappa, rel=1e-12)

    def test_takes_arrays(self):
        a = np.array([0.0, 5.0, 9.0])
        assert _consumption_unconstrained(FIG1, a).tolist() == [
            _consumption_unconstrained(FIG1, float(x)) for x in a
        ]

    def test_exceeds_constrained_at_zero_assets(self):
        pol = discrete_policy(FIG1, 1.0, 5.0)
        assert _consumption_unconstrained(FIG1, 0.0) > pol(0.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            _consumption_unconstrained(FIG1_R0, 1.0)
