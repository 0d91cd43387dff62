"""Depletion map: closed forms vs the numeric inversion oracle.

Frozen expected values were computed independently (40-digit arithmetic and
bisection) before being pinned here.
"""

import math
import warnings

import numpy as np
import pytest

from ifpclosed import depletion_map
from ifpclosed.consumption import consumption_derivatives, consumption_path
from ifpclosed.depletion_map import (
    best_depletion_time,
    h_approx_small_r,
    h_closed_r0,
    h_numeric,
    mu,
    mu_prime,
)
from ifpclosed.figures import _mu_discrete, _step_growth
from ifpclosed.model_core import ModelParams, validate

FIG1 = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0))
FIG1_R0 = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0))
RATES = (0.0, 0.005, 0.01)
# (rho, r, gamma, y) for the mpmath comparisons: r = 0, the CLI defaults, a
# large gamma at small income, r = 1e-13 (where y/r is largest) and a rate
# right below rho
MP_SETS = [
    (0.08, 0.0, 0.5, 3.0),
    (0.08, 0.01, 0.5, 3.0),
    (0.05, 0.02, 5.0, 0.01),
    (0.06, 1e-13, 2.0, 100.0),
    (0.08, 0.079, 0.5, 1.0),
    (0.058725694352881073, 0.01566980185643049, 1.6425012108012065, 0.7221899051169113),
]


def with_r(r):
    return validate(ModelParams(rho=0.08, r=r, gamma=0.5, y=3.0))


def count_mu_pairs(monkeypatch):
    """Count the calls of ``depletion_map._mu_pair``, the one body of mu and mu'."""
    calls = [0]
    body = depletion_map._mu_pair

    def counted(*args):
        calls[0] += 1
        return body(*args)

    monkeypatch.setattr(depletion_map, "_mu_pair", counted)
    return calls


# (rho, r, gamma, y), a from a random r >= 0 sweep of 8,000 rows: with the bracket test
# widened to lo <= T_new <= hi and nothing else, h_numeric 2-cycles on each of these between
# two iterates about 6e-15 apart, each within its tolerance, for 1000 steps
CLOSED_BRACKET_CYCLES = [
    ((0.05686286663811358, 0.027561716256207236, 4.407991007759769, 40.337579137441416),
     0.019459286662189074),
    ((0.07977630236528195, 0.026617555331259382, 3.6217338578108937, 0.030448074896272794),
     5.8883280859145e-05),
    ((0.06124109061504921, 0.006784207945604709, 1.373825693569069, 1.0807019945372307),
     0.025442820236701448),
    ((0.05665074998819106, 0.0, 1.3704323376543155, 0.9621636944233748),
     0.0032425535454967077),
]


class TestMu:
    @pytest.mark.parametrize("r", RATES)
    def test_zero_at_origin(self, r):
        assert mu(with_r(r), 0.0) == 0.0

    def test_frozen_r0(self):
        # (y/b) e^(bT) - yT - y/b at T = 3.23, b = 0.16
        assert mu(FIG1_R0, 3.23) == pytest.approx(2.9972580754246292, rel=1e-13)

    def test_frozen_positive_rate(self):
        assert mu(FIG1, 10.0) == pytest.approx(34.458476386962172, rel=1e-13)
        assert mu(FIG1, 5.0) == pytest.approx(6.6192930096094530, rel=1e-13)

    def test_tiny_rate_matches_limit_form(self):
        # one expression serves every rate: a tiny r agrees with r = 0 to
        # O(r), and with the mpmath display to full precision
        from mp_reference import mu_ref, rel_err

        p_tiny = validate(ModelParams(rho=0.08, r=1e-13, gamma=0.5, y=3.0))
        p_just = validate(ModelParams(rho=0.08, r=1e-9, gamma=0.5, y=3.0))
        for T in (0.5, 3.0, 20.0):
            base = mu(FIG1_R0, T)
            assert mu(p_tiny, T) == pytest.approx(base, rel=1e-10)
            assert mu(p_just, T) == pytest.approx(base, rel=1e-7)
            assert rel_err(mu(p_tiny, T), mu_ref(0.08, 1e-13, 0.5, 3.0, T)) <= 1e-12

    @pytest.mark.parametrize("pset", MP_SETS)
    def test_matches_mpmath(self, pset):
        # T = 1e-10..1e3: near T = 0 the y/r terms of the textbook display cancel
        from mp_reference import mu_ref, rel_err

        p = validate(ModelParams(*pset))
        for k in range(-100, 31):
            T = 10.0 ** (k / 10)
            assert rel_err(mu(p, T), mu_ref(*pset, T)) <= 1e-12, T

    @pytest.mark.parametrize("r", RATES)
    def test_increasing_and_convex(self, r):
        p = with_r(r)
        grid = np.linspace(0.0, 40.0, 400)
        vals = np.array([mu(p, T) for T in grid])
        assert np.all(np.diff(vals) > 0.0)
        slopes = np.diff(vals) / np.diff(grid)
        assert np.all(np.diff(slopes) > 0.0)

    @pytest.mark.parametrize(
        "T,mu_hex,slope_hex",
        [
            # x - z = B*T/gamma = 0.15*T: 9.9e-4, on the series side of the switch at 1e-3
            (0.0066, "0x1.3307c39563c76p-17", "0x1.6b7ccce68183cp-9"),
            # 1.005e-3, on the expm1 side
            (0.0067, "0x1.3c67f8595f900p-17", "0x1.70ff4e30f5633p-9"),
        ],
    )
    def test_bits_at_the_series_switch(self, T, mu_hex, slope_hex):
        # pinned bit for bit, so that a rewrite of the evaluation shows any change in rounding
        assert mu(FIG1, T) == float.fromhex(mu_hex)
        assert mu_prime(FIG1, T) == float.fromhex(slope_hex)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            mu(FIG1, -0.1)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_rejects_nan_time(self, p):
        with pytest.raises(ValueError, match="T >= 0"):
            mu(p, math.nan)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_infinite_past_double_range(self, p):
        # e^((rho-r)T/gamma) overflows from T ~ 709*gamma/(rho-r) ~ 5000
        assert mu(p, 1e4) == math.inf
        assert mu(p, 4000.0) < math.inf

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_infinite_at_infinite_time(self, p):
        assert mu(p, math.inf) == math.inf
        assert mu_prime(p, math.inf) == math.inf


class TestMuPrime:
    @pytest.mark.parametrize("r", RATES)
    def test_zero_at_origin(self, r):
        assert mu_prime(with_r(r), 0.0) == 0.0

    def test_frozen_positive_rate(self):
        assert mu_prime(FIG1, 5.0) == pytest.approx(2.9750651923153350, rel=1e-13)

    def test_r0_closed_form(self):
        for T in (0.1, 2.0, 10.0):
            assert mu_prime(FIG1_R0, T) == pytest.approx(
                3.0 * (math.exp(0.16 * T) - 1.0), rel=1e-14
            )

    @pytest.mark.parametrize("r", RATES)
    def test_matches_central_difference(self, r):
        p = with_r(r)
        for T in np.geomspace(0.01, 50.0, 60):
            h = 1e-5 * (1.0 + T)
            fd = (mu(p, T + h) - mu(p, T - h)) / (2.0 * h)
            assert fd == pytest.approx(mu_prime(p, T), rel=1e-8)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_rejects_nan_time(self, p):
        with pytest.raises(ValueError, match="T >= 0"):
            mu_prime(p, math.nan)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    def test_infinite_past_double_range(self, p):
        assert mu_prime(p, 1e4) == math.inf
        assert mu_prime(p, 4000.0) < math.inf

    def test_overflows_before_mu(self):
        # (rho - r)/gamma = 1.4 > 1, so mu_prime's factor y*(rho-r)/B exceeds mu's
        # gamma*y/B and overflows first; mu's value is pinned bit for bit
        p = validate(ModelParams(0.08, 0.01, 0.05, 3.0))
        assert mu(p, 506.3) == float.fromhex("0x1.9ffa932432758p+1023")
        assert mu_prime(p, 506.3) == math.inf

    @pytest.mark.parametrize("r", RATES)
    def test_ode_residual(self, r):
        p = with_r(r)
        for T in np.linspace(0.0, 50.0, 200):
            lhs = mu_prime(p, T) + r * mu(p, T) + p.y
            rhs = math.exp((p.rho - r) * T / p.gamma) * p.y
            assert abs(lhs - rhs) <= 1e-9 * p.y


class TestHNumeric:
    @pytest.mark.parametrize("r", RATES)
    def test_zero_assets(self, r):
        res = h_numeric(with_r(r), 0.0)
        assert res.T == 0.0 and res.method == "numeric"

    @pytest.mark.parametrize("r", RATES)
    def test_round_trip_through_mu(self, r):
        p = with_r(r)
        assert h_numeric(p, mu(p, 7.5)).T == pytest.approx(7.5, abs=1e-9)
        for T in np.geomspace(0.01, 60.0, 40):
            assert h_numeric(p, mu(p, T)).T == pytest.approx(T, rel=1e-9)

    @pytest.mark.parametrize("r", RATES)
    def test_forward_residual(self, r):
        p = with_r(r)
        for a in np.geomspace(1e-6 * p.y, 1e6 * p.y, 60):
            T = h_numeric(p, a).T
            assert abs(mu(p, T) - a) <= 1e-12 * max(a, p.y)

    def test_frozen_figure_point(self):
        assert h_numeric(FIG1_R0, 3.0).T == pytest.approx(3.2313503660228153, rel=1e-12)

    def test_increasing_and_concave_in_assets(self):
        grid = np.geomspace(0.01, 100.0, 200)
        ts = np.array([h_numeric(FIG1, a).T for a in grid])
        assert np.all(np.diff(ts) > 0.0)
        slopes = np.diff(ts) / np.diff(grid)
        assert np.all(np.diff(slopes) < 0.0)

    def test_rejects_negative_assets(self):
        with pytest.raises(ValueError):
            h_numeric(FIG1, -1.0)

    @pytest.mark.parametrize("p", [FIG1_R0, FIG1])
    @pytest.mark.parametrize("a", [1e300, 1.7e308])
    def test_assets_near_double_range(self, p, a):
        # the doubling bracket reaches T where mu overflows to +inf
        T = h_numeric(p, a).T
        assert abs(mu(p, T) - a) <= 1e-12 * a

    @pytest.mark.parametrize(
        "pset,a,T",
        [
            # the Taylor seed's 2*a*gamma overflows a double
            ((0.08, 0.01, 1e200, 1e100), 1e110, 2.631525821993195e+202),
            # its division by (rho - r)*y does
            ((0.1, 0.01, 1e296, 1e-296), 1e-284, 2.5584278811155996e+298),
            # (rho - r)*y underflows to 0, so there is no seed
            ((2e-300, 1e-300, 1.0, 1e-300), 5e-301, 1.0000000000000002e+150),
        ],
    )
    def test_numpy_scalar_assets_seed_without_a_warning(self, pset, a, T):
        p = validate(ModelParams(*pset))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h_numeric(p, np.float64(a)).T == h_numeric(p, a).T == T

    @pytest.mark.parametrize(
        "pset,ratio",
        [
            # the stop lands within rounding of the root, but past x = (rho-r)T/gamma
            # ~ 250 mu amplifies T's last ulp beyond the bound; the iterate before is within
            ((0.08, 0.0, 0.5, 0.001), 1e303),
            # Newton comes down from the overflow edge of mu about 1 in x per step
            ((0.0687, 0.0, 2.76, 15.2), 1e181),
            # mu_prime overflows before mu ((rho-r)/gamma > 1), so only bisection runs,
            # and a 4e-15 relative step still leaves the residual 1.3e-12*a at x ~ 709
            ((0.08, 0.01, 0.05, 3.0), 1.7e308 / 3.0),
        ],
    )
    def test_converges_far_out(self, pset, ratio):
        p = validate(ModelParams(*pset))
        a = ratio * p.y
        assert abs(mu(p, h_numeric(p, a).T) - a) <= 1e-12 * a

    @pytest.mark.parametrize(
        "pset,ratio,T_hex",
        [
            # the ends of the grid_rpos benchmark's a/y range at the CLI defaults
            ((0.08, 0.01, 0.5, 3.0), 1e-12, "0x1.fb4b97ea08588p-19"),
            ((0.08, 0.01, 0.5, 3.0), 1e12, "0x1.6fa08d7e47974p+7"),
            # at r = 0, a = 3 the iteration ends on a run of bisection steps
            ((0.08, 0.0, 0.5, 3.0), 1.0, "0x1.9d9ce387fe278p+1"),
            # the three cases of test_converges_far_out
            ((0.08, 0.0, 0.5, 0.001), 1e303, "0x1.0fd111f6bfceep+12"),
            ((0.0687, 0.0, 2.76, 15.2), 1e181, "0x1.034c8eba5ee7cp+14"),
            ((0.08, 0.01, 0.05, 3.0), 1.7e308 / 3.0, "0x1.fa688f71d6844p+8"),
        ],
    )
    def test_bits(self, pset, ratio, T_hex):
        # pinned bit for bit, so that a rewrite of the iteration shows any change in its path
        p = validate(ModelParams(*pset))
        assert h_numeric(p, ratio * p.y).T == float.fromhex(T_hex)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeWarning,
        reason="a numpy-scalar a makes numpy-scalar iterates, and mu's "
        "gamma*y/B*(expm1(x) - x*E(z)) then warns where the float product just overflows to inf",
    )
    def test_numpy_scalar_assets_at_the_overflow_edge(self):
        p = validate(ModelParams(0.08, 0.01, 0.05, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h_numeric(p, np.float64(1.7e308)).T == h_numeric(p, 1.7e308).T

    @pytest.mark.parametrize("pset,a", CLOSED_BRACKET_CYCLES)
    def test_converges_where_a_closed_bracket_test_alone_cycles(self, pset, a, monkeypatch):
        # h_numeric takes 7-9 evaluations on each; the widened bracket test alone takes 1002-1003
        p = validate(ModelParams(*pset))
        calls = count_mu_pairs(monkeypatch)
        T = h_numeric(p, a).T
        assert calls[0] <= 20
        assert abs(mu(p, T) - a) <= 1e-12 * max(a, p.y)

    @pytest.mark.xfail(
        strict=True,
        reason="once a Newton step rounds onto a bracket end, the strict test lo < T_new < hi "
        "fails and h_numeric bisects the whole bracket: 57 evaluations here (ROADMAP item 2)",
    )
    def test_few_evaluations_at_the_figure_point(self, monkeypatch):
        calls = count_mu_pairs(monkeypatch)
        h_numeric(FIG1_R0, 3.0)
        assert calls[0] <= 12

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_converges_at_every_decade_past_1e100(self, r):
        p = with_r(r)
        for k in range(100, 301):
            a = 3.0 * 10.0**k
            assert abs(mu(p, h_numeric(p, a).T) - a) <= 1e-12 * a, k

    def test_rejects_arrays(self):
        with pytest.raises(ValueError, match="one point at a time"):
            h_numeric(FIG1, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("r", [0.0, 0.01])
    def test_past_the_range_of_mu(self, r):
        # at y = 0.01, mu overflows a double near 1.1e307, before reaching a
        p = validate(ModelParams(rho=0.08, r=r, gamma=0.5, y=0.01))
        with pytest.raises(ValueError, match="past the range of mu"):
            h_numeric(p, 1e308)

    @pytest.mark.parametrize("pset", MP_SETS)
    def test_matches_mpmath_root(self, pset):
        from mp_reference import depletion_time_ref, rel_err

        p = validate(ModelParams(*pset))
        for k in range(-12, 13):
            a = 10.0**k * p.y
            T = h_numeric(p, a).T
            assert rel_err(T, depletion_time_ref(*pset, a, T)) <= 2e-13, a


class TestHClosedR0:
    def test_zero_assets_exact(self):
        res = h_closed_r0(FIG1_R0, 0.0)
        assert res.T == 0.0 and res.method == "exact_r0"

    def test_frozen_figure_point(self):
        assert h_closed_r0(FIG1_R0, 3.0).T == pytest.approx(3.2313503660228153, rel=1e-14)

    def test_agrees_with_numeric_oracle(self):
        for ratio in np.geomspace(1e-6, 1e6, 100):
            a = ratio * FIG1_R0.y
            assert h_closed_r0(FIG1_R0, a).T == pytest.approx(
                h_numeric(FIG1_R0, a).T, rel=1e-10
            )

    def test_huge_assets(self):
        a = 1e6 * FIG1_R0.y
        assert h_closed_r0(FIG1_R0, a).T == pytest.approx(h_numeric(FIG1_R0, a).T, rel=1e-9)

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_near_the_constraint(self, path):
        # du = rho*a/(gamma*y) = 1.6e-16 is on the branch, where v ~ -sqrt(2*du) != 0
        a = 1e-15 * FIG1_R0.y
        T = h_closed_r0(FIG1_R0, a if path == "scalar" else np.array([a])).T
        assert T == pytest.approx(h_numeric(FIG1_R0, a).T, rel=1e-12)

    def test_rejects_positive_rate(self):
        with pytest.raises(ValueError, match="r = 0"):
            h_closed_r0(FIG1, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="_branch forms B*a first, which underflows to 0 although du = 2e-300 is a "
        "normal double (ROADMAP items 8 and 17)",
    )
    def test_tiny_rate_and_income(self):
        # du = 2e-300, v ~ -2e-150, T = log1p(-v)/rho ~ 1e150; h_numeric's root is within rounding
        p = validate(ModelParams(2e-300, 0.0, 1.0, 1e-300))
        assert h_closed_r0(p, 1e-300).T == pytest.approx(h_numeric(p, 1e-300).T, rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeWarning,
        reason="a numpy-scalar a takes the scalar path, where B*a/(gamma*y) overflows in numpy "
        "and warns before the ValueError (ROADMAP item 8)",
    )
    def test_numpy_scalar_overflowing_offset_raises_without_a_warning(self):
        p = validate(ModelParams(0.08, 0.0, 1e-3, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                h_closed_r0(p, np.float64(1e307))


class TestHApproxSmallR:
    def test_identical_to_exact_at_r0(self):
        other = validate(ModelParams(rho=0.05, r=0.0, gamma=5.0, y=0.01))
        for p in (FIG1_R0, other):
            for a in [0.0, *(np.geomspace(1e-12, 1e12, 49) * p.y)]:
                res = h_approx_small_r(p, a)
                assert res.T == h_closed_r0(p, a).T
                assert res.method == "approx_small_r"

    @pytest.mark.parametrize("r", (0.005, 0.01, 0.02))
    def test_zero_assets(self, r):
        assert h_approx_small_r(with_r(r), 0.0).T == 0.0

    def test_limit_near_the_constraint(self):
        # as a -> 0+ the small-r T is the true T times sqrt(B/(rho - r)), B = r*(gamma-1) + rho
        a = 1e-15 * FIG1.y
        limit = math.sqrt((FIG1.r * (FIG1.gamma - 1.0) + FIG1.rho) / (FIG1.rho - FIG1.r))
        assert h_approx_small_r(FIG1, a).T == pytest.approx(h_numeric(FIG1, a).T * limit, rel=1e-8)

    def test_figure_gap_is_order_r(self):
        # recorded gap vs the numeric oracle at a = 3, r = 0.01: ~9.4*r
        gap = abs(h_approx_small_r(FIG1, 3.0).T - h_numeric(FIG1, 3.0).T)
        assert gap == pytest.approx(0.0939716840919, rel=1e-6)
        assert gap <= 20.0 * FIG1.r

    def test_gap_halves_with_rate(self):
        a_grid = np.linspace(0.0, 100.0, 51) * 3.0
        gaps = {}
        for r in (0.01, 0.005):
            p = with_r(r)
            gaps[r] = max(
                abs(h_approx_small_r(p, a).T - h_numeric(p, a).T) for a in a_grid
            )
        assert 1.5 <= gaps[0.01] / gaps[0.005] <= 3.0


class TestNonFiniteAssets:
    @pytest.mark.parametrize("a", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "inverse,p",
        [(h_closed_r0, FIG1_R0), (h_numeric, FIG1_R0), (h_numeric, FIG1),
         (h_approx_small_r, FIG1_R0), (h_approx_small_r, FIG1)],
    )
    def test_rejected(self, inverse, p, a):
        with pytest.raises(ValueError, match="finite a"):
            inverse(p, a)


class TestOverflowingExponentOffset:
    @pytest.mark.parametrize("inverse", [h_closed_r0, h_approx_small_r])
    @pytest.mark.parametrize("a", [1.7e308, np.array([3.0, 1.7e308])])
    def test_rejected(self, inverse, a):
        # B*a/(gamma*y) overflows at y = 0.001 although a is finite
        r = 0.0 if inverse is h_closed_r0 else 0.01
        p = validate(ModelParams(rho=0.08, r=r, gamma=0.5, y=0.001))
        with pytest.raises(ValueError, match="overflows"):
            inverse(p, a)

    @pytest.mark.parametrize(
        "fn", [h_closed_r0, h_approx_small_r, consumption_path, consumption_derivatives])
    def test_array_raises_without_a_warning_first(self, fn):
        p = ModelParams(rho=0.08, r=0.0, gamma=0.5, y=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                fn(p, np.array([3.0, 1.7e308]))


# The kernel's bad inputs as assets: each reaches the caller as a ``depletion time`` message,
# at y = 1e-3 where B*a/(gamma*y) overflows from a = 1.7e308
DEPLETION_TIME_ERRORS = {
    -1.0: "depletion time: need finite a >= 0, got a=-1.0",
    math.nan: "depletion time: need finite a >= 0, got a=nan",
    math.inf: "depletion time: need finite a >= 0, got a=inf",
    1.7e308: "depletion time: B*a/(gamma*y) overflows a double at a=1.7e+308",
}


@pytest.mark.parametrize("a", list(DEPLETION_TIME_ERRORS))
@pytest.mark.parametrize("array", [False, True], ids=["float", "array"])
@pytest.mark.parametrize("fn", [h_closed_r0, consumption_path])
def test_bad_assets_raise_the_depletion_time_message(fn, array, a):
    p = validate(ModelParams(rho=0.08, r=0.0, gamma=0.5, y=1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            fn(p, np.array([0.0, 3.0, a]) if array else a)
    assert str(exc.value) == DEPLETION_TIME_ERRORS[a]


class TestBestDepletionTime:
    def test_routes_by_rate(self):
        assert best_depletion_time(FIG1_R0, 2.0).method == "exact_r0"
        assert best_depletion_time(FIG1, 2.0).method == "numeric"


class TestMuDiscrete:
    def test_initial_condition(self):
        assert _mu_discrete(FIG1, 1.0, 5)[0] == 0.0

    def test_frozen_first_knot(self):
        # 3*(1.08/1.01)^2 - 3/1.01
        knots = _mu_discrete(FIG1, 1.0, 1)
        assert knots[1] == pytest.approx(0.45995490638172728, rel=1e-13)

    def test_strictly_increasing(self):
        knots = _mu_discrete(FIG1, 1.0, 40)
        assert np.all(np.diff(knots) > 0.0)

    def test_growth_factor(self):
        assert _step_growth(FIG1, 1.0) == pytest.approx((1.08 / 1.01) ** 2, rel=1e-14)

    def test_continuum_limit_at_two(self):
        knots = _mu_discrete(FIG1, 1e-4, 20_000)
        assert knots[-1] == pytest.approx(mu(FIG1, 2.0), rel=1e-3)

    def test_interpolated_knots_converge_to_mu(self):
        ts = np.linspace(0.0, 10.0, 501)
        exact = np.array([mu(FIG1, t) for t in ts])
        sups = []
        for delta in (0.5, 0.1, 0.02):
            knots = _mu_discrete(FIG1, delta, int(10.0 / delta) + 2)
            times = delta * np.arange(knots.size)
            sups.append(np.max(np.abs(np.interp(ts, times, knots) - exact)))
        assert sups[0] > sups[1] > sups[2]

    @pytest.mark.parametrize("params", [FIG1, validate(ModelParams(0.05, 0.02, 2.0, 0.7)),
                                        validate(ModelParams(0.08, 0.079, 5.0, 100.0))])
    @pytest.mark.parametrize("delta, n", [(1.0, 40), (0.02, 2000), (1e-3, 200_000)])
    def test_equals_the_knot_by_knot_recursion(self, params, delta, n):
        dy, shrink = delta * params.y, 1.0 + params.r * delta
        rhs = dy * _step_growth(params, delta) ** np.arange(n + 1)
        expected = np.zeros(n + 1)
        for k in range(1, n + 1):
            expected[k] = rhs[k] - (dy - expected[k - 1]) / shrink
        assert _mu_discrete(params, delta, n).tobytes() == expected.tobytes()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            _mu_discrete(FIG1, 0.0, 5)
        with pytest.raises(ValueError):
            _mu_discrete(FIG1, 1.0, 0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite delta"):
            _mu_discrete(FIG1, delta, 5)
        with pytest.raises(ValueError, match="finite delta"):
            _step_growth(FIG1, delta)
