"""Lambert W kernel tests against an independent bisection oracle and mpmath."""

import math
import re
import warnings

import numpy as np
import pytest

from ifpclosed import special_functions
from ifpclosed.special_functions import (
    _BRANCH_EPS,
    _offset,
    _wm1_offset_guess,
    lambert_wm1,
    wm1_neg_exp_offset,
)


def wm1_bisect(x, lo=-800.0, hi=-1.0, iters=200):
    """Independent oracle: bisection on w + log(-w) - log(-x) over w <= -1."""
    target = math.log(-x)

    def g(w):
        return w + math.log(-w) - target

    assert g(lo) < 0.0 < g(hi) or g(hi) == 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBranchPoint:
    def test_both_branches_meet_at_minus_one(self):
        # w = -1 is the double root of w e^w = -1/e, where W0 and W-1 join;
        # the direct route and the log-form route both land on it exactly
        assert -1.0 * math.exp(-1.0) == -1.0 / math.e
        assert lambert_wm1(-1.0 / math.e) == -1.0
        assert wm1_neg_exp_offset(0.0) - 1.0 == -1.0

    def test_snap_band(self):
        assert lambert_wm1(-1.0 / math.e - 0.5 * _BRANCH_EPS) == -1.0
        assert lambert_wm1(-math.exp(-1.0)) == -1.0


class TestWm1:
    def test_frozen_point(self):
        # independent bisection confirmed this value before it was frozen
        assert lambert_wm1(-0.1) == pytest.approx(-3.577152063957297, rel=1e-14)
        assert lambert_wm1(-0.1) == pytest.approx(wm1_bisect(-0.1), rel=1e-13)

    def test_figure_point(self):
        # f(a; y) at a = y = 3 with rho = 0.08, gamma = 0.5
        x = -math.exp(-1.16)
        assert lambert_wm1(x) == pytest.approx(-1.677, abs=5e-4)
        assert lambert_wm1(x) == pytest.approx(wm1_bisect(x), rel=1e-13)

    @pytest.mark.parametrize("x", [-0.35, -0.2, -0.05, -1e-3, -1e-6, -1e-9])
    def test_against_bisection(self, x):
        assert lambert_wm1(x) == pytest.approx(wm1_bisect(x), rel=1e-13)

    def test_residual_grid(self):
        xs = -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 10_000)
        worst = 0.0
        for x in xs:
            w = lambert_wm1(x)
            worst = max(worst, abs(w * math.exp(w) - x) / abs(x))
        assert worst <= 1e-13

    def test_branch_ordering(self):
        for x in -np.geomspace(0.367, 1e-8, 50):
            assert lambert_wm1(x) <= -1.0

    def test_strictly_decreasing(self):
        xs = -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 2_000)
        ws = np.array([lambert_wm1(x) for x in xs])
        assert np.all(np.diff(ws) < 0.0)  # xs increase toward 0-, W-1 falls

    def test_round_trip(self):
        ws = np.linspace(-50.0, -1.0, 10_000)
        worst = max(abs(lambert_wm1(w * math.exp(w)) - w) for w in ws)
        assert worst <= 1e-12

    @pytest.mark.parametrize("x", [-0.5, 0.0, -0.0, 0.1, float("nan")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            lambert_wm1(x)


@pytest.fixture
def scalar_start(monkeypatch):
    """``du -> v0``: the start of the scalar body ``_offset``, recorded as it runs.

    The start is inline in ``_offset``: each region returns one of three formula helpers,
    and nothing else calls them on a float.  So the value the one called helper returns is
    the start, before the step.
    """
    starts = []
    for name in ("_branch_series", "_sqrt_du_poly", "_asymptotic"):

        def recorded(*args, helper=getattr(special_functions, name)):
            starts.append(helper(*args))
            return starts[-1]

        monkeypatch.setattr(special_functions, name, recorded)

    def start(du):
        starts.clear()
        _offset(du)
        (v0,) = starts
        return v0

    return start


class TestInitialGuess:
    """The starting point of the offset iteration, and the kernel value reached from it.

    du = -log(-x) - 1 maps x in (-1/e, 0) onto du > 0.
    """

    def test_near_branch(self, scalar_start):
        du = 1e-10
        assert abs(scalar_start(du)) <= 1e-4
        assert abs(wm1_neg_exp_offset(du)) <= 1e-4

    def test_near_zero(self, scalar_start):
        u = -math.log(1e-8)
        target = -u - math.log(u)  # log(-x) - log(-log(-x)) at x = -1e-8
        assert scalar_start(u - 1.0) - 1.0 == pytest.approx(target, rel=0.1)
        assert wm1_neg_exp_offset(u - 1.0) - 1.0 == pytest.approx(target, rel=0.1)

    def test_moderate(self, scalar_start):
        du = -math.log(0.2) - 1.0
        assert -3.0 < scalar_start(du) - 1.0 < -1.0
        assert -3.0 < wm1_neg_exp_offset(du) - 1.0 < -1.0

    def test_below_minus_one_everywhere(self, scalar_start):
        for x in -np.geomspace(0.3678, 1e-10, 200):
            du = -math.log(-x) - 1.0
            assert scalar_start(du) < 0.0
            assert wm1_neg_exp_offset(du) < 0.0

    def test_domain(self):
        # the guess is consulted only beyond the snap band around du = 0
        assert wm1_neg_exp_offset(2.0 * math.ulp(1.0)) == 0.0
        with pytest.raises(ValueError):
            wm1_neg_exp_offset(float("nan"))


class TestNegExpForm:
    """W-1(-exp(-u)) = wm1_neg_exp_offset(u - 1) - 1, without forming -exp(-u)."""

    @pytest.mark.parametrize("u", [1.5, 2.0, 5.0, 50.0, 700.0])
    def test_matches_direct_route(self, u):
        x = -math.exp(-u)
        assert wm1_neg_exp_offset(u - 1.0) - 1.0 == pytest.approx(lambert_wm1(x), rel=1e-13)

    @pytest.mark.parametrize("u", [1.0 + 1e-10, 2.0, 746.0, 1e4, 1e8])
    def test_log_form_residual(self, u):
        w = wm1_neg_exp_offset(u - 1.0) - 1.0
        assert abs(w + math.log(-w) + u) <= 1e-11 * u

    def test_branch_point_exact(self):
        assert wm1_neg_exp_offset(0.0) == 0.0

    def test_offset_precision_near_branch(self):
        # offset must track the branch series v = -(p + p^2/3 + 11 p^3/72 + ...)
        # to the last bits, far below the ulp(1) absolute noise that iterating
        # in w itself would leave
        for du in (1e-12, 1e-8, 1e-4):
            v = wm1_neg_exp_offset(du)
            p = math.sqrt(2.0 * du)
            assert abs(v + p * (1.0 + p / 3.0)) <= 0.2 * p**3 + 1e-15 * p

    def test_domain(self):
        with pytest.raises(ValueError):
            wm1_neg_exp_offset(0.5 - 1.0)
        with pytest.raises(ValueError):
            wm1_neg_exp_offset(-1e-3)

    @pytest.mark.parametrize("du", [math.inf, np.array([1.0, math.inf])])
    def test_overflowed_offset_rejected(self, du):
        with pytest.raises(ValueError, match="overflowed"):
            wm1_neg_exp_offset(du)

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_no_intermediate_overflows(self, path):
        # numpy scalars warn where Python floats overflow silently, so the
        # np.float64 path shows any intermediate that leaves the double range
        du = np.array([0.3, 0.7, 2.0, 1e10, 1e100, 1e300, 1.7e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = wm1_neg_exp_offset(du) if path == "array" else [wm1_neg_exp_offset(x) for x in du]
        big = du > 1e10
        # v = -du - log(-w): the log term is below an ulp of du out there
        assert np.array_equal(np.array(v)[big], -du[big])
        assert np.all(np.isfinite(v)) and np.all(np.array(v) < 0.0)


class TestAgainstMpmath:
    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_full_relative_precision_on_the_whole_branch(self, path):
        from mp_reference import branch_offset_ref, rel_err

        du = np.geomspace(1e-15, 1e12, 271)  # ten points a decade
        v = wm1_neg_exp_offset(du) if path == "array" else [wm1_neg_exp_offset(float(x)) for x in du]
        worst = max(rel_err(v_x, branch_offset_ref(x)) for x, v_x in zip(du, v))
        assert worst <= 1e-15


def count_calls(monkeypatch, name):
    """Record the size of the first argument of every call of the kernel helper ``name``."""
    sizes, helper = [], getattr(special_functions, name)

    def counted(*args):
        sizes.append(np.size(args[0]))
        return helper(*args)

    monkeypatch.setattr(special_functions, name, counted)
    return sizes


# Criterion 1's grids: x across the branch, and the round trip of w in [-50, -1]
_WS = np.linspace(-50.0, -1.0, 10_000)
CRITERION_1_GRIDS = {
    "residual": -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 10_000),
    "round_trip": _WS * np.exp(_WS),
}


class TestOneStep:
    """A start within 1e-5 of v, then one fourth-order step: one residual, no iteration."""

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_start_within_1e_5_of_mpmath(self, path, scalar_start):
        from mp_reference import branch_offset_ref, rel_err

        # twenty points a decade, and each side of the two region edges
        edges = [np.nextafter(e, side) for e in (0.02, 25.0) for side in (0.0, math.inf)]
        du = np.concatenate((np.geomspace(1e-15, 1e12, 541), edges, [0.02, 25.0]))
        v0 = _wm1_offset_guess(du) if path == "array" else [scalar_start(float(x)) for x in du]
        worst = max(rel_err(v_x, branch_offset_ref(x)) for x, v_x in zip(du, v0))
        assert worst <= 1e-5

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_scalar_call_evaluates_the_residual_once(self, grid, monkeypatch):
        # the scalar body evaluates the residual once, in straight-line code; so one body call
        # per call off the snap band (w = -1 at x = -1/e is snapped before the kernel)
        xs = CRITERION_1_GRIDS[grid].tolist()
        sizes = count_calls(monkeypatch, "_offset")
        for x in xs:
            lambert_wm1(x)
        assert sizes == [1] * sum(x > -1.0 / math.e + _BRANCH_EPS for x in xs)

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_array_evaluates_the_residual_once_per_block(self, grid, monkeypatch):
        # up to 10k elements off the branch point are five blocks of _BLOCK
        xs = CRITERION_1_GRIDS[grid]
        sizes = count_calls(monkeypatch, "_phi")
        lambert_wm1(xs)
        block = special_functions._BLOCK
        assert sizes == [block] * 4 + [np.sum(xs > -1.0 / math.e + _BRANCH_EPS) - 4 * block]


# The snap band's two edges, -1/e -+ 4 ulp of 1/e, and the first x past each
_SNAP_EDGES = [-1.0 / math.e - _BRANCH_EPS, -1.0 / math.e + _BRANCH_EPS]
_PAST_EDGES = [math.nextafter(_SNAP_EDGES[0], -1.0), math.nextafter(_SNAP_EDGES[1], 0.0)]


class TestSharedBody:
    """The x-form is the exponent form at du = -log(-x) - 1: both entries run one scalar body."""

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_x_form_is_the_exponent_form_bit_for_bit(self, grid):
        xs = CRITERION_1_GRIDS[grid].tolist() + _SNAP_EDGES + _PAST_EDGES[1:]
        w = [lambert_wm1(x) for x in xs]
        assert w == [wm1_neg_exp_offset(-math.log(-x) - 1.0) - 1.0 for x in xs]
        assert [lambert_wm1(x) for x in _SNAP_EDGES] == [-1.0, -1.0]

    @pytest.mark.parametrize(("x", "message"), [
        (math.nan, "need -1/e <= x < 0, got x=nan"),
        (math.inf, "need -1/e <= x < 0, got x=inf"),
        (-math.inf, "x=-inf below the branch point -1/e"),
        (0.0, "need -1/e <= x < 0, got x=0.0"),
        (-0.0, "need -1/e <= x < 0, got x=-0.0"),
        (_PAST_EDGES[0], f"x={_PAST_EDGES[0]!r} below the branch point -1/e"),
    ])
    def test_domain_messages(self, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape('lambert_wm1: ' + message)}$"):
            lambert_wm1(x)
