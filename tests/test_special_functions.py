"""Lambert W kernel tests against an independent bisection oracle and mpmath.

W-1 of x is the kernel's branch offset at du = -log(-x) - 1, less 1: ``wm1_scalar``
is its scalar form, and ``checks._wm1`` its array form.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from ifpclosed import special_functions
from ifpclosed.checks import _wm1
from ifpclosed.special_functions import _wm1_offset_guess, wm1_neg_exp_offset


def wm1_scalar(x):
    """W-1(x) through the scalar kernel, one Python float at a time, du formed by ``math.log``."""
    return wm1_neg_exp_offset(-math.log(-x) - 1.0) - 1.0


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


# The four doubles 1 to 4 ulp of 1/e above -1/e, inside the x-form's old 4-ulp snap band
_OLD_BAND = [-1.0 / math.e + k * math.ulp(1.0 / math.e) for k in range(1, 5)]


class TestBranchPoint:
    def test_both_branches_meet_at_minus_one(self):
        # w = -1 is the double root of w e^w = -1/e, where W0 and W-1 join;
        # the direct route and the log-form route both land on it exactly
        assert -1.0 * math.exp(-1.0) == -1.0 / math.e
        assert wm1_scalar(-1.0 / math.e) == -1.0
        assert wm1_neg_exp_offset(0.0) - 1.0 == -1.0

    def test_snap_band(self):
        # the band is the one point du = 0: criterion 1's one input at the branch point, the
        # round trip of w = -1, lands on it exactly under both logs; the doubles 1 to 4 ulp
        # above -1/e, once snapped to -1 too, have du > 0 and so w < -1
        x = -1.0 * math.exp(-1.0)
        assert -math.log(-x) - 1.0 == 0.0 and -np.log(-x) - 1.0 == 0.0
        assert wm1_scalar(x) == -1.0
        assert _wm1(np.array([x, x])).tolist() == [-1.0, -1.0]
        assert all(wm1_scalar(x_) < -1.0 for x_ in _OLD_BAND)
        assert np.all(_wm1(np.array(_OLD_BAND)) < -1.0)


class TestWm1:
    def test_frozen_point(self):
        # independent bisection confirmed this value before it was frozen
        for w in (wm1_scalar(-0.1), _wm1(np.array([-0.1]))[0]):
            assert w == pytest.approx(-3.577152063957297, rel=1e-14)
            assert w == pytest.approx(wm1_bisect(-0.1), rel=1e-13)

    def test_figure_point(self):
        # f(a; y) at a = y = 3 with rho = 0.08, gamma = 0.5
        x = -math.exp(-1.16)
        for w in (wm1_scalar(x), _wm1(np.array([x]))[0]):
            assert w == pytest.approx(-1.677, abs=5e-4)
            assert w == pytest.approx(wm1_bisect(x), rel=1e-13)

    @pytest.mark.parametrize("x", [-0.35, -0.2, -0.05, -1e-3, -1e-6, -1e-9])
    def test_against_bisection(self, x):
        assert wm1_scalar(x) == pytest.approx(wm1_bisect(x), rel=1e-13)
        assert _wm1(np.array([x]))[0] == pytest.approx(wm1_bisect(x), rel=1e-13)

    def test_residual_grid(self):
        xs = -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 10_000)
        for ws in ([wm1_scalar(x) for x in xs.tolist()], _wm1(xs)):
            ws = np.array(ws)
            assert np.max(np.abs(ws * np.exp(ws) - xs) / -xs) <= 1e-13

    def test_branch_ordering(self):
        xs = -np.geomspace(0.367, 1e-8, 50)
        assert all(wm1_scalar(x) <= -1.0 for x in xs.tolist())
        assert np.all(_wm1(xs) <= -1.0)

    def test_strictly_decreasing(self):
        xs = -np.geomspace(1.0 / math.e - 1e-12, 1e-12, 2_000)
        for ws in ([wm1_scalar(x) for x in xs.tolist()], _wm1(xs)):
            assert np.all(np.diff(ws) < 0.0)  # xs increase toward 0-, W-1 falls

    def test_round_trip(self):
        ws = np.linspace(-50.0, -1.0, 10_000)
        xs = ws * np.exp(ws)
        assert max(abs(wm1_scalar(x) - w) for x, w in zip(xs.tolist(), ws)) <= 1e-12
        assert np.max(np.abs(_wm1(xs) - ws)) <= 1e-12

    @pytest.mark.parametrize("x", [-0.5, 0.0, -0.0, 0.1, float("nan")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            wm1_scalar(x)


@pytest.fixture
def scalar_start(monkeypatch):
    """``du -> v0``: the start of the scalar body, recorded as it runs.

    The start is inline in the entry: each region returns one of three formula helpers,
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
        wm1_neg_exp_offset(du)
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

    def test_domain(self, scalar_start):
        # the start is consulted at every du > 0: only the branch point du = 0 is snapped
        assert wm1_neg_exp_offset(0.0) == wm1_neg_exp_offset(-0.0) == 0.0
        assert scalar_start(2.0 * math.ulp(1.0)) < 0.0
        assert wm1_neg_exp_offset(2.0 * math.ulp(1.0)) < 0.0
        with pytest.raises(ValueError):
            wm1_neg_exp_offset(float("nan"))


class TestNegExpForm:
    """W-1(-exp(-u)) = wm1_neg_exp_offset(u - 1) - 1, without forming -exp(-u)."""

    @pytest.mark.parametrize("u", [1.5, 2.0, 5.0, 50.0, 700.0])
    def test_matches_direct_route(self, u):
        x = -math.exp(-u)
        assert wm1_neg_exp_offset(u - 1.0) - 1.0 == pytest.approx(wm1_bisect(x), rel=1e-13)

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
        # every negative du is refused, the smallest too: there is no band below the branch point
        for du in (0.5 - 1.0, -1e-3, -1e-17, -5e-324, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^wm1_neg_exp_offset: need du >= 0"):
                wm1_neg_exp_offset(du)
            with pytest.raises(ValueError, match=r"^wm1_neg_exp_offset: need du >= 0"):
                wm1_neg_exp_offset(np.array([1.0, du]))

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

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_full_relative_precision_down_to_zero(self, path):
        from mp_reference import branch_offset_ref, rel_err

        # |v| ~ sqrt(2*du) is far above du here, so no du > 0 may round v to 0;
        # 31 of these du are subnormal, the first the smallest double
        du = np.geomspace(5e-324, 1e-13, 600)
        assert du[0] == 5e-324 and np.sum(du < np.finfo(float).tiny) == 31
        v = wm1_neg_exp_offset(du) if path == "array" else [wm1_neg_exp_offset(float(x)) for x in du]
        worst = max(rel_err(v_x, branch_offset_ref(x)) for x, v_x in zip(du, v))
        assert worst <= 2e-16


def body_frames(x):
    """Frames one scalar W-1 call at x runs in the kernel module, its formula helpers aside."""
    helpers = {"_branch_series", "_sqrt_du_poly", "_asymptotic", "_phi_near_branch"}
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == special_functions.__file__:
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        wm1_scalar(x)
    finally:
        sys.setprofile(None)
    return [name for name in names if name not in helpers]


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
    """A start within 1e-5 of v, then one Halley step: one residual, no iteration."""

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_start_within_1e_5_of_mpmath(self, path, scalar_start):
        from mp_reference import branch_offset_ref, rel_err

        # twenty points a decade, and each side of the two region edges
        edges = [np.nextafter(e, side) for e in (0.02, 25.0) for side in (0.0, math.inf)]
        du = np.concatenate((np.geomspace(1e-15, 1e12, 541), edges, [0.02, 25.0]))
        v0 = _wm1_offset_guess(du) if path == "array" else [scalar_start(float(x)) for x in du]
        worst = max(rel_err(v_x, branch_offset_ref(x)) for x, v_x in zip(du, v0))
        assert worst <= 1e-5

    @pytest.mark.parametrize("path", ["scalar", "array"])
    def test_one_halley_step_is_final_in_exact_arithmetic(self, path, scalar_start):
        from mp_reference import _branch_offset, mpmath

        # from within 1.8e-6, Halley leaves (3 - 4v)/(12(1 - v)^2)*eps^3 <= eps^3/4 ~ 1.5e-18;
        # 60 digits resolve phi ~ v^2*eps here, where v + log1p(-v) cancels to -v^2/2.
        # Reads 2.0e-19; a Newton step would leave 3.7e-13
        du = np.geomspace(1e-12, 1e8, 800)
        v0 = _wm1_offset_guess(du) if path == "array" else [scalar_start(float(x)) for x in du]
        worst = 0.0
        with mpmath.workdps(60):
            for x, v in zip(du.tolist(), v0):
                x, v = mpmath.mpf(x), mpmath.mpf(v)
                t = (v + mpmath.log1p(-v) + x) / v
                step = v + t * (1 - v) / (1 + t / (2 * v))
                ref = _branch_offset(x)
                worst = max(worst, abs((step - ref) / ref))
        assert worst <= 1e-17

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_scalar_call_evaluates_the_residual_once(self, grid):
        # the scalar body, inside the entry, evaluates the residual once in straight-line
        # code; so one frame per x besides the formula helpers, the branch point's too
        # (du = 0 returns before the start)
        xs = CRITERION_1_GRIDS[grid].tolist()
        frames = [body_frames(x) for x in xs]
        assert frames == [["wm1_neg_exp_offset"]] * len(xs)

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_array_evaluates_the_residual_once_per_block(self, grid, monkeypatch):
        # up to 10k elements off the branch point are five blocks of _BLOCK
        xs = CRITERION_1_GRIDS[grid]
        sizes = count_calls(monkeypatch, "_phi")
        _wm1(xs)
        block = special_functions._BLOCK
        assert sizes == [block] * 4 + [np.sum(-np.log(-xs) - 1.0 > 0.0) - 4 * block]


def unguarded_guess(du):
    """The array start with every region's formulas run, on an empty mask too."""
    sf = special_functions
    v = sf._sqrt_du_poly(np.sqrt(np.minimum(du, sf._ASYMPTOTIC_FROM)))
    near, far = du < sf._SERIES_TO, du >= sf._ASYMPTOTIC_FROM
    v[near] = sf._branch_series(np.sqrt(-2.0 * np.expm1(-du[near])))
    v[far] = sf._asymptotic(np.log1p(du[far]), du[far])
    return v


def unguarded_phi(v, du):
    """The array residual with the near-branch sum run on an empty mask too."""
    log1p_neg_v = np.log1p(-v)
    phi = np.where(v > -2.5, (v + log1p_neg_v) + du, (v + du) + log1p_neg_v)
    near = v > special_functions._NEAR_BRANCH
    phi[near] = special_functions._phi_near_branch(v[near], du[near])
    return phi


# du on criterion 1's grids, and arrays inside one start region each; the last two hold
# no v above the near-branch switch, so the residual's near-branch sum is skipped as well
GUARD_CASES = {
    **{grid: -np.log(-xs) - 1.0 for grid, xs in CRITERION_1_GRIDS.items()},
    "series_only": np.geomspace(1e-300, 0.0199, 500),
    "polynomial_only": np.geomspace(0.02, 24.99, 500),
    "polynomial_off_the_branch": np.geomspace(0.2, 24.99, 500),
    "asymptotic_only": np.geomspace(25.0, 1e300, 500),
}


class TestGuardedRegions:
    """The array kernel skips the start regions and the residual sum no element needs."""

    @pytest.mark.parametrize("case", list(GUARD_CASES))
    def test_bit_for_bit_the_unguarded_kernel(self, case, monkeypatch):
        du = GUARD_CASES[case]
        guarded = special_functions._wm1_offset_array(du)
        monkeypatch.setattr(special_functions, "_wm1_offset_guess", unguarded_guess)
        monkeypatch.setattr(special_functions, "_phi", unguarded_phi)
        assert np.array_equal(guarded, special_functions._wm1_offset_array(du))

    @pytest.mark.parametrize("case", ["series_only", "polynomial_off_the_branch", "asymptotic_only"])
    def test_a_region_no_element_is_in_is_not_run(self, case, monkeypatch):
        helpers = ("_branch_series", "_asymptotic", "_phi_near_branch")
        sizes = {name: count_calls(monkeypatch, name) for name in helpers}
        special_functions._wm1_offset_array(GUARD_CASES[case])
        assert all(0 not in called for called in sizes.values())


class TestSharedBody:
    """Criterion 1's x-form is the exponent form at du = -log(-x) - 1, with no snap band."""

    @pytest.mark.parametrize("grid", list(CRITERION_1_GRIDS))
    def test_x_form_is_the_exponent_form_bit_for_bit(self, grid):
        xs = np.concatenate((CRITERION_1_GRIDS[grid], _OLD_BAND))
        assert np.array_equal(_wm1(xs), wm1_neg_exp_offset(-np.log(-xs) - 1.0) - 1.0)
        w = [wm1_scalar(x) for x in xs.tolist()]
        assert w == [wm1_neg_exp_offset(-math.log(-x) - 1.0) - 1.0 for x in xs.tolist()]


# The scalar kernel's v at the ends of the double range and on each side of the start's two
# region edges, as reprs, so a change to the scalar body that moves any bit of them shows here
PINNED_OFFSETS = {
    5e-324: "-3.1434555694052576e-162",
    1e-300: "-1.4142135623730952e-150",
    1e-10: "-1.4142202290476184e-05",
    math.nextafter(0.02, 0.0): "-0.2135497071517296",
    0.02: "-0.2135497071517296",
    0.16: "-0.6770160585636504",
    math.nextafter(25.0, 0.0): "-28.380325240828373",
    25.0: "-28.380325240828377",
    1e3: "-1006.9156397544092",
    1e300: "-1e+300",
}

PINNED_ERRORS = {
    -1.0: "wm1_neg_exp_offset: need du >= 0, got du=-1.0",
    math.nan: "wm1_neg_exp_offset: need du >= 0, got du=nan",
    math.inf: "wm1_neg_exp_offset: du overflowed to inf",
}


class TestPinnedBits:
    @pytest.mark.parametrize("du", list(PINNED_OFFSETS))
    def test_scalar_value(self, du):
        assert repr(wm1_neg_exp_offset(du)) == PINNED_OFFSETS[du]

    @pytest.mark.parametrize("du", list(PINNED_ERRORS))
    def test_scalar_error(self, du):
        with pytest.raises(ValueError) as exc:
            wm1_neg_exp_offset(du)
        assert str(exc.value) == PINNED_ERRORS[du]

    def test_an_array_call_leaves_du_unchanged(self):
        # the body reads a block free of du = 0 as a view of du; the second block holds a 0
        du = np.array(list(PINNED_OFFSETS) * 300)
        du[2500] = 0.0
        before = du.copy()
        v = wm1_neg_exp_offset(du)
        assert np.array_equal(du, before) and v[2500] == 0.0 and np.all(np.delete(v, 2500) < 0.0)

    @pytest.mark.parametrize("du", list(PINNED_ERRORS))
    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_a_bad_element_raises_the_scalar_error(self, du, shape):
        # one bad element among good ones, the branch point's du = 0 among them too
        arr = np.array([0.0, 0.16, du, 25.0, 1.0, 2.0][: math.prod(shape)]).reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                wm1_neg_exp_offset(arr)
        assert str(exc.value) == PINNED_ERRORS[du]
