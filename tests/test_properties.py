"""Property tests over the documented parameter ranges (hypothesis, derandomized).

rho in [0.05, 0.08], r = 0 or r in [0, rho/2], gamma in [0.5, 5] and y in
[0.01, 100] log-uniform, a/y in 10^[-12, 12].  Figure 1's knot snap is
drawn at r in [0.01, 0.5]*rho over linear or log grids of 2 to 400 points
with delta in [1e-3, 5] log-uniform.  The array path of the closed forms is
drawn over arrays of up to 16 points with a/y = 0 or in 10^[-12, 300], and
checked against per-element scalar calls.  Skipped when hypothesis is not
installed.
"""

import math

import numpy as np
import pytest

from ifpclosed.checks import _ARRAY_AGREEMENT, _wm1
from ifpclosed.consumption import (
    consumption_approx_small_r,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
)
from ifpclosed.depletion_map import h_approx_small_r, h_closed_r0, h_numeric, mu
from ifpclosed.figures import discrete_policy, figure_rows
from ifpclosed.model_core import ModelParams, validate
from ifpclosed.special_functions import wm1_neg_exp_offset

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

SETTINGS = hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


ZERO_RATE = st.just(0.0)
POSITIVE_RATE = st.floats(0.01, 0.5)


@st.composite
def params(draw, rate_share=st.one_of(ZERO_RATE, st.floats(0.0, 0.5))):
    rho = draw(st.floats(0.05, 0.08))
    r = draw(rate_share) * rho
    gamma = draw(log_uniform(0.5, 5.0))
    y = draw(log_uniform(0.01, 100.0))
    return validate(ModelParams(rho=rho, r=r, gamma=gamma, y=y))


ASSET_RATIO = log_uniform(1e-12, 1e12)


@SETTINGS
@given(params(), ASSET_RATIO)
def test_numeric_inverse_residual(p, ratio):
    a = ratio * p.y
    assert abs(mu(p, h_numeric(p, a).T) - a) <= 1e-12 * a


@SETTINGS
@given(params(), ASSET_RATIO, st.floats(1e-9, 1.0))
def test_numeric_inverse_increasing(p, ratio, log_step):
    a = ratio * p.y
    assert h_numeric(p, a).T < h_numeric(p, a * 10.0**log_step).T


@SETTINGS
@given(params(ZERO_RATE), ASSET_RATIO, st.floats(0.1, 10.0))
def test_consumption_homogeneous_at_zero_rate(p, ratio, lam):
    a = ratio * p.y
    scaled = validate(ModelParams(rho=p.rho, r=0.0, gamma=p.gamma, y=lam * p.y))
    c = consumption_path(p, a)
    assert consumption_path(scaled, lam * a) == pytest.approx(lam * c, rel=1e-13)


@SETTINGS
@given(params(ZERO_RATE), ASSET_RATIO)
def test_euler_identity_at_zero_rate(p, ratio):
    a = ratio * p.y
    d = consumption_derivatives(p, a)
    assert a * d.dc_da + p.y * d.dc_dy == pytest.approx(d.c, rel=1e-12)


@SETTINGS
@given(params(ZERO_RATE), ASSET_RATIO)
def test_hessian_signs_at_zero_rate(p, ratio):
    d = consumption_derivatives(p, ratio * p.y)
    assert d.d2c_da2 < 0.0 < d.d2c_dady and d.d2c_dy2 < 0.0


@SETTINGS
@given(params(ZERO_RATE), ASSET_RATIO)
def test_hessian_rank_one_at_zero_rate(p, ratio):
    d = consumption_derivatives(p, ratio * p.y)
    diag = d.d2c_da2 * d.d2c_dy2
    assert abs(diag - d.d2c_dady**2) <= 1e-12 * abs(diag)


@SETTINGS
@given(params(ZERO_RATE), ASSET_RATIO, st.floats(1e-3, 1.0))
def test_mpcs_monotone_at_zero_rate(p, ratio, log_step):
    # dc_da - rho/gamma falls like 1/(a/y): at a/y = 1e12 a step in log10(a)
    # below ~1e-4 moves dc_da by less than its rounding, hence the 1e-3 floor
    a = ratio * p.y
    lo, hi = consumption_derivatives(p, a), consumption_derivatives(p, a * 10.0**log_step)
    assert lo.dc_da >= hi.dc_da >= p.rho / p.gamma
    assert hi.dc_dy >= lo.dc_dy


@st.composite
def figure_grids(draw):
    """A figure-1 asset grid over a/y, linear from 0 or log spaced."""
    n = draw(st.integers(2, 400))
    top = draw(log_uniform(1e-2, 10.0))
    if draw(st.booleans()):
        return np.geomspace(top * draw(log_uniform(1e-6, 0.5)), top, n)
    return np.linspace(0.0, top, n)


@SETTINGS
@given(params(POSITIVE_RATE), figure_grids(), log_uniform(1e-3, 5.0))
def test_figure1_knot_snap(p, grid_over_y, delta):
    grid = grid_over_y * p.y
    _, rows = figure_rows(p, 1, grid, delta)
    a_over_y = np.array([row[0] for row in rows])
    flagged = np.array([row[3] for row in rows]) == 1
    knots = discrete_policy(p, delta, grid[-1]).knot_assets
    knots = knots[(knots >= grid[0]) & (knots <= grid[-1])]
    nominee = np.concatenate([  # per-knot argmin against the original grid, in chunks
        np.argmin(np.abs(grid[None, :] - chunk[:, None]), axis=1)
        for chunk in np.array_split(knots, knots.size // 1000 + 1)
    ]).astype(int)
    nearest = np.full(grid.size, np.inf)
    np.minimum.at(nearest, nominee, np.abs(grid[nominee] - knots))

    assert a_over_y.size == grid.size and np.all(np.diff(a_over_y) > 0.0)
    assert np.array_equal(flagged, nearest < np.inf)
    a = grid.copy()
    on_knot = knots[np.minimum(np.searchsorted(knots / p.y, a_over_y[flagged]), knots.size - 1)]
    assert np.array_equal(on_knot / p.y, a_over_y[flagged])
    a[flagged] = on_knot
    assert np.array_equal(a_over_y[~flagged], grid[~flagged] / p.y)
    step = np.diff(grid)
    half_step = 0.5 * np.maximum(np.append(step, 0.0), np.insert(step, 0, 0.0))
    assert np.all(np.abs(a - grid) <= half_step)
    assert np.array_equal(np.abs(a - grid)[flagged], nearest[flagged])


ARRAY_RATIOS = st.lists(st.one_of(st.just(0.0), log_uniform(1e-12, 1e300)), min_size=1, max_size=16)


def exponent_offsets(p, a):
    """du = B*a/(gamma*y) per element, as the closed forms form it."""
    big_b = p.r * (p.gamma - 1.0) + p.rho
    return [big_b * x / (p.gamma * p.y) for x in a]


def assert_agrees(array, scalars, v):
    """Array results match per-element scalar ones to the pinned agreement in W-1.

    Every output is a function of the branch offset v = 1 + W, so it inherits
    that agreement times its condition number in W: at most 1/L for T, 1 + L
    for c and 4 + 3/|v| for the MPCs and the Hessian, L = log1p(-v).  At the
    constraint (v = 0) both paths are exact.
    """
    scalars, v = np.array(scalars, dtype=float), np.array(v)
    at_branch = v == 0.0
    lg = np.log1p(-np.where(at_branch, -1.0, v))
    cond = np.where(at_branch, 0.0, 4.0 + lg + 1.0 / lg - 3.0 / np.where(at_branch, -1.0, v))
    # one subnormal ulp: the Hessian entries underflow gradually from a/y ~ 1e155
    assert np.all(np.abs(array - scalars) <= _ARRAY_AGREEMENT * cond * np.abs(scalars) + 5e-324)


@SETTINGS
@given(params(ZERO_RATE), ARRAY_RATIOS)
def test_array_matches_scalar_at_zero_rate(p, ratios):
    a = np.array(ratios) * p.y
    du = exponent_offsets(p, a.tolist())
    v = np.array([wm1_neg_exp_offset(x) for x in du])
    assert np.all(np.abs(wm1_neg_exp_offset(np.array(du)) - v) <= _ARRAY_AGREEMENT * (1.0 - v))
    x = -np.exp(-(1.0 + np.array(du)))
    x = x[x < 0.0]  # -e^(-(1 + du)) underflows to -0.0 past du ~ 744
    w = [wm1_neg_exp_offset(-math.log(-x_) - 1.0) - 1.0 for x_ in x.tolist()]  # the scalar x-form
    assert np.all(np.abs(_wm1(x) - w) <= _ARRAY_AGREEMENT * np.abs(w))
    T = [h_closed_r0(p, a_).T for a_ in a.tolist()]
    assert_agrees(h_closed_r0(p, a).T, T, v)
    assert_agrees(consumption_path(p, a), [consumption_path(p, a_) for a_ in a.tolist()], v)
    c_approx = [consumption_approx_small_r(p, a_) for a_ in a.tolist()]
    assert_agrees(consumption_approx_small_r(p, a), c_approx, v)
    for t in (0.0, float(np.median(T))):
        c = [consumption_from_depletion_time(p, T_, t) for T_ in T]
        assert_agrees(consumption_from_depletion_time(p, np.array(T), t), c, v)
    inside = a > 0.0
    if inside.any():
        bundle = tuple(consumption_derivatives(p, a[inside]))
        scalar = [tuple(consumption_derivatives(p, a_)) for a_ in a[inside].tolist()]
        for array, column in zip(bundle, zip(*scalar)):
            assert_agrees(array, column, v[inside])


@SETTINGS
@given(params(POSITIVE_RATE), ARRAY_RATIOS)
def test_array_matches_scalar_at_positive_rate(p, ratios):
    a = np.array(ratios) * p.y
    v = [wm1_neg_exp_offset(x) for x in exponent_offsets(p, a.tolist())]
    assert_agrees(h_approx_small_r(p, a).T, [h_approx_small_r(p, a_).T for a_ in a.tolist()], v)
    c_approx = [consumption_approx_small_r(p, a_) for a_ in a.tolist()]
    assert_agrees(consumption_approx_small_r(p, a), c_approx, v)


def array_entry_points(p):
    """(name, function of one array argument, that argument's invalid values) of the array path."""

    def first(f):  # the T of a DepletionTime or of the bundle
        return lambda a: tuple(f(p, a))[0]

    return [
        ("wm1_neg_exp_offset", wm1_neg_exp_offset, (math.nan, -1.0, math.inf)),
        ("h_closed_r0", first(h_closed_r0), (math.nan, -1.0, math.inf)),
        ("h_approx_small_r", first(h_approx_small_r), (math.nan, -1.0, math.inf)),
        ("consumption_path", lambda a: consumption_path(p, a), (math.nan, -1.0, math.inf)),
        ("consumption_approx_small_r", lambda a: consumption_approx_small_r(p, a),
         (math.nan, -1.0)),
        ("consumption_from_depletion_time", lambda T: consumption_from_depletion_time(p, T),
         (math.nan, -1.0)),
        ("consumption_derivatives", first(consumption_derivatives), (math.nan, -1.0, math.inf)),
    ]


@SETTINGS
@given(params(ZERO_RATE), st.lists(log_uniform(1e-6, 1e-1), min_size=1, max_size=8), st.data())
def test_array_input_rules_and_shapes(p, values, data):
    # values in (0, 0.1] are valid for every entry point
    for name, fn, invalid in array_entry_points(p):
        flat = np.array(values)
        arg = flat.copy()
        arg[data.draw(st.integers(0, arg.size - 1))] = bad = data.draw(st.sampled_from(invalid))
        with pytest.raises(ValueError) as scalar_error:
            fn(bad)
        with pytest.raises(ValueError) as array_error:
            fn(arg)
        assert str(array_error.value) == str(scalar_error.value), name
        grid = np.stack([flat, flat[::-1]])
        out = fn(grid)
        assert np.shape(out) == grid.shape and np.array_equal(np.ravel(out), fn(grid.ravel())), name
        point = fn(np.array(flat[0]))
        assert np.shape(point) == () and point == fn(flat[:1])[0], name


@SETTINGS
@given(params(POSITIVE_RATE), ARRAY_RATIOS)
def test_array_at_positive_rate_takes_no_numeric_inversion(p, ratios):
    with pytest.raises(ValueError, match="one point at a time"):
        consumption_path(p, np.array(ratios) * p.y)


@SETTINGS
@given(params(), ASSET_RATIO)
def test_scalar_entry_points_return_python_floats(p, ratio):
    a = ratio * p.y
    du = exponent_offsets(p, [a])[0]
    T = h_numeric(p, a).T
    values = [
        wm1_neg_exp_offset(du), T,
        h_approx_small_r(p, a).T, consumption_path(p, a), consumption_approx_small_r(p, a),
        consumption_from_depletion_time(p, T),
    ]
    if p.r == 0.0:
        values += [h_closed_r0(p, a).T, *tuple(consumption_derivatives(p, a))]
    assert all(type(value) is float for value in values)


# The kernel's error against 50-digit mpmath, as the README quotes it (two digits)
README_TABLE = {1e-4: "4.5e-17", 1e-8: "1.4e-17", 1e-12: "5.4e-17", 1e-15: "8.2e-17"}


@pytest.mark.parametrize("path", ["array", "scalar"])
def test_kernel_meets_the_readme_mpmath_table(path):
    from mp_reference import branch_offset_ref, rel_err

    du = np.array(list(README_TABLE))
    v = wm1_neg_exp_offset(du) if path == "array" else [wm1_neg_exp_offset(float(x)) for x in du]
    for x, v_x, quoted in zip(du, v, README_TABLE.values()):
        mantissa, exponent = quoted.split("e")
        bound = (float(mantissa) + 0.05) * 10.0 ** int(exponent)  # to the digits quoted
        assert rel_err(v_x, branch_offset_ref(x)) <= bound, x
