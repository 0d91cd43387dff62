"""Property tests over the documented parameter ranges (hypothesis, derandomized).

rho in [0.05, 0.08], r = 0 or r in [0, rho/2], gamma in [0.5, 5] and y in
[0.01, 100] log-uniform, a/y in 10^[-12, 12].  Figure 1's knot snap is
drawn at r in [0.01, 0.5]*rho over linear or log grids of 2 to 400 points
with delta in [1e-3, 5] log-uniform.  Skipped when hypothesis is not
installed.
"""

import math

import numpy as np
import pytest

from ifpclosed.consumption import (
    consumption_derivatives,
    consumption_path,
    discrete_policy,
    figure_rows,
)
from ifpclosed.depletion_map import h_numeric, mu
from ifpclosed.model_core import ModelParams, validate

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
