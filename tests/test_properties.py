"""Property tests over the documented parameter ranges (hypothesis, derandomized).

rho in [0.05, 0.08], r = 0 or r in [0, rho/2], gamma in [0.5, 5] and y in
[0.01, 100] log-uniform, a/y in 10^[-12, 12].  Skipped when hypothesis is
not installed.
"""

import math

import pytest

from ifpclosed.consumption import consumption_derivatives, consumption_path
from ifpclosed.depletion_map import h_numeric, mu
from ifpclosed.model_core import ModelParams, validate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

SETTINGS = hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def params(draw, zero_rate=False):
    rho = draw(st.floats(0.05, 0.08))
    r = 0.0 if zero_rate else draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))) * rho
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
@given(params(zero_rate=True), ASSET_RATIO, st.floats(0.1, 10.0))
def test_consumption_homogeneous_at_zero_rate(p, ratio, lam):
    a = ratio * p.y
    scaled = validate(ModelParams(rho=p.rho, r=0.0, gamma=p.gamma, y=lam * p.y))
    c = consumption_path(p, a)
    assert consumption_path(scaled, lam * a) == pytest.approx(lam * c, rel=1e-13)


@SETTINGS
@given(params(zero_rate=True), ASSET_RATIO)
def test_euler_identity_at_zero_rate(p, ratio):
    a = ratio * p.y
    d = consumption_derivatives(p, a)
    assert a * d.dc_da + p.y * d.dc_dy == pytest.approx(d.c, rel=1e-12)


@SETTINGS
@given(params(zero_rate=True), ASSET_RATIO)
def test_hessian_signs_at_zero_rate(p, ratio):
    d = consumption_derivatives(p, ratio * p.y)
    assert d.d2c_da2 < 0.0 < d.d2c_dady and d.d2c_dy2 < 0.0


@SETTINGS
@given(params(zero_rate=True), ASSET_RATIO)
def test_hessian_rank_one_at_zero_rate(p, ratio):
    d = consumption_derivatives(p, ratio * p.y)
    diag = d.d2c_da2 * d.d2c_dy2
    assert abs(diag - d.d2c_dady**2) <= 1e-12 * abs(diag)


@SETTINGS
@given(params(zero_rate=True), ASSET_RATIO, st.floats(1e-3, 1.0))
def test_mpcs_monotone_at_zero_rate(p, ratio, log_step):
    # dc_da - rho/gamma falls like 1/(a/y): at a/y = 1e12 a step in log10(a)
    # below ~1e-4 moves dc_da by less than its rounding, hence the 1e-3 floor
    a = ratio * p.y
    lo, hi = consumption_derivatives(p, a), consumption_derivatives(p, a * 10.0**log_step)
    assert lo.dc_da >= hi.dc_da >= p.rho / p.gamma
    assert hi.dc_dy >= lo.dc_dy
