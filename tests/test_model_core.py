"""Parameter validation, CRRA utility, and the analytic value bound."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from ifpclosed.consumption import consumption_path
from ifpclosed.depletion_map import h_approx_small_r, h_numeric
from ifpclosed.model_core import ModelParams, validate
from ifpclosed.validation import _value_upper_bound, crra_utility

FIG1_R0 = ModelParams(rho=0.08, r=0.0, gamma=0.5, y=3.0)

# One violation per row, each named in validate's message.
VIOLATIONS = [
    pytest.param({"r": -0.01}, "interest rate must be finite and nonnegative: r=-0.01",
                 id="r<0"),
    pytest.param({"r": 0.08}, "impatience condition violated: need finite rho > r, "
                 "got rho=0.08, r=0.08", id="r=rho"),
    pytest.param({"r": 0.09}, "impatience condition violated: need finite rho > r, "
                 "got rho=0.08, r=0.09", id="r>rho"),
    pytest.param({"gamma": 0.0}, "risk aversion must be finite and positive: gamma=0.0",
                 id="gamma=0"),
    pytest.param({"gamma": -1.0}, "risk aversion must be finite and positive: gamma=-1.0",
                 id="gamma<0"),
    pytest.param({"y": 0.0}, "permanent income must be finite and positive: y=0.0", id="y=0"),
    pytest.param({"y": -3.0}, "permanent income must be finite and positive: y=-3.0", id="y<0"),
    pytest.param({"rho": 1e301, "r": 1e300, "gamma": 1e10, "y": 1.0},
                 "B = r*(gamma - 1) + rho overflows a double: rho=1e+301, r=1e+300, "
                 "gamma=10000000000.0", id="B=inf"),
]


class TestValidate:
    def test_figure_parameters_valid(self):
        p = ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0)
        assert validate(p) is p

    def test_impatience_boundary_rejected(self):
        with pytest.raises(ValueError, match="impatience"):
            validate(ModelParams(rho=0.08, r=0.08, gamma=0.5, y=3.0))

    def test_zero_rate_log_utility_valid(self):
        validate(ModelParams(rho=0.08, r=0.0, gamma=1.0, y=1.0))

    def test_rho_above_one_allowed(self):
        # rho is a rate, not a factor; no rho < 1 restriction applies
        validate(ModelParams(rho=1.2, r=0.0, gamma=2.0, y=1.0))

    @pytest.mark.parametrize(
        "bad,match",
        [
            ((0.08, -0.01, 0.5, 3.0), "nonnegative"),
            ((0.08, 0.0, 0.0, 3.0), "risk aversion"),
            ((0.08, 0.0, 0.5, 0.0), "income"),
            ((0.08, 0.0, 1e-200, 1e-200), r"gamma\*y must be positive"),
            ((0.08, 0.0, 1e300, 1e300), r"mu's scale gamma\*y/B overflows"),
            ((0.08, 1e-300, 1e154, 1e154), r"mu's scale gamma\*y/B overflows"),
            ((0.08, 0.0, 1e154, 1e154), r"mu's scale gamma\*y/B overflows"),
            ((1e-300, 0.0, 1e10, 1e-10), r"the depletion time's gamma/B overflows"),
            ((1e301, 1e300, 1e10, 1.0), r"B = r\*\(gamma - 1\) \+ rho overflows"),
            ((10.0, 5.0, 1e308, 1.0), r"B = r\*\(gamma - 1\) \+ rho overflows"),
        ],
    )
    def test_each_invariant_named(self, bad, match):
        with pytest.raises(ValueError, match=match):
            validate(ModelParams(*bad))

    @pytest.mark.parametrize("field", ["rho", "r", "gamma", "y"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            validate(FIG1_R0._replace(**{field: value}))


class TestValidByConstruction:
    @pytest.mark.parametrize("fields,message", VIOLATIONS)
    def test_construction_raises(self, fields, message):
        with pytest.raises(ValueError) as exc:
            ModelParams(**{**FIG1_R0._asdict(), **fields})
        assert str(exc.value) == message

    @pytest.mark.parametrize("fields,message", VIOLATIONS)
    def test_replace_raises(self, fields, message):
        with pytest.raises(ValueError) as exc:
            FIG1_R0._replace(**fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_equal_and_validated(self, copy_of):
        copied = copy_of(FIG1_R0)
        assert type(copied) is ModelParams and copied == FIG1_R0
        # a record built past the type (tuple.__new__ skips validate) is refused when copied
        unchecked = tuple.__new__(ModelParams, (0.08, 0.09, 0.5, 3.0))
        with pytest.raises(ValueError) as exc:
            copy_of(unchecked)
        assert str(exc.value) == (
            "impatience condition violated: need finite rho > r, got rho=0.08, r=0.09"
        )

    @pytest.mark.parametrize("field", ["rho", "r", "gamma", "y"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_construction_raises(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**{**FIG1_R0._asdict(), field: value})

    def test_impatience_violation_never_reaches_a_formula(self):
        # unchecked, the small-r closed form returned T = -3.23 here
        with pytest.raises(ValueError, match="impatience"):
            h_approx_small_r(ModelParams(rho=0.05, r=0.08, gamma=0.5, y=3.0), 3.0)

    def test_nan_rate_never_reaches_a_formula(self):
        # unchecked, the numeric inversion returned T = 0.5 here
        with pytest.raises(ValueError, match="impatience"):
            h_numeric(ModelParams(rho=math.nan, r=0.01, gamma=0.5, y=3.0), 3.0)

    def test_overflowed_b_never_reaches_a_formula(self):
        # unchecked, B = inf made gamma*y/B and gamma/B 0, and h_numeric read a = 3 as past
        # the range of mu, "which ends near 0"
        with pytest.raises(ValueError, match=r"^B = r\*\(gamma - 1\) \+ rho overflows"):
            h_numeric(ModelParams(rho=1e301, r=1e300, gamma=1e10, y=1.0), 3.0)

    def test_zero_risk_aversion_is_a_value_error(self):
        # unchecked, every formula divided by gamma = 0
        with pytest.raises(ValueError, match="risk aversion"):
            consumption_path(ModelParams(rho=0.08, r=0.0, gamma=0.0, y=3.0), 3.0)


class TestCrraUtility:
    def test_known_values(self):
        assert crra_utility(1.0, 2.0) == -1.0
        assert crra_utility(1.0, 1.0) == 0.0
        assert crra_utility(4.0, 0.5) == pytest.approx(4.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            crra_utility(0.0, 0.5)
        with pytest.raises(ValueError):
            crra_utility(-1.0, 2.0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_marginal_utility_matches_power(self, gamma):
        h = 1e-5
        for c in np.geomspace(0.2, 50.0, 30):
            step = h * c
            fd = (crra_utility(c + step, gamma) - crra_utility(c - step, gamma)) / (2 * step)
            assert fd == pytest.approx(c**-gamma, rel=1e-7)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_array_bit_equal_to_scalar_calls(self, gamma):
        c = np.exp(np.random.default_rng(3).uniform(-30.0, 30.0, 5_000))
        u = crra_utility(c, gamma)
        assert type(u) is np.ndarray and u.shape == c.shape
        assert np.array_equal(u, [crra_utility(x, gamma) for x in c.tolist()])
        assert type(crra_utility(float(c[0]), gamma)) is float

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan])
    def test_array_rejects_what_a_scalar_call_rejects(self, bad):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        c[1, 0] = bad
        with pytest.raises(ValueError) as scalar_error:
            crra_utility(bad, 2.0)
        with pytest.raises(ValueError) as array_error:
            crra_utility(c, 2.0)
        assert str(array_error.value) == str(scalar_error.value)

    def test_overflow_is_a_value_error(self):
        # (1e-200)**(-2) is past the double range: a ValueError, never inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                crra_utility(1e-200, 3.0)
            with pytest.raises(ValueError, match="overflows"):
                crra_utility(np.array([1.0, 1e-200]), 3.0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_increasing_and_concave(self, gamma):
        grid = np.geomspace(0.1, 100.0, 200)
        u = np.array([crra_utility(c, gamma) for c in grid])
        assert np.all(np.diff(u) > 0.0)
        slopes = np.diff(u) / np.diff(grid)
        assert np.all(np.diff(slopes) < 0.0)


class TestValueUpperBound:
    def test_frozen_value_at_zero_assets(self):
        # u(3)/0.08 with gamma = 0.5: 2*sqrt(3)/0.08
        assert _value_upper_bound(FIG1_R0, 0.0) == pytest.approx(43.30127018922193, rel=1e-14)

    def test_log_case(self):
        p = ModelParams(rho=1.0, r=0.0, gamma=1.0, y=1.0)
        assert _value_upper_bound(p, 0.0) == 0.0

    def test_at_three(self):
        # rho*a + y = 3.24; 2*sqrt(3.24)/0.08 = 45 exactly
        assert _value_upper_bound(FIG1_R0, 3.0) == pytest.approx(45.0, rel=1e-14)

    def test_increasing_in_assets(self):
        vals = [_value_upper_bound(FIG1_R0, a) for a in np.linspace(0.0, 50.0, 40)]
        assert np.all(np.diff(vals) > 0.0)

    def test_rejects_negative_assets(self):
        with pytest.raises(ValueError):
            _value_upper_bound(FIG1_R0, -1.0)
