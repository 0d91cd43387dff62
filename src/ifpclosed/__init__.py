"""Closed-form consumption functions for the deterministic income-fluctuation
problem with a borrowing constraint, and the numerical oracles that verify them.

The depletion map mu(T) (assets exhausted in exactly T) has an exact
Lambert-W inverse at r = 0 and a closed-form small-r approximation; the
time-0 consumption function, its Jacobian and Hessian follow in closed form.
Everything is cross-checked against solver-grade oracles: safeguarded Newton
inversion, RK4 budget integration, quadrature, finite differences, and a
grid value-iteration solve of the discrete-time model.

The closed forms run on ``math`` alone: importing the package, or calling it
on floats, loads no numpy.  numpy loads on the first array, and with the
oracles: the names re-exported from ``validation`` below resolve on first
access (PEP 562), so ``from ifpclosed import grid_dp`` loads them then.
"""

from .consumption import (
    ConsumptionDerivatives,
    PiecewiseLinearPolicy,
    consumption_approx_small_r,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
    consumption_unconstrained,
    discrete_policy,
)
from .depletion_map import (
    DepletionTime,
    best_depletion_time,
    h_approx_small_r,
    h_closed_r0,
    h_numeric,
    mu,
    mu_discrete,
    mu_prime,
)
from .model_core import ModelParams, crra_utility, validate, value_upper_bound
from .special_functions import lambert_wm1, wm1_neg_exp_offset

__version__ = "0.1.0"

_VALIDATION_NAMES = ("AssetPath", "DpSolution", "approximation_error_report", "fd_gradient",
                     "fd_hessian", "grid_dp", "make_asset_grid", "pdv_utility", "simulate_assets")


def __getattr__(name: str):
    if name in _VALIDATION_NAMES:
        from . import validation
        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
