"""Closed-form consumption functions for the deterministic income-fluctuation
problem with a borrowing constraint, and the numerical oracles that verify them.

The depletion map mu(T) (assets exhausted in exactly T) has an exact
Lambert-W inverse at r = 0 and a closed-form small-r approximation; the
time-0 consumption function, its Jacobian and Hessian follow in closed form.
Everything is cross-checked against solver-grade oracles: safeguarded Newton
inversion, RK4 budget integration, quadrature, finite differences, and an
endogenous-grid solve of the discrete-time model.

The closed forms run on ``math`` alone: importing the package, or calling any
function it exports on floats, loads no numpy.  numpy loads on the first
array, and with the oracles (the CRRA utility and the value bound among them)
and the figures, which live in ``ifpclosed.validation`` and
``ifpclosed.figures`` alone and are imported from there
(``from ifpclosed.validation import grid_dp``).
"""

from .consumption import (
    ConsumptionDerivatives,
    consumption_approx_small_r,
    consumption_derivatives,
    consumption_from_depletion_time,
    consumption_path,
)
from .depletion_map import (
    DepletionTime,
    best_depletion_time,
    h_approx_small_r,
    h_closed_r0,
    h_numeric,
    mu,
    mu_prime,
)
from .model_core import ModelParams, validate
from .special_functions import wm1_neg_exp_offset

__version__ = "0.1.0"
