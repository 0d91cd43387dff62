"""Economic primitives: parameters, CRRA utility, and the analytic value bound.

Single, consistent time unit throughout: rho and r are per-unit-time rates,
y is a flow of consumption units per unit time.  rho is treated as a rate
(no rho < 1 requirement is imposed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ModelParams", "crra_utility", "validate", "value_upper_bound"]


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the consumption-savings problem.

    rho:   subjective discount rate (> r)
    r:     net interest rate (>= 0)
    gamma: relative risk aversion (> 0); gamma = 1 means log utility
    y:     permanent income flow (> 0)

    Construction (``dataclasses.replace`` too) runs :func:`validate`, so every
    instance satisfies the invariants the closed forms need.
    """

    rho: float
    r: float
    gamma: float
    y: float

    def __post_init__(self) -> None:
        validate(self)


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if all invariants hold, else raise.

    Raises ValueError naming the violated invariant: r >= 0, impatience
    (rho > r), gamma > 0, or y > 0; each parameter must also be finite
    (NaN fails every comparison).
    """
    if not 0.0 <= params.r < math.inf:
        raise ValueError(f"interest rate must be finite and nonnegative: r={params.r}")
    if not params.r < params.rho < math.inf:
        raise ValueError(
            "impatience condition violated: need finite rho > r, "
            f"got rho={params.rho}, r={params.r}"
        )
    if not 0.0 < params.gamma < math.inf:
        raise ValueError(f"risk aversion must be finite and positive: gamma={params.gamma}")
    if not 0.0 < params.y < math.inf:
        raise ValueError(f"permanent income must be finite and positive: y={params.y}")
    return params


def crra_utility(c: float | np.ndarray, gamma: float) -> float | np.ndarray:
    """CRRA utility c^(1-gamma)/(1-gamma); log(c) at gamma = 1 (continuous limit).

    ``c`` may be an ndarray; every element must be positive, like a scalar c.
    A scalar is evaluated as a 0-d array, so an array's elements are
    bit-equal to per-element calls (numpy's vector log and power can differ
    from ``math``'s by an ulp).  A utility past the double range is a
    ``ValueError``, not inf.
    """
    import numpy as np
    arr = np.asarray(c, dtype=float)
    positive = arr > 0.0
    if not positive.all():
        raise ValueError(f"crra_utility: consumption must be positive, got c={arr[~positive][0]}")
    with np.errstate(over="ignore"):
        u = np.log(arr) if gamma == 1.0 else arr ** (1.0 - gamma) / (1.0 - gamma)
    infinite = np.isinf(u)
    if infinite.any():
        raise ValueError(
            f"crra_utility: utility overflows a double at c={arr[infinite][0]}, gamma={gamma}"
        )
    return u if type(c) is np.ndarray else float(u)


def value_upper_bound(params: ModelParams, a: float) -> float:
    """Upper bound u(rho*a + y)/rho on lifetime utility from initial assets a >= 0.

    Any feasible plan's discounted utility lies strictly below this unless
    consumption is constant at rho*a + y forever.
    """
    if a < 0.0:
        raise ValueError(f"value_upper_bound: need a >= 0, got a={a}")
    return crra_utility(params.rho * a + params.y, params.gamma) / params.rho
