"""Economic primitives: the model parameters and the invariants they must satisfy.

Single, consistent time unit throughout: rho and r are per-unit-time rates,
y is a flow of consumption units per unit time.  rho is treated as a rate
(no rho < 1 requirement is imposed).
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = ["ModelParams", "validate"]


class ModelParams(namedtuple("ModelParams", "rho r gamma y")):
    """Primitives of the consumption-savings problem, an immutable named tuple.

    rho:   subjective discount rate (> r)
    r:     net interest rate (>= 0)
    gamma: relative risk aversion (> 0); gamma = 1 means log utility
    y:     permanent income flow (> 0)

    Construction runs :func:`validate`, and so do ``_replace``, ``_make``,
    ``copy`` and unpickling, so every instance satisfies the invariants the
    closed forms need.
    """

    __slots__ = ()

    def __new__(cls, rho: float, r: float, gamma: float, y: float) -> ModelParams:
        return validate(super().__new__(cls, rho, r, gamma, y))

    @classmethod
    def _make(cls, iterable) -> ModelParams:
        # namedtuple's own _make, which _replace calls, builds by tuple.__new__
        return cls(*iterable)


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if all invariants hold, else raise.

    Raises ValueError naming the violated invariant: r >= 0, impatience
    (rho > r), gamma > 0, y > 0, gamma*y > 0 in doubles (the scale of du), and
    B = r*(gamma - 1) + rho, gamma*y/B (the scale of mu) and gamma/B (the
    depletion time's) finite; each parameter must also be finite (NaN fails
    every comparison).
    """
    rho, r, gamma, y = params
    if not 0.0 <= r < math.inf:
        raise ValueError(f"interest rate must be finite and nonnegative: r={r}")
    if not r < rho < math.inf:
        raise ValueError(f"impatience condition violated: need finite rho > r, got rho={rho}, r={r}")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"risk aversion must be finite and positive: gamma={gamma}")
    if not 0.0 < y < math.inf:
        raise ValueError(f"permanent income must be finite and positive: y={y}")
    if gamma * y == 0.0:
        raise ValueError(f"gamma*y must be positive, but it underflows to 0: gamma={gamma}, y={y}")
    big_b = r * (gamma - 1.0) + rho
    if not big_b < math.inf:
        raise ValueError(f"B = r*(gamma - 1) + rho overflows a double: rho={rho}, r={r}, gamma={gamma}")
    if not gamma * y / big_b < math.inf:
        raise ValueError(f"mu's scale gamma*y/B overflows a double: gamma={gamma}, y={y}, B={big_b}")
    if not gamma / big_b < math.inf:
        raise ValueError(f"the depletion time's gamma/B overflows a double: gamma={gamma}, B={big_b}")
    return params
