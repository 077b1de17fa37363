"""Drift fields, their claimed dissipativity, and the small-alpha gate.

A drift is admissible when <b(x)-b(y), x-y> is at most K1 |x-y|^2 for
|x-y| <= L0 and at most -K2 |x-y|^theta beyond L0.  Each built-in drift
carries the (K2, theta) its docstring proves; the empirical probe of the
condition is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .stable_noise import StableSpec, _rownorm


@dataclass(frozen=True)
class DriftCondition:
    """Constants (K1, K2, L0, theta) of the two-regime drift condition."""

    k1: float
    k2: float
    l0: float
    theta: float

    def __post_init__(self):
        for name in ("k1", "k2", "l0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 2.0 <= self.theta < math.inf:
            raise ValueError(f"theta must lie in [2, inf), got {self.theta}")

    @property
    def hitting_cap(self) -> float | None:
        """t0 = L0^(2-theta) / (K2 (theta-2)), None unless theta > 2.

        Under dr <= -K2 r^(theta-1) the separation falls to L0 by t0 from any
        starting point.
        """
        if self.theta <= 2.0:
            return None
        return self.l0 ** (2.0 - self.theta) / (self.k2 * (self.theta - 2.0))


@dataclass(frozen=True)
class DriftField:
    """A drift b: R^d -> R^d with an optional claimed dissipativity condition.

    ``evaluate`` accepts a single point of shape (d,) or a batch (n, d) and
    returns the same shape.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    d: int
    label: str
    claimed_condition: DriftCondition | None = None


def linear_drift(kappa: float, d: int) -> DriftField:
    """b(x) = -kappa x; uniformly dissipative with rate kappa."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return DriftField(evaluate=lambda x: -kappa * x, d=int(d),
                      label=f"linear(kappa={kappa})",
                      claimed_condition=DriftCondition(k1=kappa, k2=kappa,
                                                       l0=1.0, theta=2.0))


def monomial_drift(c: float, q: float, d: int) -> DriftField:
    """b(x) = -c |x|^q x for c > 0, q >= 0.

    Claims K2 = c 2^(-q) and theta = q + 2.  Proof: the p-Laplacian
    inequality <|x|^(p-2) x - |y|^(p-2) y, x - y> >= 2^(2-p) |x - y|^p
    (p >= 2), at p = q + 2, gives <b(x)-b(y), x-y> <= -c 2^(-q) |x-y|^(q+2).
    It is an equality at y = -x, so no larger K2 holds.  The bound holds at
    every separation and b is monotone, so the two-regime condition holds
    for any K1, L0 > 0 (the claim carries the placeholders 1).
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must lie in [0, inf), got {q}")

    # the row norm, chosen once: on the line it is |x|, the bits of _rownorm
    norm = np.abs if d == 1 else partial(_rownorm, keepdims=True)
    if q == 1.0:  # r ** 1 is r: skip the pass
        def b(x):
            return -c * norm(x) * x
    else:
        def b(x):
            return -c * norm(x) ** q * x

    cond = DriftCondition(k1=1.0, k2=c * 2.0 ** -q, l0=1.0, theta=q + 2.0)
    return DriftField(evaluate=b, d=int(d), label=f"monomial(c={c},q={q})",
                      claimed_condition=cond)


def power_potential_drift(beta: float, d: int) -> DriftField:
    """Gradient drift of the super-convex potential -|x|^(2 beta), beta > 1.

    b(x) = -2 beta |x|^(2 beta - 2) x, the monomial drift with c = 2 beta
    and q = 2 beta - 2, whose claim it takes: K2 = beta 2^(3 - 2 beta) and
    theta = 2 beta, with any positive K1, L0.
    """
    if not 1.0 < beta < math.inf:
        raise ValueError(f"beta must exceed 1 and be finite, got {beta}")
    return replace(monomial_drift(2.0 * beta, 2.0 * beta - 2.0, d),
                   label=f"power_potential(beta={beta})")


def drift_from_label(label: str, d: int, **params) -> DriftField:
    """Resolve a drift by registry label.

    Labels: ``linear`` (kappa), ``power_potential`` (beta), ``monomial``
    (c, q).  Each claims its own (K2, theta); its claimed K1 and L0 are
    placeholders that the caller replaces with its own choice.
    """
    if label == "linear":
        return linear_drift(params.get("kappa", 1.0), d)
    if label == "power_potential":
        return power_potential_drift(params.get("beta", 1.5), d)
    if label == "monomial":
        return monomial_drift(params.get("c", 1.0), params.get("q", 1.0), d)
    raise ValueError(f"unknown drift label {label!r}")


@dataclass(frozen=True)
class GateResult:
    """Outcome of the small-alpha admissibility gate."""

    passed: bool
    margin: float


def check_small_alpha_gate(spec: StableSpec, cond: DriftCondition) -> GateResult:
    """Check the small-alpha condition required for alpha in (0, 1].

    Evaluates alpha c_dalpha omega_d 3^(alpha-1) / (8 (2-alpha) d)
    minus K1 L0^alpha.  For alpha in (1, 2) the gate is vacuous and the
    margin infinite.
    """
    a = spec.alpha
    if a > 1.0:
        return GateResult(passed=True, margin=float("inf"))
    lhs = (a * spec.c_dalpha * spec.omega_d * 3.0 ** (a - 1.0)
           / (8.0 * (2.0 - a) * spec.d))
    margin = lhs - cond.k1 * cond.l0 ** a
    return GateResult(passed=bool(margin > 0.0), margin=float(margin))
