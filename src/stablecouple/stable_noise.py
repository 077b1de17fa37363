"""Isotropic alpha-stable noise: constants, samplers, jump decomposition.

The driving noise is the rotationally invariant stable process on R^d whose
characteristic function is E exp(i<xi, Z_t>) = exp(-t |xi|^alpha) and whose
jump measure is c_dalpha |z|^(-d-alpha) dz.  This module provides

- the normalization constant ``levy_constant`` tying the jump measure to that
  characteristic function, and the unit-sphere surface measure,
- exact increment sampling by Gaussian subordination,
- the compound-Poisson (above a threshold) / Gaussian-proxy (below it)
  decomposition used by the coupled simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


def levy_constant(d: int, alpha: float) -> float:
    """Normalization c_dalpha = 2^a Gamma((d+a)/2) pi^(-d/2) / |Gamma(-a/2)|.

    Evaluated through log-gamma; |Gamma(-a/2)| is rewritten with the
    reflection formula as pi / (sin(pi a / 2) Gamma(1 + a/2)) so only
    positive-argument log-gammas appear.  alpha = 2 hits the Gamma(-1) pole
    and is rejected along with everything outside (0, 2).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    log_abs_gamma_neg_half = (
        math.log(math.pi)
        - math.log(math.sin(math.pi * alpha / 2.0))
        - special.gammaln(1.0 + alpha / 2.0)
    )
    log_c = (
        alpha * math.log(2.0)
        + special.gammaln((d + alpha) / 2.0)
        - 0.5 * d * math.log(math.pi)
        - log_abs_gamma_neg_half
    )
    return float(math.exp(log_c))


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    return float(2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0))


@dataclass(frozen=True)
class StableSpec:
    """Dimension, stability index and the derived noise constants."""

    d: int
    alpha: float
    c_dalpha: float
    omega_d: float


def isotropic_stable(d: int, alpha: float) -> StableSpec:
    """Build the :class:`StableSpec` for dimension ``d`` and index ``alpha``."""
    return StableSpec(d=int(d), alpha=float(alpha),
                      c_dalpha=levy_constant(d, alpha),
                      omega_d=sphere_surface(d))


@dataclass(frozen=True)
class JumpDecomposition:
    """Split of the jump measure at radius ``delta`` (a float or an array).

    ``rate_above`` is the total mass above the threshold (the compound-Poisson
    intensity); ``small_var_per_coord`` the per-coordinate second moment of
    the jumps at or below it (the variance rate of the Gaussian proxy).  Both
    have the shape of ``delta``.
    """

    spec: StableSpec
    delta: float | np.ndarray
    rate_above: float | np.ndarray
    small_var_per_coord: float | np.ndarray


def decompose(spec: StableSpec, delta) -> JumpDecomposition:
    """Decompose the jump measure at truncation radius ``delta`` > 0.

    rate_above = (c_dalpha omega_d / alpha) delta^(-alpha) and
    small_var_per_coord = (c_dalpha omega_d / (d (2-alpha))) delta^(2-alpha);
    the coupled simulator takes both per path from one array call.
    """
    arr = np.asarray(delta, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    d, a = spec.d, spec.alpha
    rate = spec.c_dalpha * spec.omega_d / a * arr ** (-a)
    var = spec.c_dalpha * spec.omega_d / (d * (2.0 - a)) * arr ** (2.0 - a)
    if arr.ndim == 0:
        return JumpDecomposition(spec=spec, delta=float(arr),
                                 rate_above=float(rate),
                                 small_var_per_coord=float(var))
    return JumpDecomposition(spec=spec, delta=arr, rate_above=rate,
                             small_var_per_coord=var)


def pareto_radius(delta: float, alpha: float, u):
    """Inverse tail CDF of the jump radius: P(R > s) = (delta/s)^alpha.

    ``u`` in (0, 1]; u = 1 maps to the support boundary ``delta``.
    """
    return delta * np.asarray(u, dtype=float) ** (-1.0 / alpha)


def _rownorm(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis.

    The arithmetic of numpy's ``linalg.norm(v, axis=-1)``, so bitwise equal to it
    in every dimension, without its per-call dispatch.
    """
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


def _unit_directions(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n directions uniform on the unit sphere of R^d (normalized Gaussians)."""
    g = rng.standard_normal((n, d))
    norm = _rownorm(g, keepdims=True)
    # a zero draw has probability 0; guard anyway
    norm[norm == 0.0] = 1.0
    g /= norm
    return g


def _large_jumps(delta, alpha: float, d: int, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n jumps above ``delta`` (scalar or per jump): (radii, jumps (n, d)).

    Radius by Pareto inverse CDF, then direction uniform on the sphere.
    """
    # 1 - U lies in (0, 1], avoiding the zero that would blow the inverse CDF
    radius = pareto_radius(delta, alpha, 1.0 - rng.random(n))
    return radius, radius[:, None] * _unit_directions(d, n, rng)


def sample_large_jump(decomp: JumpDecomposition, rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray:
    """Sample jumps from the measure restricted to |z| > delta.

    Returns shape (d,) for ``size=None``, else (size, d).
    """
    n = 1 if size is None else int(size)
    _, z = _large_jumps(decomp.delta, decomp.spec.alpha, decomp.spec.d, n, rng)
    return z[0] if size is None else z


def sample_truncated_jump(spec: StableSpec, lo: float, hi: float,
                          rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample from the jump measure conditioned on lo < |z| <= hi.

    Radius inverse-CDF on the annulus; used by the measure-invariance tests.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    a = spec.alpha
    u = rng.random(size)
    radius = (lo ** (-a) - u * (lo ** (-a) - hi ** (-a))) ** (-1.0 / a)
    return radius[:, None] * _unit_directions(spec.d, size, rng)


def _positive_stable(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive stable variables with Laplace transform exp(-u^rho), rho in (0,1).

    Kanter's representation: S = (A(U)/E)^((1-rho)/rho) with U uniform on
    (0, pi), E unit exponential and
    A(u) = sin(rho u)^(rho/(1-rho)) sin((1-rho) u) / sin(u)^(1/(1-rho)).
    """
    u = rng.uniform(0.0, math.pi, n)
    e = rng.standard_exponential(n)
    a = (np.sin(rho * u) ** (rho / (1.0 - rho)) * np.sin((1.0 - rho) * u)
         / np.sin(u) ** (1.0 / (1.0 - rho)))
    return (a / e) ** ((1.0 - rho) / rho)


def sample_increment(spec: StableSpec, t: float, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray:
    """Exact increment Z_t with characteristic function exp(-t |xi|^alpha).

    Gaussian subordination: Z = sqrt(2 S) N with N standard d-dimensional
    Gaussian and S positive (alpha/2)-stable with Laplace transform
    exp(-t u^(alpha/2)); then E exp(i<xi,Z>) = E exp(-S |xi|^2)
    = exp(-t |xi|^alpha).
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    n = 1 if size is None else int(size)
    rho = spec.alpha / 2.0
    s = t ** (1.0 / rho) * _positive_stable(rho, n, rng)
    z = np.sqrt(2.0 * s)[:, None] * rng.standard_normal((n, spec.d))
    return z[0] if size is None else z
