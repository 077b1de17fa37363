"""Isotropic alpha-stable noise: constants, jump decomposition, large jumps.

The driving noise is the rotationally invariant stable process on R^d whose
characteristic function is E exp(i<xi, Z_t>) = exp(-t |xi|^alpha) and whose
jump measure is c_dalpha |z|^(-d-alpha) dz.  This module provides

- the normalization constant ``levy_constant`` tying the jump measure to that
  characteristic function, and the unit-sphere surface measure,
- the compound-Poisson (above a threshold) / Gaussian-proxy (below it)
  decomposition used by the coupled simulator, and its draw of the jumps
  above the threshold.

The exact increment sampler, the reference law the tests compare the
simulator against, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .records import record


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
        - math.lgamma(1.0 + alpha / 2.0)
    )
    log_c = (
        alpha * math.log(2.0)
        + math.lgamma((d + alpha) / 2.0)
        - 0.5 * d * math.log(math.pi)
        - log_abs_gamma_neg_half
    )
    return float(math.exp(log_c))


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    return float(2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0))


@record
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


@record
class JumpDecomposition:
    """Split of the jump measure at radius ``delta``.

    ``rate_above`` is the total mass above the threshold (the compound-Poisson
    intensity); ``small_var_per_coord`` the per-coordinate second moment of
    the jumps at or below it (the variance rate of the Gaussian proxy).
    """

    rate_above: float
    small_var_per_coord: float


def decompose(spec: StableSpec, delta: float) -> JumpDecomposition:
    """Decompose the jump measure at truncation radius 0 < ``delta`` < inf.

    rate_above = (c_dalpha omega_d / alpha) delta^(-alpha) and
    small_var_per_coord = (c_dalpha omega_d / (d (2-alpha))) delta^(2-alpha);
    the coupled simulator splits at ``delta_floor`` once and takes the
    reflected band's variance per path from :func:`_small_var_per_coord`.
    """
    if not 0.0 < delta < math.inf:  # a nan fails this too
        raise ValueError(f"delta must be positive and finite, got {delta}")
    arr = np.asarray(delta, dtype=float)
    a = spec.alpha
    rate = spec.c_dalpha * spec.omega_d / a * arr ** (-a)
    var = _small_var_per_coord(spec, arr)
    return JumpDecomposition(rate_above=float(rate),
                             small_var_per_coord=float(var))


def _small_var_per_coord(spec: StableSpec, delta: np.ndarray) -> np.ndarray:
    """``small_var_per_coord`` of :func:`decompose` at radii delta > 0, unchecked."""
    a = spec.alpha
    return spec.c_dalpha * spec.omega_d / (spec.d * (2.0 - a)) * delta ** (2.0 - a)


def pareto_radius(delta: float, alpha: float, u):
    """Inverse tail CDF of the jump radius: P(R > s) = (delta/s)^alpha.

    ``u`` in (0, 1]; u = 1 maps to the support boundary ``delta``.
    """
    return delta * np.asarray(u, dtype=float) ** (-1.0 / alpha)


def _rownorm(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis.

    On the line it is |v|, one ufunc; that is bitwise ``linalg.norm``'s
    sqrt(v v) for v = +-0 and for 2^-511 <= |v| < 2^512, and exact (with no
    underflow to 0 or overflow to inf, and so no warning) outside that range;
    nan stays nan.  For d >= 2 it is the arithmetic of numpy's
    ``linalg.norm(v, axis=-1)``, so bitwise equal to it (for a C-ordered v),
    without its per-call dispatch.  numpy sums an axis shorter than 8 in
    order, so there the array is squared once and its squared columns are
    added in order: a few whole-array operations instead of one short
    reduction per row.  A longer axis is summed pairwise along each row, so
    its squares are taken in C order whatever the layout of v.
    """
    d = v.shape[-1]
    if d == 1:
        return np.abs(v if keepdims else v[..., 0])
    if d >= 8:
        return np.sqrt(np.add.reduce(np.multiply(v, v, order="C"), axis=-1,
                                     keepdims=keepdims))
    sq = v * v
    s = sq[..., 0] + sq[..., 1]
    for k in range(2, d):
        s += sq[..., k]
    s = np.sqrt(s)
    return s[..., None] if keepdims else s


def _unit_directions(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n directions uniform on the unit sphere of R^d (normalized Gaussians)."""
    g = rng.standard_normal((n, d))
    norm = _rownorm(g, keepdims=True)
    # a zero draw has probability 0; guard anyway
    norm[norm == 0.0] = 1.0
    g /= norm
    return g


def _large_jumps(delta: float, alpha: float, d: int, n: int,
                 radius_rng: np.random.Generator,
                 direction_rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """n jumps above the radius ``delta``: (radii, jumps (n, d)).

    Radius by Pareto inverse CDF from ``radius_rng``, then a direction
    uniform on the sphere from ``direction_rng``: on the line a uniform sign,
    one uniform per jump.  Each jump takes one row of each stream, so n + m
    jumps drawn at once are the n jumps and then the m jumps drawn in turn.
    """
    # 1 - U lies in (0, 1], avoiding the zero that would blow the inverse CDF
    radius = pareto_radius(delta, alpha, 1.0 - radius_rng.random(n))
    if d == 1:
        # U < 1/2 holds for exactly half of the sampler's 2^53 values
        return radius, np.where(direction_rng.random(n) < 0.5, -radius,
                                radius)[:, None]
    return radius, radius[:, None] * _unit_directions(d, n, direction_rng)
