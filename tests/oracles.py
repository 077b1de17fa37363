"""Test oracles: reference functions that only the tests call.

- ``energy_distance`` and ``energy_distance_test``: the energy-distance
  two-sample test, which compares the laws of two samples.  The acceptance
  suite runs it on the coupled jumps' mirror images (criterion 3), and
  ``test_wasserstein_metrics.py`` checks it on its own.
- ``sample_increment``: the exact stable increment by Gaussian
  subordination, the reference law of the samplers and of the simulated
  marginals (criterion 2, ``test_stable_noise.py``, the engine's marginal
  check and the d = 1 W_p of stable samples).
- ``sample_truncated_jump``: the jump measure restricted to an annulus, the
  input of the mirror-invariance check (criterion 3); ``test_stable_noise.py``
  checks its law.
- ``verify_dissipativity``: a probe of the two-regime drift condition on
  random pairs, which checks each drift's claimed (K2, theta)
  (``test_drift_models.py``).
"""

import math
from dataclasses import dataclass

import numpy as np

from stablecouple.drift_models import DriftCondition, DriftField
from stablecouple.stable_noise import StableSpec, _rownorm, _unit_directions
from stablecouple.wasserstein_metrics import _pairwise_norms


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| between two samples."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return float(2.0 * _pairwise_norms(x, y).mean() - _pairwise_norms(x, x).mean()
                 - _pairwise_norms(y, y).mean())


def energy_distance_test(x: np.ndarray, y: np.ndarray,
                         rng: np.random.Generator, n_perm: int = 199,
                         max_n: int = 1024) -> tuple[float, float]:
    """Permutation two-sample test based on the energy distance.

    Returns (statistic, p-value).  Samples larger than ``max_n`` per group
    are subsampled (seeded) before the O(n^2) permutation calibration; the
    test stays exact at its level on the subsample.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] > max_n:
        x = x[rng.choice(x.shape[0], max_n, replace=False)]
    if y.shape[0] > max_n:
        y = y[rng.choice(y.shape[0], max_n, replace=False)]
    n, m = x.shape[0], y.shape[0]
    pooled = np.vstack([x, y])
    dmat = _pairwise_norms(pooled, pooled)
    # column k marks group a of labelling k: the observed one, then the
    # permutations; the block sums of D follow from m'Dm, 1'Dm and 1'D1
    marks = np.zeros((n + m, 1 + n_perm))
    marks[:n, 0] = 1.0
    for k in range(1, 1 + n_perm):
        marks[rng.permutation(n + m)[:n], k] = 1.0
    dm = dmat @ marks
    aa = np.einsum("ik,ik->k", marks, dm)
    ab = dm.sum(axis=0) - aa
    bb = dmat.sum() - 2.0 * ab - aa
    stat = 2.0 * ab / (n * m) - aa / (n * n) - bb / (m * m)
    p_value = (1.0 + np.count_nonzero(stat[1:] >= stat[0])) / (1.0 + n_perm)
    return float(stat[0]), float(p_value)


def sample_truncated_jump(spec: StableSpec, lo: float, hi: float,
                          rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample from the jump measure conditioned on lo < |z| <= hi.

    Radius inverse-CDF on the annulus, then a uniform direction.
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


@dataclass(frozen=True)
class DissipativityReport:
    """Outcome of :func:`verify_dissipativity`."""

    n_probes: int
    violations: int
    worst_margin: float
    witness_x: np.ndarray | None
    witness_y: np.ndarray | None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _uniform_ball(d: int, n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    g = _unit_directions(d, n, rng)
    return radius * (rng.random(n) ** (1.0 / d))[:, None] * g


def verify_dissipativity(field: DriftField, cond: DriftCondition,
                         n_probes: int, radius: float,
                         rng: np.random.Generator,
                         band_fraction: float = 0.2) -> DissipativityReport:
    """Probe the two-regime condition on random pairs in a ball.

    A ``band_fraction`` share of the probes is stratified so that
    |x - y| lies in [0.9 L0, 1.1 L0], stressing the regime switch.  A pair is
    a violation when <b(x)-b(y), x-y> exceeds the regime bound by more than a
    relative rounding tolerance; the report carries the worst margin
    (positive = violated) and the witnessing pair.
    """
    if n_probes < 1 or radius <= 0:
        raise ValueError("need n_probes >= 1 and radius > 0")
    d = field.d
    n_band = int(band_fraction * n_probes)
    n_unif = n_probes - n_band

    xs = _uniform_ball(d, n_unif, radius, rng)
    ys = _uniform_ball(d, n_unif, radius, rng)
    if n_band > 0:
        xb = _uniform_ball(d, n_band, radius, rng)
        u = _unit_directions(d, n_band, rng)
        sep = cond.l0 * rng.uniform(0.9, 1.1, n_band)
        yb = xb + sep[:, None] * u
        xs = np.vstack([xs, xb])
        ys = np.vstack([ys, yb])

    diff = xs - ys
    r = _rownorm(diff)
    keep = r > 0
    xs, ys, diff, r = xs[keep], ys[keep], diff[keep], r[keep]

    lhs = np.einsum("ij,ij->i", field.evaluate(xs) - field.evaluate(ys), diff)
    rhs = np.where(r <= cond.l0, cond.k1 * r ** 2, -cond.k2 * r ** cond.theta)
    margin = lhs - rhs
    tol = 1e-12 * (1.0 + np.abs(lhs) + np.abs(rhs))
    bad = margin > tol

    worst = int(np.argmax(margin))
    return DissipativityReport(
        n_probes=len(r),
        violations=int(bad.sum()),
        worst_margin=float(margin[worst]),
        witness_x=xs[worst].copy(),
        witness_y=ys[worst].copy(),
    )
