"""Empirical Wasserstein distances, rate fitting, and a two-sample test.

Equal-size empirical measures only: the p-Wasserstein distance then reduces
to an optimal assignment on the cost matrix |x_i - y_j|^p, solved exactly by
shortest augmenting paths (with a provably optimal sorting fast path in one
dimension).  Any coupling of the two samples gives an upper bound; the paired
ensemble mean (E |x - y|^p)^(1/p) is the one used throughout.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .coupling_engine import read_path_table
from .stable_noise import _rownorm

_ASSIGNMENT_CAP = 1024  # O(n^3) exact solve; keep instances desk-sized


class DegenerateFitError(ValueError):
    """Rate fit attempted on a series containing nonpositive values."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A finite sample treated as a uniform empirical measure."""

    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not np.isfinite(pts).all():
            raise ValueError("empirical measure points must be finite")
        if pts.shape[0] < 1:
            raise ValueError("empirical measure needs at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def require_order(p: float) -> None:
    """Raise ValueError unless the Wasserstein order p lies in [1, inf)."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")


def coupling_wp_upper(xs: np.ndarray, ys: np.ndarray, p: float) -> tuple[float, float]:
    """Coupling upper bound (mean |x_i - y_i|^p)^(1/p) with delta-method stderr.

    The pairs realize one particular coupling of the two marginals, so the
    value dominates the true Wasserstein distance.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape != ys.shape or xs.shape[0] == 0:
        raise ValueError("need equally many x and y points")
    require_order(p)
    cost = _rownorm(xs - ys) ** p
    m = float(cost.mean())
    n = len(cost)
    se_m = float(cost.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    value = m ** (1.0 / p)
    stderr = se_m / p * m ** (1.0 / p - 1.0) if m > 0.0 else 0.0
    return value, stderr


def _wp_inputs(mu: EmpiricalMeasure | np.ndarray,
               nu: EmpiricalMeasure | np.ndarray,
               p: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) points of two equal-size measures, checked for the exact solve."""
    if not isinstance(mu, EmpiricalMeasure):
        mu = EmpiricalMeasure(mu)
    if not isinstance(nu, EmpiricalMeasure):
        nu = EmpiricalMeasure(nu)
    if mu.n != nu.n:
        raise ValueError(f"sample sizes differ: {mu.n} vs {nu.n}")
    if mu.n > _ASSIGNMENT_CAP:
        raise ValueError(f"sample size {mu.n} exceeds the cap {_ASSIGNMENT_CAP}")
    require_order(p)
    return mu.points, nu.points


def _pairwise_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, m) matrix |a_i - b_j| of the rows of a (n, d) and b (m, d)."""
    return _rownorm(a[:, None, :] - b[None, :, :])


def _pool_size(n_tasks: int) -> int:
    """One worker per CPU this process may run on, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _exact_wps(x: np.ndarray, y: np.ndarray, p: float,
               pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """Exact W_p of ``x[ix]`` against ``y[iy]`` for each (ix, iy) in ``pairs``.

    One dimension: sort both samples and pair order statistics (optimal for
    every convex cost).  Otherwise: one |x_i - y_j|^p matrix for all pairs,
    each pair's assignment solved on its rows ix and columns iy, the entries
    a fresh build would give.  scipy's solver releases the GIL, so the solves
    run on a thread pool; results come back in the order of ``pairs``, so the
    values do not depend on the worker count.
    """
    if x.shape[1] == 1:
        matched = [np.abs(np.sort(x[ix, 0]) - np.sort(y[iy, 0])) ** p
                   for ix, iy in pairs]
    else:
        cost = _pairwise_norms(x, y) ** p

        def match(pair):
            sub = cost[np.ix_(*pair)]
            return sub[linear_sum_assignment(sub)]

        with ThreadPoolExecutor(max_workers=_pool_size(len(pairs))) as pool:
            matched = list(pool.map(match, pairs))
    return [float(c.mean() ** (1.0 / p)) for c in matched]


def _resample_pairs(n: int, rng: np.random.Generator,
                    n_boot: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of ``n_boot`` paired resamples, x before y."""
    return [(rng.integers(0, n, n), rng.integers(0, n, n)) for _ in range(n_boot)]


def exact_empirical_wp(mu: EmpiricalMeasure | np.ndarray,
                       nu: EmpiricalMeasure | np.ndarray, p: float) -> float:
    """Exact W_p between equal-size empirical measures."""
    x, y = _wp_inputs(mu, nu, p)
    identity = np.arange(x.shape[0])
    return _exact_wps(x, y, p, [(identity, identity)])[0]


def bootstrap_wp_stderr(xs: np.ndarray, ys: np.ndarray, p: float,
                        rng: np.random.Generator, n_boot: int = 100) -> float:
    """Bootstrap standard error of the exact empirical W_p (resample pairs)."""
    x, y = _wp_inputs(xs, ys, p)
    vals = _exact_wps(x, y, p, _resample_pairs(x.shape[0], rng, n_boot))
    return float(np.std(vals, ddof=1))


def exact_wp_with_stderr(xs: np.ndarray, ys: np.ndarray, p: float,
                         rng: np.random.Generator,
                         n_boot: int = 100) -> tuple[float, float]:
    """``(exact_empirical_wp, bootstrap_wp_stderr)`` from one core call.

    The exact solve and the resamples share one build of |x_i - y_j|^p and
    one pool; the bits equal the two separate calls.
    """
    x, y = _wp_inputs(xs, ys, p)
    identity = np.arange(x.shape[0])
    vals = _exact_wps(x, y, p, [(identity, identity)]
                      + _resample_pairs(x.shape[0], rng, n_boot))
    return vals[0], float(np.std(vals[1:], ddof=1))


@dataclass(frozen=True)
class RateFit:
    lambda_hat: float
    intercept: float
    r_squared: float
    lambda_stderr: float


def contraction_rate_fit(times, values, stderrs=None) -> RateFit:
    """Weighted least squares of log(value) against t; returns the decay rate.

    Weights come from relative standard errors via the delta method
    (se(log v) = se/v), floored to avoid infinite weight on exact points.
    Raises :class:`DegenerateFitError` on nonpositive values; truncate the
    series at the last positive entry before calling.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if np.any(v <= 0.0):
        raise DegenerateFitError("values must be positive to fit log-decay")
    if stderrs is None:
        se_log = np.full_like(v, 1e-9)
    else:
        se_log = np.asarray(stderrs, dtype=float) / v
    se_log = np.maximum(se_log, 1e-9)
    w = 1.0 / se_log ** 2
    ly = np.log(v)

    sw = w.sum()
    tbar = (w * t).sum() / sw
    ybar = (w * ly).sum() / sw
    stt = (w * (t - tbar) ** 2).sum()
    slope = (w * (t - tbar) * (ly - ybar)).sum() / stt
    intercept = ybar - slope * tbar
    resid = ly - (intercept + slope * t)
    sse = (w * resid ** 2).sum()
    sst = (w * (ly - ybar) ** 2).sum()
    r2 = 1.0 - sse / sst if sst > 0.0 else 1.0
    dof = max(len(t) - 2, 1)
    slope_var = (sse / dof) / stt
    return RateFit(lambda_hat=float(-slope), intercept=float(intercept),
                   r_squared=float(r2), lambda_stderr=float(math.sqrt(slope_var)))


def upper_series_from_paths_csv(path, p: float):
    """Coupling upper bound per grid time from the per-path CSV schema.

    Accepts the stable (path_id, t, r, psi_r, merged) schema written by the
    coupling engine; the paired separations r are all the upper bound needs.
    Returns (times, values, stderrs).
    """
    times, cols = read_path_table(path)
    r = cols[:, :, 0]
    n, T = r.shape
    # the pair (r, 0) on the line has separation r
    origin = np.zeros((n, 1))
    values, stderrs = np.array([coupling_wp_upper(r[:, k:k + 1], origin, p)
                                for k in range(T)]).T
    return times, values, stderrs


# ---------------------------------------------------------------------------
# Energy distance two-sample test
# ---------------------------------------------------------------------------


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

    def stat_for(idx_a):
        mask = np.zeros(n + m, dtype=bool)
        mask[idx_a] = True
        daa = dmat[np.ix_(mask, mask)].mean()
        dbb = dmat[np.ix_(~mask, ~mask)].mean()
        dab = dmat[np.ix_(mask, ~mask)].mean()
        return 2.0 * dab - daa - dbb

    observed = stat_for(np.arange(n))
    count = 0
    for _ in range(n_perm):
        idx = rng.permutation(n + m)[:n]
        if stat_for(idx) >= observed:
            count += 1
    p_value = (1.0 + count) / (1.0 + n_perm)
    return float(observed), float(p_value)
