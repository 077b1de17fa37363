"""Empirical Wasserstein distances, rate fitting, and a two-sample test.

Equal-size empirical measures only: the p-Wasserstein distance then reduces
to an optimal assignment on the cost matrix |x_i - y_j|^p, solved exactly by
shortest augmenting paths (with a provably optimal sorting fast path in one
dimension).  Any coupling of the two samples gives an upper bound; the paired
ensemble mean (E |x - y|^p)^(1/p) is the one used throughout.

The standard error of the exact value treats (x_i, y_i) as coupled pairs.
In one dimension it is a paired bootstrap, one sort per resample.  For
d >= 2 it comes from the dual potentials of the one assignment that gives
the value, so each call makes a single solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_noise import _rownorm

_ASSIGNMENT_CAP = 1024  # O(n^3) exact solve; keep instances desk-sized


class DegenerateFitError(ValueError):
    """Rate fit attempted on a series containing nonpositive values."""


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


def _wp_inputs(xs: np.ndarray, ys: np.ndarray,
               p: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) points of two equal-size samples, checked for the exact solve."""
    x = np.atleast_2d(np.asarray(xs, dtype=float))
    y = np.atleast_2d(np.asarray(ys, dtype=float))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sample points must be finite")
    if x.shape[0] < 1:
        raise ValueError("a sample needs at least one point")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"sample sizes differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] > _ASSIGNMENT_CAP:
        raise ValueError(f"sample size {x.shape[0]} exceeds the cap {_ASSIGNMENT_CAP}")
    require_order(p)
    return x, y


def _pairwise_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, m) matrix |a_i - b_j| of the rows of a (n, d) and b (m, d)."""
    return _rownorm(a[:, None, :] - b[None, :, :])


def _resample_pairs(n: int, rng: np.random.Generator,
                    n_boot: int) -> list[np.ndarray]:
    """Indices of ``n_boot`` resamples of the pairs (x_i, y_i): one index
    array for both sides, so a resample keeps each coupled pair together."""
    return [rng.integers(0, n, n) for _ in range(n_boot)]


def _sorted_wp(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Exact W_p of two one-dimensional samples: pair the order statistics,
    which is optimal for every convex cost."""
    return float((np.abs(np.sort(x[:, 0]) - np.sort(y[:, 0])) ** p).mean()
                 ** (1.0 / p))


def _assigned_wp(x: np.ndarray, y: np.ndarray,
                 p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact W_p by one assignment solve, with the cost matrix
    C = |x_i - y_j|^p and the optimal assignment sigma that gives it: row i
    is matched to column sigma[i]."""
    # imported here so that a d = 1 run never loads scipy
    from scipy.optimize import linear_sum_assignment

    cost = _pairwise_norms(x, y) ** p
    if not np.isfinite(cost).all():
        raise ValueError(f"|x - y|^{p:g} overflows for these samples")
    sigma = linear_sum_assignment(cost)[1]
    value = float(cost[np.arange(len(sigma)), sigma].mean() ** (1.0 / p))
    return value, cost, sigma


def _dual_potentials(cost: np.ndarray,
                     sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column potentials (u, v) of the optimal assignment sigma:
    u_i + v_j <= C_ij, with equality on the matched pairs (i, sigma[i]).

    v solves a shortest-path problem on the columns, where the edge
    sigma[i] -> j has length C_ij - C_{i,sigma[i]}.  Bellman-Ford starts at
    v = 0 and relaxes every edge per sweep until a sweep moves no v_j by
    more than rounding.  Without a negative cycle that takes at most n
    sweeps; a negative cycle means sigma is not optimal, and then every
    sweep moves some v_j, so the n-th one raises ValueError.
    """
    n = len(sigma)
    matched = cost[np.arange(n), sigma]
    reduced = cost - matched[:, None]
    # rounding of the edge lengths, summed along a path of at most n edges
    tol = n * np.spacing(cost.max())
    v = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(v, (v[sigma][:, None] + reduced).min(axis=0))
        moved = float((v - relaxed).max())
        v = relaxed
        if moved <= tol:
            return matched - v[sigma], v
    raise ValueError("the assignment is not optimal: its dual potentials "
                     f"still move after {n} Bellman-Ford sweeps")


def _dual_wp_stderr(cost: np.ndarray, sigma: np.ndarray, value: float,
                    p: float) -> float:
    """Standard error of the exact W_p ``value`` from the dual potentials
    (u, v) of its assignment.

    The linearisation of the optimal cost (del Barrio & Loubes 2019,
    Sommerfeld & Munk 2018) gives W_p^p = mean_i (u_i + v_i) to first order
    in the pairs (x_i, y_i), so se(W_p^p) = sd_i(u_i + v_i) / sqrt(n); the
    delta method carries it to W_p.  Taking u_i and v_i from one pair keeps
    the covariance of the coupled samples.
    """
    n = len(sigma)
    if n == 1:
        return 0.0
    u, v = _dual_potentials(cost, sigma)
    h = u + v
    # centred on h[0] so that equal contributions give exactly 0
    se_m = float(np.std(h - h[0], ddof=1) / math.sqrt(n))
    return se_m / (p * value ** (p - 1.0)) if value > 0.0 else 0.0


def exact_empirical_wp(xs: np.ndarray, ys: np.ndarray, p: float) -> float:
    """Exact W_p between the uniform empirical measures of two equal-size samples."""
    x, y = _wp_inputs(xs, ys, p)
    if x.shape[1] == 1:
        return _sorted_wp(x, y, p)
    return _assigned_wp(x, y, p)[0]


def exact_wp_with_stderr(xs: np.ndarray, ys: np.ndarray, p: float,
                         rng: np.random.Generator,
                         n_boot: int = 100) -> tuple[float, float]:
    """``exact_empirical_wp`` and its standard error from one core call.

    The samples are pairs: (x_i, y_i) come from one coupled path.  In one
    dimension the se is the paired bootstrap over ``n_boot`` resamples drawn
    from ``rng``, each solved by sorting.  For d >= 2 it is the dual plug-in
    of :func:`_dual_wp_stderr` on the one assignment that gives the value;
    ``rng`` and ``n_boot`` are then unused.
    """
    x, y = _wp_inputs(xs, ys, p)
    if x.shape[1] == 1:
        vals = [_sorted_wp(x[i], y[i], p)
                for i in _resample_pairs(x.shape[0], rng, n_boot)]
        return _sorted_wp(x, y, p), float(np.std(vals, ddof=1))
    value, cost, sigma = _assigned_wp(x, y, p)
    return value, _dual_wp_stderr(cost, sigma, value, p)


def bootstrap_wp_stderr(xs: np.ndarray, ys: np.ndarray, p: float,
                        rng: np.random.Generator, n_boot: int = 100) -> float:
    """The standard error of :func:`exact_wp_with_stderr`, alone.

    The name stays for the benchmark's traced replay, which calls it after
    ``exact_empirical_wp``, until that replay runs ``exact_wp_with_stderr``
    as the CLI does (ROADMAP item 7).  For d >= 2 it is the dual plug-in,
    not a bootstrap.
    """
    return exact_wp_with_stderr(xs, ys, p, rng, n_boot)[1]


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
