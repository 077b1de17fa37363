"""Empirical Wasserstein distances, rate fitting, and a two-sample test.

Equal-size empirical measures only: the p-Wasserstein distance then reduces
to an optimal assignment on the cost matrix |x_i - y_j|^p, solved exactly by
shortest augmenting paths (with a provably optimal sorting fast path in one
dimension).  Any coupling of the two samples gives an upper bound; the paired
ensemble mean (E |x - y|^p)^(1/p) is the one used throughout.

Both W_p columns carry one standard error, the delta method on per-pair
contributions h_i that treat (x_i, y_i) as coupled pairs: h_i = |x_i - y_i|^p
for the coupling bound, and h_i = u_i + v_i from the dual potentials of the
optimal pairing for the exact value.  Those potentials come from two scans
over the sorted samples in one dimension and from the one assignment that
gives the value for d >= 2, so the error bar draws no random numbers.
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
    """Coupling upper bound (mean |x_i - y_i|^p)^(1/p) with its standard error.

    The pairs realize one particular coupling of the two marginals, so the
    value dominates the true Wasserstein distance.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape != ys.shape or xs.shape[0] == 0:
        raise ValueError("need equally many x and y points")
    require_order(p)
    cost = _rownorm(xs - ys) ** p
    value = float(cost.mean()) ** (1.0 / p)
    return value, _wp_stderr(cost, value, p)


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


def _sorted_wp(x: np.ndarray, y: np.ndarray,
               p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact W_p of two one-dimensional samples, which pairs the order
    statistics (optimal for every convex cost), with the dual potentials
    (u, v) of that pairing: u_i belongs to x_i and v_j to y_j.

    On sorted samples C_ij = |x_i - y_j|^p is Monge for p >= 1, so a
    shortest path of :func:`_dual_potentials` never skips a column and
    never turns back (that would close a cycle, of nonnegative length at
    an optimum).  Its fixed point from v = 0 is then one scan up the
    adjacent columns and one scan down.
    """
    ix = np.argsort(x[:, 0], kind="stable")
    iy = np.argsort(y[:, 0], kind="stable")
    xs, ys = x[ix, 0], y[iy, 0]
    matched = np.abs(xs - ys) ** p
    value = float(matched.mean() ** (1.0 / p))
    up = np.cumsum(np.r_[0.0, np.abs(xs[:-1] - ys[1:]) ** p - matched[:-1]])
    down = np.cumsum(np.r_[0.0, np.abs(xs[1:] - ys[:-1]) ** p - matched[1:]])
    v_sorted = up - np.maximum.accumulate(up) + down
    v_sorted = np.minimum.accumulate(v_sorted[::-1])[::-1] - down
    u, v = np.empty_like(matched), np.empty_like(matched)
    u[ix], v[iy] = matched - v_sorted, v_sorted
    return value, u, v


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


def _wp_stderr(h: np.ndarray, value: float, p: float) -> float:
    """Standard error of a W_p ``value`` whose p-th power is mean_i h_i to
    first order in the pairs (x_i, y_i): se(W_p^p) = sd_i(h_i) / sqrt(n),
    carried to W_p by the delta method.

    For the coupling bound h_i = |x_i - y_i|^p.  For the exact value
    h_i = u_i + v_i from the dual potentials, the linearisation of the
    optimal cost (del Barrio & Loubes 2019, Sommerfeld & Munk 2018); taking
    u_i and v_i from one pair keeps the covariance of the coupled samples.
    """
    n = len(h)
    if n == 1 or value == 0.0:
        return 0.0
    # centred on h[0] so that equal contributions give exactly 0
    se_m = float(np.std(h - h[0], ddof=1) / math.sqrt(n))
    return se_m / (p * value ** (p - 1.0))


def exact_empirical_wp(xs: np.ndarray, ys: np.ndarray, p: float) -> float:
    """Exact W_p between the uniform empirical measures of two equal-size samples."""
    x, y = _wp_inputs(xs, ys, p)
    if x.shape[1] == 1:
        return _sorted_wp(x, y, p)[0]
    return _assigned_wp(x, y, p)[0]


def exact_wp_with_stderr(xs: np.ndarray, ys: np.ndarray,
                         p: float) -> tuple[float, float]:
    """``exact_empirical_wp`` and its standard error from one core call.

    The samples are pairs: (x_i, y_i) come from one coupled path.  The se is
    :func:`_wp_stderr` on the dual potentials of the optimal pairing.
    """
    x, y = _wp_inputs(xs, ys, p)
    if x.shape[1] == 1:
        value, u, v = _sorted_wp(x, y, p)
    else:
        value, cost, sigma = _assigned_wp(x, y, p)
        u, v = _dual_potentials(cost, sigma)
    return value, _wp_stderr(u + v, value, p)


def bootstrap_wp_stderr(xs: np.ndarray, ys: np.ndarray, p: float,
                        rng: np.random.Generator, n_boot: int = 100) -> float:
    """The standard error of :func:`exact_wp_with_stderr`, alone.

    The name and signature stay for the benchmark's traced replay, which
    calls it after ``exact_empirical_wp``; ``rng`` and ``n_boot`` are unused
    until that replay runs ``exact_wp_with_stderr`` as the CLI does (ROADMAP
    item 7).  It is the dual plug-in, not a bootstrap.
    """
    return exact_wp_with_stderr(xs, ys, p)[1]


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
