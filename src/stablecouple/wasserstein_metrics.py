"""Empirical Wasserstein distances and rate fitting.

Equal-size empirical measures only: the p-Wasserstein distance then reduces
to an optimal assignment on the cost matrix |x_i - y_j|^p.  In one dimension
sorting both samples solves it; for d >= 2 the module's own numpy solver
does (an epsilon-scaling auction whose prices are raised until almost every
row sits exactly on a cheapest column, finished by shortest augmenting paths
for the few rows left), so no run imports scipy.  Any coupling of the two
samples gives an upper bound; the paired ensemble mean (E |x - y|^p)^(1/p)
is the one used throughout.

Both W_p columns carry one standard error, the delta method on per-pair
contributions h_i that treat (x_i, y_i) as coupled pairs: h_i = |x_i - y_i|^p
for the coupling bound, and h_i = u_i + v_i from the dual potentials of the
optimal pairing for the exact value.  Those potentials come from two scans
over the sorted samples in one dimension and, for d >= 2, from the one
assignment that gives the value and the same shortest-path search that
finished it (no search when the coupled pairing is optimal as it stands),
so the error bar draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_noise import _rownorm

_ASSIGNMENT_CAP = 1024  # O(n^3) exact solve; keep instances desk-sized
_EPS_DIV = 8.0  # the auction's epsilon shrinks by this factor per phase
_EPS_END = 1e-4  # the last phase's epsilon, relative to max C / n
_FREE_END = 16  # a phase ends with at most this many rows free
_RAISE_SWEEPS = 16  # price raises that tighten the auction before its finish


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
    """The (n, m) matrix |a_i - b_j| of the rows of a (n, d) and b (m, d),
    bitwise ``np.linalg.norm`` of the (n, m, d) differences.

    The differences are laid out one coordinate plane at a time, (d, n, m),
    so each plane is one contiguous subtraction.  For d < 8 the planes are
    squared in place and added in order, as :func:`_rownorm` adds columns;
    squaring a fresh copy instead would hold d more planes at the peak.
    From d = 8 on :func:`_rownorm` sums each row pairwise, as numpy does.
    """
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    diff = at[:, :, None] - bt[:, None, :]
    if len(diff) >= 8:
        return _rownorm(np.moveaxis(diff, 0, -1))
    np.multiply(diff, diff, out=diff)
    total = diff[0]
    for plane in diff[1:]:
        total += plane
    return np.sqrt(total)


def _sorted_wp(x: np.ndarray, y: np.ndarray,
               p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact W_p of two one-dimensional samples, which pairs the order
    statistics (optimal for every convex cost), with the dual potentials
    (u, v) of that pairing: u_i belongs to x_i and v_j to y_j.

    On sorted samples C_ij = |x_i - y_j|^p is Monge for p >= 1, so a
    shortest path of :func:`_dual_potentials` never skips a column and
    never turns back (that would close a cycle, of nonnegative length at
    an optimum).  Its shortest distances from the source are then one scan
    up the adjacent columns and one scan down.
    """
    ix = np.argsort(x[:, 0], kind="stable")
    iy = np.argsort(y[:, 0], kind="stable")
    xs, ys = x[ix, 0], y[iy, 0]
    _power(np.abs([xs[-1] - ys[0], ys[-1] - xs[0]]), p)  # the two largest costs
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
    """Exact W_p by one assignment solve on C = |x_i - y_j|^p, with the
    dual potentials (u, v) of the optimal assignment.  When the coupled
    pairing is optimal as it stands (the t = 0 point masses, or every pair
    merged), those are the diagonal costs and 0, and take no search."""
    cost = _power(_pairwise_norms(x, y), p)
    sigma, v = _assignment(cost)
    value = float(cost[np.arange(len(sigma)), sigma].mean() ** (1.0 / p))
    return (value, *_dual_potentials(cost, sigma, v))


def _power(dist: np.ndarray, p: float) -> np.ndarray:
    """The costs dist^p of pairs at distances dist, or ValueError when one
    of them overflows: the exact solves need every cost finite."""
    with np.errstate(over="ignore"):
        cost = dist ** p
    if not np.isfinite(cost).all():
        raise ValueError(f"|x - y|^{p:g} overflows for these samples")
    return cost


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """An optimal assignment sigma of the square cost matrix (row i goes to
    column sigma[i]) and column potentials v that keep every row on a
    cheapest column.

    Rows start on the diagonal, the pairing the coupled samples come with;
    when every diagonal entry is its row's minimum, that pairing is optimal
    as it stands, and v is None: no price is needed, and the potentials are
    the diagonal and 0 (:func:`_dual_potentials`).  Otherwise a Jacobi
    auction with epsilon-scaling (Bertsekas 1988) places all but a few
    rows.  v starts at the column minima; a row's price for column j is
    C_ij - v_j.  Between phases, rows whose column is no longer within
    epsilon of their cheapest are released.  A winning bid leaves its row
    epsilon above its cheapest column, so before the finish each placed
    row's column is raised by the row's slack.  A raise makes that column
    cheaper for every other row too, so the raises repeat, checking only
    the columns raised last, for at most ``_RAISE_SWEEPS`` sweeps.  The
    raised columns mostly thin out fast, but need not: a few columns can be
    raised in turn without end, in a cycle of a few sweeps, and then only
    the cap stops the sweeps.  A slack left by rounding may never clear:
    once a sweep's raises all round away, no price moves, and the sweeps
    stop.  The finish keeps the rows whose column is then exactly their
    cheapest and places the rest, the auction's last free rows and a few
    more, by shortest augmenting paths (Crouse 2016).  So the result is
    optimal, not epsilon-optimal, however the sweeps end.
    """
    n = len(cost)
    rows = np.arange(n)
    sigma = rows.copy()
    if (cost[rows, rows] <= cost.min(axis=1)).all():
        return sigma, None
    owner, v = rows.copy(), cost.min(axis=0)
    # C - v and its row minima, shared by slack(), the bids and the raises
    reduced, low = np.empty_like(cost), np.empty(n)

    def slack() -> np.ndarray:
        np.subtract(cost, v, out=reduced)
        reduced.min(axis=1, out=low)
        return reduced[rows, sigma] - low

    def release(rows_out: np.ndarray) -> None:
        rows_out &= sigma >= 0
        owner[sigma[rows_out]] = -1
        sigma[rows_out] = -1

    # costs are >= 0, so every epsilon stays above the rounding of v
    top = float(cost.max())
    eps, gap = top, slack()
    while eps > _EPS_END * top / n:
        eps /= _EPS_DIV
        release(gap > eps)
        free = np.flatnonzero(sigma < 0)
        if len(free) <= _FREE_END:
            continue  # no bids, so v and the slack stand
        while len(free) > _FREE_END:
            # mode clip writes straight to out (raise would buffer it)
            prices = cost.take(free, axis=0, out=reduced[:len(free)],
                               mode="clip")
            prices -= v
            k = np.arange(len(free))
            best = prices.argmin(axis=1)
            cheapest = prices[k, best]
            prices[k, best] = np.inf
            bid = v[best] - (prices.min(axis=1) - cheapest) - eps
            # each column goes to its lowest bid
            order = np.lexsort((bid, best))
            ranked = best[order]
            win = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
            cols = best[win]
            lost = owner[cols]
            sigma[lost[lost >= 0]] = -1
            owner[cols] = free[win]
            sigma[free[win]] = cols
            v[cols] = bid[win]
            free = np.flatnonzero(sigma < 0)
        gap = slack()
    for _ in range(_RAISE_SWEEPS):
        up = np.flatnonzero((gap > 0.0) & (sigma >= 0))
        if not len(up):
            break
        cols = sigma[up]
        was = v[cols]
        now = was + gap[up]
        if (now == was).all():
            break  # the raises rounded away: every later sweep repeats this
        v[cols] = now
        # only the raised columns got cheaper, so only they can lower a minimum
        raised = cost[:, cols]
        raised -= now
        reduced[:, cols] = raised
        np.minimum(low, raised.min(axis=1), out=low)
        gap = reduced[rows, sigma] - low
    release(gap > 0.0)
    for i in np.flatnonzero(sigma < 0):
        _augment(cost, v, sigma, owner, i)
    return sigma, v


def _search(cost: np.ndarray, v: np.ndarray, owner: np.ndarray,
            dist: np.ndarray, pred: np.ndarray) -> tuple[list, np.ndarray]:
    """Dijkstra on the columns from the source lengths ``dist``: a settled
    column j leads on through its row r = owner[j] at the reduced prices
    C_rk - v_k - (C_rj - v_j), nonnegative while every row is on a cheapest
    column (Johnson 1977).  ``dist`` and ``pred`` (the row each column is
    reached from) are updated in place.  Returns the settled columns in
    order, with their distances, up to the first free column (owner -1) or
    the last column."""
    n = len(v)
    w = v.copy()  # v, with -inf on the settled columns
    owners, v_at = owner.tolist(), v.tolist()
    via, better = np.empty(n), np.empty(n, dtype=bool)
    # local names: the loop runs up to n times per call
    inf, subtract, less, putmask, minimum = (np.inf, np.subtract, np.less,
                                             np.putmask, np.minimum)
    settled, at = [], []
    for _ in range(n):
        j = dist.argmin()
        reach = dist[j]
        settled.append(j)
        at.append(reach)
        dist[j] = inf
        w[j] = -inf
        row = owners[j]
        if row < 0:
            break
        c_row = cost[row]
        subtract(c_row, w, out=via)
        via += reach - (c_row[j] - v_at[j])
        less(via, dist, out=better)
        putmask(pred, better, row)
        minimum(dist, via, out=dist)
    return settled, np.array(at)


def _augment(cost: np.ndarray, v: np.ndarray, sigma: np.ndarray,
             owner: np.ndarray, i: int) -> None:
    """Place the free row i by a shortest augmenting path (:func:`_search`
    from row i to the first free column), then lower v on the columns the
    search settled so that every placed row stays on a cheapest column."""
    pred = np.full(len(v), i)
    settled, at = _search(cost, v, owner, cost[i] - v, pred)
    j = settled[-1]
    v[settled] -= at[-1] - at
    while True:
        row = pred[j]
        owner[j] = row
        sigma[row], j = j, sigma[row]
        if row == i:
            return


def _dual_potentials(cost: np.ndarray, sigma: np.ndarray,
                     v: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column potentials (u, v) of the optimal assignment sigma:
    u_i + v_j <= C_ij, with equality on the matched pairs (i, sigma[i]).

    v_j is the shortest distance to column j from a source that reaches
    every column at length 0, where the edge sigma[r] -> j has length
    C_rj - C_{r,sigma[r]}.  :func:`_search` finds the shortest-path tree
    with the given column prices as Johnson weights.  Those prices must
    keep every row of sigma on a cheapest column; the result then does not
    depend on them.  Each v_j is summed along its tree path, in settle
    order, so that its parent is summed first.  A non-optimal sigma leaves
    (u, v) infeasible beyond rounding and raises ValueError.

    Prices None stand for :func:`_assignment`'s diagonal exit, where every
    matched entry is its row's minimum: from the prices 0 the search would
    relax no column, so (u, v) is (the matched costs, 0) without it.
    """
    n = len(sigma)
    matched = cost[np.arange(n), sigma]
    if v is None:
        return matched, np.zeros(n)
    pred = np.full(n, -1)
    col = np.zeros(n)
    for j in _search(cost, v, np.argsort(sigma), -v, pred)[0]:
        r = pred[j]
        if r >= 0:
            col[j] = col[sigma[r]] + (cost[r, j] - matched[r])
    u = matched - col[sigma]
    # rounding of the edge lengths, summed along a path of at most n edges
    if (u[:, None] + col - cost).max() > n * np.spacing(cost.max()):
        raise ValueError("the assignment is not optimal: its dual "
                         "potentials are infeasible")
    return u, col


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


def exact_wp_with_stderr(xs: np.ndarray, ys: np.ndarray,
                         p: float) -> tuple[float, float]:
    """:func:`exact_empirical_wp` with its standard error: the samples are
    pairs, (x_i, y_i) from one coupled path, and the se is :func:`_wp_stderr`
    on the dual potentials of the optimal pairing."""
    x, y = _wp_inputs(xs, ys, p)
    value, u, v = (_sorted_wp if x.shape[1] == 1 else _assigned_wp)(x, y, p)
    return value, _wp_stderr(u + v, value, p)


def exact_empirical_wp(xs: np.ndarray, ys: np.ndarray, p: float) -> float:
    """Exact W_p between the uniform empirical measures of two equal-size samples."""
    return exact_wp_with_stderr(xs, ys, p)[0]


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
    dof = max(len(t) - 2, 1)
    slope_var = (sse / dof) / stt
    return RateFit(lambda_hat=float(-slope),
                   lambda_stderr=float(math.sqrt(slope_var)))
