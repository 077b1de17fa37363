"""Event-driven simulation of the reflection/synchronous coupling.

A coupled pair (X, Y) driven by the same stable noise evolves, before
merging, with jumps handled in two channels:

- reflection: when |x - y| <= L0 and the jump satisfies |z| <= a |x - y|,
  X receives z and Y its mirror image across the hyperplane orthogonal to
  x - y (Y's jump has the law of X's, because the restricted jump measure
  is mirror invariant);
- synchronous: every other jump is applied identically to both components,
  so it cancels in the separation.

Without a profile (``lyap=None``) the band is empty, (a, L0) = (0, 0), so
the same loop runs the purely synchronous coupling.

Time stepping is jump-adapted: within frozen windows of length at most
``_WINDOW`` the jump clock runs at the compound-Poisson rate of jumps above
the truncation radius delta = ``delta_floor``; drift is integrated between
events with classical fourth-order steps, one per segment unless the
stability cap binds (no segment is longer than a window, and neither is a
step).  Jump activity below delta enters at the window end as a Gaussian
kick of the matched per-coordinate variance var(delta) h on each
component, so each marginal keeps the first two moments of the omitted
jumps (not their full law) and the marginal error shrinks with delta.  The
kick is split in two:

- on unmerged pairs within L0 at the kick, the reflected band
  |z| <= min(delta, a r) goes in as a mirrored Gaussian (the reflection
  coupling of Brownian motion): X gets g, Y its mirror across x - y, so the
  separation moves along x - y as a Brownian motion of variance
  4 var_band h.  The Brownian bridge decides where that motion first leaves
  (0, L0): at 0 the pair merges, at L0 the coupling turns synchronous and
  the pair ends the window at separation L0 (both exact for Brownian
  motion);
- the rest of the sub-delta activity, and all of it on the other pairs, is
  common to both components and cancels in the separation.

Pairs merge (and stick, with Y a bitwise copy of X) at a bridge crossing or
once the separation falls below ``eps_couple``.  The merge test runs twice
per window: after its last event round, before the window-end flow, and
after the kick.  Event rounds leave it out: a synchronous jump adds the same
z to both rows, a monotone drift does not widen a separation, and a pair
within ``eps_couple`` cannot reflect a jump above ``delta_floor`` while
``delta_floor > a eps_couple``, so a pair that a round brings within
``eps_couple`` gets the same bits when it merges at the window's test.  For
a drift that is not monotone, or a ``delta_floor <= a eps_couple``, the
separation is thus sampled once per window.  The ensemble is one array of
shape (n, 2, d), X in [:, 0] and Y in [:, 1], so an event round gathers its
pairs once, drifts their 2m rows in one flow, adds the jumps (one add when
no pair reflects) and scatters them once; a merged pair's two equal rows
flow to equal rows and take equal jumps.  The jump clock runs at one
constant rate, so the count of explicit jumps has a known mean; it is held
to a budget before the first window (:func:`require_event_budget`).

Randomness comes from four streams derived from the seed, one per kind of
draw: the jump clock, the jump radii, the jump directions and the window-end
kicks.  The clock gaps and the jumps (radius and direction) are drawn ahead
in blocks of ``_DRAW_BLOCK`` rows whose leftovers carry over, so an event
round slices its rows instead of calling a generator; each block is the next
stretch of its streams, so no output bit depends on the block size.  A
pair's clock carries over from one window to the next: its wait past the
window end is again exponential, so the next window starts from what is
left of it.  Only the kicks are drawn at each window end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drift_models import DriftField
from .stable_noise import (StableSpec, _large_jumps, _rownorm,
                           _small_var_per_coord, decompose)
from .streams import derive_stream

_WINDOW = 1e-2  # longest window between two window-end kicks
_EVENT_BUDGET = 2e9  # expected explicit jumps one ensemble may draw
_DRAW_BLOCK = 1024  # rows of clock gaps and of jumps drawn per refill


class EventBudgetError(RuntimeError):
    """The expected count of explicit jumps exceeds ``_EVENT_BUDGET``."""


class DriftBlowupError(RuntimeError):
    """Non-finite state encountered while integrating the drift."""


@dataclass(frozen=True)
class SchemeConfig:
    """Numerical parameters of the coupled simulation scheme.

    ``delta_floor`` is the truncation radius: jumps above it are simulated
    one by one, the activity below it enters as a Gaussian kick.
    ``eps_couple`` is the merge threshold on the separation.  The
    synchronous switch is ``lyap=None`` in :func:`simulate_coupled_ensemble`.
    """

    eps_couple: float = 1e-6
    delta_floor: float = 2e-2

    def __post_init__(self):
        for name in ("eps_couple", "delta_floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class PathEnsemble:
    """Coupled trajectories of an ensemble, recorded on a common grid."""

    times: np.ndarray          # (T,)
    xs: np.ndarray             # (n, T, d)
    ys: np.ndarray             # (n, T, d)
    merged: np.ndarray         # (n, T) bool

    @property
    def n_paths(self) -> int:
        return self.xs.shape[0]

    @property
    def r(self) -> np.ndarray:
        return _rownorm(self.xs - self.ys)


# ---------------------------------------------------------------------------
# Reflection map and the coupled jump
# ---------------------------------------------------------------------------


def _mirror(z: np.ndarray, diff: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise z - 2 (z.u) u with u = diff / r; r > 0 is |diff| per row.

    The mirror image across the hyperplane orthogonal to diff: an involution
    that preserves |z| and moves z only along diff.
    """
    e = diff / r[:, None]
    zdot = np.einsum("ij,ij->i", z, e)
    return z - 2.0 * zdot[:, None] * e


def coupled_jump(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 radius: np.ndarray, a: float, l0: float) -> np.ndarray:
    """Y's increment in one event round: jump z[i] hits pair i, X takes z.

    Row i reflects when the pair is within L0 and hit by a jump of size
    radius[i] = |z[i]| <= a |x[i] - y[i]|; Y then takes the mirror phi(z),
    else z itself.  A merged pair has y bitwise equal to x, so r = 0 and no
    jump of positive size reflects it; at radius 0 the mirror across a zero
    separation is z itself.  When no row reflects the increment is z, the
    same object.  On the line the mirror is -z: u = +-1 exactly, so for a
    nonzero z with 2 z finite (a reflected jump is at most a L0) -z has the
    bits of z - 2 (z.u) u.
    """
    diff = x - y
    r = _rownorm(diff)
    do_refl = (r <= l0) & (radius <= a * r)
    if not np.count_nonzero(do_refl):
        return z
    if z.shape[1] == 1:
        return np.where(do_refl[:, None], -z, z)
    phi = _mirror(z, diff, np.where(r > 0.0, r, 1.0))
    return np.where(do_refl[:, None], phi, z)


# ---------------------------------------------------------------------------
# Drift integration
# ---------------------------------------------------------------------------


_STABILITY_MARGIN = 0.2  # |b'| h kept below this for the explicit steps


def _rk4_one(field: DriftField, x: np.ndarray,
             remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One classical fourth-order step of each row of x (n, d), of length
    min(remaining, stability cap); returns the new rows, a new array, and the
    steps taken, which are ``remaining`` itself when no row is cut short.

    The cap keeps explicit steps inside the stability region by bounding the
    step against the local scale |b(x)| / (1 + |x|); superlinear drifts hit by
    a heavy-tailed jump are therefore contracted back instead of overflowing.
    While every row's scale is at most ``_STABILITY_MARGIN / _WINDOW`` the
    cap is ``_WINDOW`` on every row, so the per-row cap is skipped; a nan or
    infinite scale fails that test and meets the finite check.
    """
    b = field.evaluate
    k1 = b(x)
    scale = _rownorm(k1) / (1.0 + _rownorm(x))
    if scale.max(initial=0.0) <= _STABILITY_MARGIN / _WINDOW:
        step = (remaining if remaining.max(initial=0.0) <= _WINDOW
                else np.minimum(remaining, _WINDOW))
    elif np.count_nonzero(np.isfinite(scale)) < len(scale):
        raise DriftBlowupError("non-finite drift value encountered")
    else:
        cap = _STABILITY_MARGIN / np.maximum(scale, _STABILITY_MARGIN / _WINDOW)
        step = np.minimum(remaining, cap)
    h = step[:, None]
    half = 0.5 * h
    # each stage argument and the combination are built in arrays this step
    # owns, in place: b may return its input, so nothing b returned is
    # written; with + and * commutative, the bits are those of
    # x + h / 6 (k1 + 2 k2 + 2 k3 + k4)
    t = half * k1
    t += x
    k2 = b(t)
    t = half * k2
    t += x
    k3 = b(t)
    t = h * k3
    t += x
    k4 = b(t)
    k = 2.0 * k2
    k += k1
    k += 2.0 * k3
    k += k4
    k *= h / 6.0
    k += x
    return k, step


def _drift_flow(field: DriftField, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integrate dx = b(x) dt over per-row horizons h with stable steps
    (:func:`_rk4_one`).

    The first step takes every row; only then are the rows with time left
    gathered, so a flow that ends in one step makes no second pass, and one
    whose step cut no row short does not look for them.  Rows
    never interact, so each row gets the bits it would get alone: the engine
    flows the x and y rows of its pairs, interleaved, in one call, and equal
    rows stay equal.  Non-finite intermediates of a pathological field are
    left to the caller's guard; the engine quiets their warnings once per
    run.
    """
    x, step = _rk4_one(field, x, h)
    if step is h:  # no row was cut short
        return x
    # for finite doubles h - step > 0 exactly when step < h, so the rows
    # with time left are known before the subtraction
    act = (step < h).nonzero()[0]
    if not act.size:
        return x
    remaining = h - step
    for _ in range(100_000):
        x[act], step = _rk4_one(field, x[act], remaining[act])
        remaining[act] -= step
        act = (remaining > 0.0).nonzero()[0]
        if not act.size:
            return x
    raise DriftBlowupError("drift flow did not finish; field too stiff")


# ---------------------------------------------------------------------------
# Ensemble simulation
# ---------------------------------------------------------------------------


def _settle(pairs: np.ndarray, merged: np.ndarray, eps: float) -> None:
    """Merge, in place, the pairs (x, y) = pairs[:, 0], pairs[:, 1] within
    ``eps``; set y := x on every merged pair, so it is bitwise equal from
    then on."""
    merged |= _rownorm(pairs[:, 0] - pairs[:, 1]) <= eps
    np.copyto(pairs[:, 1], pairs[:, 0], where=merged[:, None])


def _bridge_exits(ra: np.ndarray, rb: np.ndarray, l0: float,
                  var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities that a Brownian bridge from ra to rb, of variance var
    over the bridge, leaves (0, l0) first at 0 and first at l0 (0 < ra <= l0).

    By the reflection principle, the paths that visit the barriers in a
    given alternating order have the density of a straight path as long as
    the unfolded route ra -> barrier -> ... -> rb.  Inclusion-exclusion over
    the visit orders gives alternating series with decreasing terms, summed
    until the first omitted term is below 1e-17.  The leading terms are the
    one-barrier crossing probabilities exp(-2 ra rb / var) and
    exp(-2 (l0 - ra)(l0 - rb) / var).
    """
    c = rb - ra
    two_var = 2.0 * var
    # the unfolded routes, one row each: to 0 and to l0 straight, then to 0
    # by l0 and to l0 by 0, which first reach the other barrier and cross
    # the strip (l0) before their last leg
    start = np.array((ra, l0 - ra))
    end = np.array((np.abs(rb), np.abs(l0 - rb)))
    routes = np.concatenate((start + end, start[::-1] + l0 + end))
    length = routes
    k = 0
    while True:
        # density of each unfolded route over that of the direct one; a
        # straight route counts for, its detour against, the exit
        ratio = np.exp((c - length) * (length + c) / two_var)
        term = ratio[:2] - ratio[2:]
        p = term if k == 0 else p + term
        if not ratio[2:].max() >= 1e-17:  # a nan input ends the series too
            return p[0], p[1]
        # each further pair of visits adds 2 l0 to the route
        k += 1
        length = routes + 2 * k * l0


def _mirrored_kick(pairs: np.ndarray, rows: np.ndarray, ra: np.ndarray,
                   var: np.ndarray, l0: float, merged: np.ndarray,
                   rng: np.random.Generator) -> None:
    """Reflection-coupled Gaussian kick, in place, on the given rows of the
    pairs (x, y) = pairs[:, 0], pairs[:, 1].

    Row i of ``rows``, at separation r_a = ra[i] (0 < r_a <= l0), draws
    g ~ N(0, var[i] I); x gets g.  Until the separation leaves (0, l0), y
    gets the mirror of x's motion across x - y, so the separation moves
    only along e = (x - y)/|x - y|, a one-dimensional Brownian motion of
    variance 4 var from r_a towards r_b = r_a + 2 g.e.  Where it leaves is
    decided by the bridge (:func:`_bridge_exits`, one uniform per row):

    - first at 0: the pair has met and both components follow x, so it is
      marked merged and the caller's settle step, which runs after every
      kick, sets y := x;
    - first at l0: the coupling turns synchronous there, so y follows x
      from then on and the pair ends at separation exactly l0;
    - neither: y gets the mirror image of g.

    Each rule takes y's increment from x's Brownian motion up to a stopping
    time, so y's kick is N(0, var I) as well.
    """
    pr = pairs.take(rows, axis=0)
    x, y = pr[:, 0], pr[:, 1]
    diff = x - y
    e = diff / ra[:, None]
    g = rng.standard_normal(diff.shape) * np.sqrt(var)[:, None]
    # on the line g.e is one product; einsum sums onto +0.0, so adding +0.0
    # gives its bits, -0.0 included
    ge2 = 2.0 * (g[:, 0] * e[:, 0] + 0.0 if g.shape[1] == 1
                 else np.einsum("ij,ij->i", g, e))
    p0, pl = _bridge_exits(ra, ra + ge2, l0, 4.0 * var)
    u = rng.random(len(rows))
    at_l0 = (u >= p0) & (u < p0 + pl)
    x += g
    y += g - np.where(at_l0, l0 - ra, ge2)[:, None] * e
    pairs[rows] = pr
    merged[rows[u < p0]] = True


class _Blocks:
    """The rows of a draw served in order, from blocks drawn ahead.

    ``draw(k)`` returns three arrays of k rows each (clock gaps, radii and
    jumps); the first block is drawn at once.  :meth:`take` slices the next
    m rows off the current block, and only when they run out draws a new
    one, of ``_DRAW_BLOCK`` rows or what it lacks if more, behind what the
    old block had left.  Each draw takes its rows from its streams in
    order, so the rows served are the streams' prefix whatever the block
    size.
    """

    def __init__(self, draw):
        self._draw = draw
        self._rows = draw(_DRAW_BLOCK)
        self._pos = 0

    def take(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = self._pos, self._pos + m
        if hi > len(self._rows[0]):
            fresh = self._draw(max(_DRAW_BLOCK, hi - len(self._rows[0])))
            self._rows = [np.concatenate((r[lo:], f))
                          for r, f in zip(self._rows, fresh)]
            lo, hi = 0, m
        self._pos = hi
        gap, radius, z = self._rows
        return gap[lo:hi], radius[lo:hi], z[lo:hi]


def require_positive_paths(n_paths: int) -> None:
    """Raise ValueError unless the ensemble size is positive."""
    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths}")


def require_event_budget(spec: StableSpec, cfg: SchemeConfig, horizon: float,
                         n_paths: int) -> None:
    """Raise EventBudgetError when the explicit jumps, a Poisson count of
    mean rate_above(delta_floor) * horizon * n_paths, exceed the budget."""
    expected = decompose(spec, cfg.delta_floor).rate_above * horizon * n_paths
    if expected > _EVENT_BUDGET:
        raise EventBudgetError(
            f"{expected:.3g} explicit jumps expected, above the budget "
            f"{_EVENT_BUDGET:g}; raise delta_floor or lower n_paths or horizon")


# non-finite intermediates of a pathological field are caught by the
# finite-state guard at each window end; their warnings are quieted once
# per run, and numpy's error state is the caller's again on return or raise
@np.errstate(over="ignore", invalid="ignore")
def simulate_coupled_ensemble(x0: np.ndarray, y0: np.ndarray, field: DriftField,
                              spec: StableSpec, lyap, cfg: SchemeConfig,
                              horizon: float, record_grid: np.ndarray,
                              n_paths: int, seed: int) -> PathEnsemble:
    """Simulate ``n_paths`` independent coupled pairs from (x0, y0).

    The ensemble draws from ``derive_stream(seed, 0..3)``, one stream per
    kind of draw (the module docstring says which), so the output depends
    only on (inputs, seed) and not on the block size.  ``lyap`` supplies the
    reflection band (a, L0); ``lyap=None`` is the synchronous switch, the
    empty band (0, 0): every jump is then applied to both components and no
    pair reflects.  An ensemble over the event budget is refused before the
    first window.
    """
    require_positive_paths(n_paths)
    require_event_budget(spec, cfg, horizon, n_paths)
    record_grid = np.asarray(record_grid, dtype=float)
    if record_grid.ndim != 1 or len(record_grid) == 0:
        raise ValueError("record_grid must be a nonempty 1-d array")
    if record_grid.min() < 0.0 or record_grid.max() > horizon + 1e-12:
        raise ValueError("record_grid must lie within [0, horizon]")
    if np.any(np.diff(record_grid) <= 0.0):
        raise ValueError("record_grid must be strictly increasing")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    clock_rng, radius_rng, direction_rng, kick_rng = (
        derive_stream(seed, index) for index in range(4))
    # synchronous coupling is the empty band: no pair reflects, so
    # coupled_jump returns z
    a, l0 = (0.0, 0.0) if lyap is None else (float(lyap.a), float(lyap.l0))
    # each pair in one array: P[:, 0] is X and P[:, 1] is Y
    P = np.tile(np.stack((x0, y0)), (n_paths, 1, 1))
    n, _, d = P.shape
    merged = np.zeros(n, dtype=bool)
    _settle(P, merged, cfg.eps_couple)

    T = len(record_grid)
    xs = np.empty((n, T, d))
    ys = np.empty((n, T, d))
    mg = np.empty((n, T), dtype=bool)
    rec = 0
    t = 0.0
    if record_grid[0] <= 1e-15:
        xs[:, 0], ys[:, 0], mg[:, 0] = P[:, 0], P[:, 1], merged
        rec = 1

    split = decompose(spec, cfg.delta_floor)
    rate = split.rate_above
    # each pair's next jump time, counted from the window's start: a wait
    # past a window end is again exponential, so it carries over
    next_jump = clock_rng.standard_exponential(n) / rate
    # a jump and the gap to its pair's next one: one row of each stream
    draws = _Blocks(lambda k: [clock_rng.standard_exponential(k) / rate,
                               *_large_jumps(cfg.delta_floor, spec.alpha, d, k,
                                             radius_rng, direction_rng)])

    while rec < T:
        target = float(record_grid[rec])
        while t < target - 1e-12:
            h = min(_WINDOW, target - t)

            # one event round: gather the active pairs once, drift both rows
            # of each to its jump time in one flow, jump, scatter once; a
            # merged pair's rows are equal and flow to equal rows
            t_path = np.zeros(n)
            while True:
                idx = (next_jump < h).nonzero()[0]
                m = idx.size
                if not m:
                    break
                tj = next_jump[idx]
                pi = _drift_flow(field, P.take(idx, axis=0).reshape(2 * m, d),
                                 (tj - t_path[idx]).repeat(2)).reshape(m, 2, d)
                t_path[idx] = tj

                gap, radius, z = draws.take(m)
                dy = coupled_jump(pi[:, 0], pi[:, 1], z, radius, a, l0)
                if dy is z:
                    pi += z[:, None]
                else:
                    pi[:, 0] += z
                    pi[:, 1] += dy
                P[idx] = pi
                next_jump[idx] = tj + gap
            next_jump -= h

            # the rounds' merge test, once for all of them (the module
            # docstring says why the bits are those of a test per round)
            _settle(P, merged, cfg.eps_couple)

            # drift to the window end
            P = _drift_flow(field, P.reshape(2 * n, d),
                            (h - t_path).repeat(2)).reshape(n, 2, d)

            # Gaussian kick standing in for sub-delta jump activity, of
            # per-coordinate variance var(delta) h on each component: on the
            # unmerged pairs within L0 at the kick, the band
            # |z| <= min(delta, a r) goes in mirrored, the rest is common and
            # cancels in the separation; y = x on a merged row, so r > 0
            # leaves it out
            r = _rownorm(P[:, 0] - P[:, 1])
            band = ((r > 0.0) & (r <= l0)).nonzero()[0]
            common = split.small_var_per_coord * h
            var = np.full(n, common)
            g = kick_rng.standard_normal((n, d))
            if band.size:
                var_band = h * _small_var_per_coord(
                    spec, np.minimum(cfg.delta_floor, a * r[band]))
                var[band] = common - var_band
                _mirrored_kick(P, band, r[band], var_band, l0, merged, kick_rng)
            g *= np.sqrt(var)[:, None]
            P += g[:, None]

            # drift or kicks may have crossed the merge threshold
            _settle(P, merged, cfg.eps_couple)

            if not np.isfinite(P).all():
                bad = int(np.flatnonzero(~np.isfinite(P).all(axis=(1, 2)))[0])
                raise DriftBlowupError(f"non-finite state on path {bad} at t={t + h:g}")
            t += h

        xs[:, rec], ys[:, rec], mg[:, rec] = P[:, 0], P[:, 1], merged
        rec += 1
    return PathEnsemble(times=record_grid.copy(), xs=xs, ys=ys, merged=mg)


@dataclass(frozen=True)
class DecaySeries:
    """Ensemble mean of psi(r_t) with CLT standard errors."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int


def _psi_r(r: np.ndarray, merged: np.ndarray, lyap) -> np.ndarray:
    """psi(r) per path and grid time; merged pairs get psi(0) = 0 exactly."""
    return np.where(merged, 0.0, lyap.value(r))


def lyapunov_decay_series(ensemble: PathEnsemble, lyap) -> DecaySeries:
    """Mean and standard error of psi(r_t) over the ensemble at each grid time.

    Merged pairs contribute psi(0) = 0 exactly.
    """
    vals = _psi_r(ensemble.r, ensemble.merged, lyap)
    mean = vals.mean(axis=0)
    n = vals.shape[0]
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return DecaySeries(times=ensemble.times.copy(), mean=mean, stderr=stderr,
                       n_paths=n)


# ---------------------------------------------------------------------------
# CSV export (stable schemas)
# ---------------------------------------------------------------------------


_TABLE_BLOCK = 4096  # rows formatted per write; bounds the text held at once


def write_table(path, header: Sequence[str], table) -> None:
    """Write a 2-D float table as CSV, one "%.17g" line per row.

    "%.17g" round-trips float64 and prints integer-valued floats (ids,
    counts, flags) without a decimal point.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(table), _TABLE_BLOCK):
            block = table[lo:lo + _TABLE_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def read_table(path) -> np.ndarray:
    """The rows of a table written by :func:`write_table`, always 2-D."""
    # a handle, not a path: given a path, loadtxt opens it through
    # numpy.lib._datasource, whose first use imports gzip
    with open(path) as fh:
        return np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)


def _path_table(times: np.ndarray, *cols: np.ndarray) -> np.ndarray:
    """Path-major rows (path_id, t, cols...) from (n, T) or (n, T, k) arrays."""
    n, T = cols[0].shape[:2]
    return np.hstack([np.repeat(np.arange(n), T)[:, None],
                      np.tile(times, n)[:, None]]
                     + [np.reshape(c, (n * T, -1)) for c in cols])


def read_path_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Grid times and the (n_paths, n_times, k) other columns of a
    path-major (path_id, t, ...) table written by :func:`write_table`."""
    raw = read_table(path)
    ids = raw[:, 0].astype(int)
    n, T = ids.max() + 1, (ids == 0).sum()
    return raw[:T, 1].copy(), raw[:, 2:].reshape(n, T, -1)


def write_paths_csv(path, ensemble: PathEnsemble, lyap=None) -> None:
    """Write the per-path series: path_id, t, r, psi_r, merged.

    ``psi_r`` is nan when no Lyapunov function is supplied (synchronous runs).
    """
    r = ensemble.r
    psi_r = (np.full_like(r, np.nan) if lyap is None
             else _psi_r(r, ensemble.merged, lyap))
    write_table(path, ["path_id", "t", "r", "psi_r", "merged"],
                _path_table(ensemble.times, r, psi_r, ensemble.merged))


def write_positions_csv(path, ensemble: PathEnsemble) -> None:
    """Write full positions: path_id, t, x0..x{d-1}, y0..y{d-1}, merged."""
    d = ensemble.xs.shape[2]
    cols = (["path_id", "t"] + [f"x{j}" for j in range(d)]
            + [f"y{j}" for j in range(d)] + ["merged"])
    write_table(path, cols, _path_table(ensemble.times, ensemble.xs,
                                        ensemble.ys, ensemble.merged))


def read_positions_csv(path) -> PathEnsemble:
    """Load an ensemble written by :func:`write_positions_csv`."""
    times, cols = read_path_table(path)
    d = (cols.shape[2] - 1) // 2
    return PathEnsemble(times=times, xs=cols[:, :, :d], ys=cols[:, :, d:2 * d],
                        merged=cols[:, :, -1].astype(bool))
