"""Event-driven simulation of the reflection/synchronous coupling.

A coupled pair (X, Y) driven by the same stable noise evolves, before
merging, with jumps handled in three channels:

- reflection: when |x - y| <= L0 and the jump satisfies |z| <= a |x - y|,
  X receives z and Y its mirror image across the hyperplane orthogonal to
  x - y (Y's jump has the law of X's, because the restricted jump measure
  is mirror invariant);
- synchronous: every other jump is applied identically to both components,
  so it cancels in the separation;
- an optional finite-activity extra jump component, always synchronous.

Without a profile (``lyap=None``) the band is empty, (a, L0) = (0, 0), so
the same loop runs the purely synchronous coupling.

Time stepping is jump-adapted: within frozen windows of length at most
``_WINDOW`` the jump clock runs at the compound-Poisson rate of jumps above
the truncation radius delta = ``delta_floor``; drift is integrated between
events with classical fourth-order steps.  Jump activity below delta enters
at the window end as a Gaussian kick of the matched per-coordinate variance
var(delta) h on each component, so each marginal keeps the first two
moments of the omitted jumps (not their full law) and the marginal error
shrinks with delta.  The kick is split in two:

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
once the separation falls below ``eps_couple``.  The jump clock runs at one
constant rate, so the count of explicit jumps has a known mean; it is held
to a budget before the first window (:func:`require_event_budget`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drift_models import DriftField
from .stable_noise import StableSpec, _large_jumps, _rownorm, decompose
from .streams import derive_stream

_DRIFT_SUBSTEP = 5e-3
_WINDOW = 1e-2  # longest window between two window-end kicks
_EVENT_BUDGET = 2e9  # expected explicit jumps one ensemble may draw


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
class ExcessComponent:
    """Finite-activity extra jump component, applied synchronously.

    ``sampler(rng, n)`` must return n jump vectors of shape (n, d).
    """

    rate: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]


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
                 radius: np.ndarray, merged: np.ndarray, a: float,
                 l0: float) -> tuple[np.ndarray, np.ndarray]:
    """Increments (dx, dy) of one event round: jump z[i] hits pair i.

    X always takes z.  Row i reflects when the pair is unmerged, within L0
    and hit by a jump of size radius[i] = |z[i]| <= a |x[i] - y[i]|; Y then
    takes the mirror phi(z), else z itself.  The returned arrays may be
    ``z`` itself.
    """
    diff = x - y
    r = _rownorm(diff)
    do_refl = (~merged) & (r <= l0) & (radius <= a * r)
    if not do_refl.any():
        return z, z
    phi = _mirror(z, diff, np.where(r > 0.0, r, 1.0))
    return z, np.where(do_refl[:, None], phi, z)


# ---------------------------------------------------------------------------
# Drift integration
# ---------------------------------------------------------------------------


_STABILITY_MARGIN = 0.2  # |b'| h kept below this for the explicit steps


def _rk4_one(field: DriftField, x: np.ndarray, h: np.ndarray,
             k1: np.ndarray) -> np.ndarray:
    """One classical fourth-order step with per-row step h from the slope
    k1 = b(x); x is (n, d)."""
    h = h[:, None]
    b = field.evaluate
    k2 = b(x + 0.5 * h * k1)
    k3 = b(x + 0.5 * h * k2)
    k4 = b(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drift_flow(field: DriftField, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integrate dx = b(x) dt over per-row horizons h with stable steps.

    Explicit steps are kept inside the stability region by bounding the step
    against the local scale |b(x)| / (1 + |x|); superlinear drifts hit by a
    heavy-tailed jump are therefore contracted back instead of overflowing.
    Rows never interact, so stacking two batches into one call gives each
    row the bits it would get alone.
    """
    x = x.copy()
    remaining = h.copy()
    # non-finite intermediates are possible for pathological fields and are
    # caught by the caller's guard; keep the warnings quiet here
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100_000):
            act = remaining > 0.0
            if not act.any():
                return x
            if act.all():
                act = slice(None)  # a view: no gather, no scatter
            xa = x[act]
            k1 = field.evaluate(xa)
            scale = _rownorm(k1) / (1.0 + _rownorm(xa))
            if not np.isfinite(scale).all():
                raise DriftBlowupError("non-finite drift value encountered")
            cap = _STABILITY_MARGIN / np.maximum(scale,
                                                 _STABILITY_MARGIN / _DRIFT_SUBSTEP)
            step = np.minimum(remaining[act], cap)
            x[act] = _rk4_one(field, xa, step, k1)
            remaining[act] = remaining[act] - step
    raise DriftBlowupError("drift flow did not finish; field too stiff")


def _flow_pair(field: DriftField, x: np.ndarray, y_live: np.ndarray,
               h: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift the rows x and the rows y_live = y[live] over horizons h in one
    stacked flow; returns (x, y) with y := x on the rows outside ``live``."""
    n = len(x)
    out = _drift_flow(field, np.concatenate((x, y_live)),
                      np.concatenate((h, h[live])))
    x = out[:n]
    y = x.copy()
    y[live] = out[n:]
    return x, y


# ---------------------------------------------------------------------------
# Ensemble simulation
# ---------------------------------------------------------------------------


def _settle(x: np.ndarray, y: np.ndarray, merged: np.ndarray,
            eps: float) -> None:
    """Merge, in place, the rows of (x, y) within ``eps``; set y := x on every
    merged row, so a merged pair is bitwise equal from then on."""
    merged |= _rownorm(x - y) <= eps
    y[merged] = x[merged]


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

    def ratio(length):
        # density of the unfolded route over that of the direct one
        return np.exp(-(length - c) * (length + c) / (2.0 * var))

    # routes ending at 0 or at l0 first, straight or by the other barrier
    to0 = ra + np.abs(rb)
    tol = (l0 - ra) + np.abs(l0 - rb)
    via_l0 = (l0 - ra) + l0 + np.abs(rb)
    via_0 = ra + l0 + np.abs(l0 - rb)
    p0 = np.zeros_like(ra)
    pl = np.zeros_like(ra)
    k = 0
    while True:
        # each further pair of visits adds 2 l0 to the route
        back0, backl = ratio(via_l0 + 2 * k * l0), ratio(via_0 + 2 * k * l0)
        p0 += ratio(to0 + 2 * k * l0) - back0
        pl += ratio(tol + 2 * k * l0) - backl
        if max(back0.max(), backl.max()) < 1e-17:
            return p0, pl
        k += 1


def _mirrored_kick(x: np.ndarray, y: np.ndarray, rows: np.ndarray,
                   var: np.ndarray, l0: float, merged: np.ndarray,
                   rng: np.random.Generator) -> None:
    """Reflection-coupled Gaussian kick, in place, on the given rows.

    Row i of ``rows`` (0 < r_a <= l0) draws g ~ N(0, var[i] I); x gets g.
    Until the separation leaves (0, l0), y gets the mirror of x's motion
    across x - y, so the separation moves only along e = (x - y)/|x - y|, a
    one-dimensional Brownian motion of variance 4 var from r_a towards
    r_b = r_a + 2 g.e.  Where it leaves is decided by the bridge
    (:func:`_bridge_exits`, one uniform per row):

    - first at 0: the pair has met and both components follow x, so it is
      marked merged and the caller's settle step sets y := x;
    - first at l0: the coupling turns synchronous there, so y follows x
      from then on and the pair ends at separation exactly l0;
    - neither: y gets the mirror image of g.

    Each rule takes y's increment from x's Brownian motion up to a stopping
    time, so y's kick is N(0, var I) as well.
    """
    diff = x[rows] - y[rows]
    ra = _rownorm(diff)
    e = diff / ra[:, None]
    g = rng.standard_normal(diff.shape) * np.sqrt(var)[:, None]
    ge = np.einsum("ij,ij->i", g, e)
    p0, pl = _bridge_exits(ra, ra + 2.0 * ge, l0, 4.0 * var)
    u = rng.random(len(rows))
    at_l0 = (u >= p0) & (u < p0 + pl)
    x[rows] += g
    y[rows] += g - np.where(at_l0, l0 - ra, 2.0 * ge)[:, None] * e
    merged[rows[u < p0]] = True


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


def simulate_coupled_ensemble(x0: np.ndarray, y0: np.ndarray, field: DriftField,
                              spec: StableSpec, lyap, cfg: SchemeConfig,
                              horizon: float, record_grid: np.ndarray,
                              n_paths: int, seed: int,
                              excess: ExcessComponent | None = None) -> PathEnsemble:
    """Simulate ``n_paths`` independent coupled pairs from (x0, y0).

    The ensemble draws from one derived stream, ``derive_stream(seed, 0)``,
    so the output depends only on (inputs, seed).  ``lyap`` supplies the
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
    rng = derive_stream(seed, 0)
    # synchronous coupling is the empty band: no pair reflects, so
    # coupled_jump returns (z, z)
    a, l0 = (0.0, 0.0) if lyap is None else (float(lyap.a), float(lyap.l0))
    X = np.tile(x0, (n_paths, 1))
    Y = np.tile(y0, (n_paths, 1))
    n, d = X.shape
    merged = np.zeros(n, dtype=bool)
    _settle(X, Y, merged, cfg.eps_couple)

    T = len(record_grid)
    xs = np.empty((n, T, d))
    ys = np.empty((n, T, d))
    mg = np.empty((n, T), dtype=bool)
    rec = 0
    t = 0.0
    if record_grid[0] <= 1e-15:
        xs[:, 0], ys[:, 0], mg[:, 0] = X, Y, merged
        rec = 1

    split = decompose(spec, cfg.delta_floor)

    while rec < T:
        target = float(record_grid[rec])
        while t < target - 1e-12:
            h = min(_WINDOW, target - t)

            # one event round: gather the active rows once, drift them to
            # their jump time, jump, settle, scatter once
            t_path = np.zeros(n)
            next_jump = rng.standard_exponential(n) / split.rate_above
            while True:
                idx = np.nonzero(next_jump < h)[0]
                m = idx.size
                if not m:
                    break
                tj = next_jump[idx]
                mi = merged[idx]
                live = ~mi
                xi, yi = _flow_pair(field, X[idx], Y[idx[live]],
                                    tj - t_path[idx], live)
                t_path[idx] = tj

                radius, z = _large_jumps(cfg.delta_floor, spec.alpha, d, m, rng)
                dx, dy = coupled_jump(xi, yi, z, radius, mi, a, l0)
                xi += dx
                yi += dy
                _settle(xi, yi, mi, cfg.eps_couple)
                X[idx] = xi
                Y[idx] = yi
                merged[idx] = mi
                next_jump[idx] = tj + rng.standard_exponential(m) / split.rate_above

            # drift to the window end
            live = ~merged
            X, Y = _flow_pair(field, X, Y[live], h - t_path, live)

            # Gaussian kick standing in for sub-delta jump activity, of
            # per-coordinate variance var(delta) h on each component: on the
            # unmerged pairs within L0 at the kick, the band
            # |z| <= min(delta, a r) goes in mirrored, the rest is common and
            # cancels in the separation
            r = _rownorm(X - Y)
            band = np.nonzero(~merged & (r > 0.0) & (r <= l0))[0]
            var = np.full(n, split.small_var_per_coord * h)
            g = rng.standard_normal((n, d))
            if band.size:
                var_band = h * decompose(spec, np.minimum(
                    cfg.delta_floor, a * r[band])).small_var_per_coord
                var[band] -= var_band
                _mirrored_kick(X, Y, band, var_band, l0, merged, rng)
            g *= np.sqrt(var)[:, None]
            X += g
            Y += g

            if excess is not None and excess.rate > 0.0:
                counts = rng.poisson(excess.rate * h, n)
                total = int(counts.sum())
                if total:
                    jumps = np.asarray(excess.sampler(rng, total), dtype=float)
                    sums = np.zeros((n, d))
                    np.add.at(sums, np.repeat(np.arange(n), counts), jumps)
                    X += sums
                    Y += sums

            # drift or kicks may have crossed the merge threshold
            _settle(X, Y, merged, cfg.eps_couple)

            if not (np.isfinite(X).all() and np.isfinite(Y).all()):
                bad = int(np.nonzero(~np.isfinite(X).all(axis=1)
                                     | ~np.isfinite(Y).all(axis=1))[0][0])
                raise DriftBlowupError(f"non-finite state on path {bad} at t={t + h:g}")
            t += h

        xs[:, rec], ys[:, rec], mg[:, rec] = X, Y, merged
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
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


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
