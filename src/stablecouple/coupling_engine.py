"""Event-driven simulation of the reflection/synchronous coupling.

A coupled pair (X, Y) driven by the same stable noise evolves, before
merging, with jumps handled in three channels:

- reflection: when |x - y| <= L0 and the jump satisfies |z| <= a |x - y|,
  one component receives z and the other its mirror image across the
  hyperplane orthogonal to x - y (with the two assignments mixed half/half;
  they are equal in law because the restricted jump measure is mirror
  invariant);
- synchronous: every other jump is applied identically to both components,
  so it cancels in the separation;
- an optional finite-activity extra jump component, always synchronous.

Without a profile (``lyap=None``) the band is empty, (a, L0) = (0, 0), so
the same loop runs the purely synchronous coupling.

Time stepping is jump-adapted: within frozen windows of length at most
``dt_max`` the jump clock runs at the compound-Poisson rate of jumps above a
truncation radius delta = max(delta_floor, eps_delta a r); drift is
integrated between events with classical fourth-order steps.  Jump activity
below delta is applied to both components as a common Gaussian kick with the
matched per-coordinate variance: it cancels in the separation (those jumps
would overwhelmingly be synchronous), and each component's marginal keeps
the first two moments of the omitted jumps, not their full law, so the
marginal error shrinks with delta.  The omitted reflected band
|z| <= min(delta, a r) slows contraction slightly and never fakes it.

Pairs merge (and stick, with Y a bitwise copy of X) once the separation
falls below ``eps_couple``; exact meeting has probability zero under
discretized reflection, and the jump intensity grows like r^(-alpha) as
r -> 0, so a positive threshold bounds the event budget at a quantifiable
Lyapunov cost psi(eps_couple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drift_models import DriftCondition, DriftField
from .stable_noise import StableSpec, _large_jumps, _rownorm, decompose
from .streams import derive_stream

_DRIFT_SUBSTEP = 5e-3


class EventBudgetError(RuntimeError):
    """Total jump-event budget exceeded (diverging intensity guard)."""


class DriftBlowupError(RuntimeError):
    """Non-finite state encountered while integrating the drift."""


@dataclass(frozen=True)
class SchemeConfig:
    """Numerical parameters of the coupled simulation scheme.

    ``eps_delta`` truncates explicit jumps at the fraction eps_delta * a * r
    of the reflection band (never below the absolute floor ``delta_floor``);
    ``eps_couple`` is the merge threshold on the separation.  The
    synchronous switch is ``lyap=None`` in :func:`simulate_coupled_ensemble`.
    """

    dt_max: float = 1e-2
    eps_delta: float = 1e-2
    eps_couple: float = 1e-6
    delta_floor: float = 2e-3
    max_events: int = 2_000_000_000

    def __post_init__(self):
        if not 0.0 < self.eps_delta < 1.0:
            raise ValueError("eps_delta must lie in (0, 1)")
        for name in ("eps_couple", "dt_max", "delta_floor"):
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
    """Row-wise z - 2 (z.u) u with u = diff / r; r > 0 is |diff| per row."""
    e = diff / r[:, None]
    zdot = np.einsum("ij,ij->i", z, e)
    return z - 2.0 * zdot[:, None] * e


def reflect(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mirror z across the hyperplane orthogonal to x - y; -z when x == y.

    An involution that preserves |z| and moves z only along x - y.
    Accepts single vectors (d,) or batches (n, d).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    diff = np.atleast_2d(x - y)
    zb = np.atleast_2d(z)
    scale = np.max(np.abs(diff), axis=1)
    moving = scale > 0.0
    # the mirror is scale-free; dividing each row by its largest component
    # keeps |x - y|^2 out of the subnormals for separations below ~1e-150
    diff = diff / np.where(moving, scale, 1.0)[:, None]
    r = _rownorm(diff)
    out = np.where(moving[:, None], _mirror(zb, diff, np.where(moving, r, 1.0)), -zb)
    return out[0] if x.ndim == 1 else out


def coupled_jump(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 radius: np.ndarray, merged: np.ndarray, a: float, l0: float,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Increments (dx, dy) of one event round: jump z[i] hits pair i.

    Row i reflects when the pair is unmerged, within L0 and hit by a jump of
    size radius[i] = |z[i]| <= a |x[i] - y[i]|; it then takes one of the
    mirror assignments (z, phi(z)) and (phi(z), z), chosen by a fair coin.
    Every other row is synchronous, (z, z).  The coins are drawn, one per
    row, only when some row reflects, so a round without reflection leaves
    ``rng`` untouched.  The returned arrays may be ``z`` itself.
    """
    diff = x - y
    r = _rownorm(diff)
    do_refl = (~merged) & (r <= l0) & (radius <= a * r)
    if not do_refl.any():
        return z, z
    phi = _mirror(z, diff, np.where(r > 0.0, r, 1.0))
    swap = rng.random(len(z)) < 0.5
    dx = np.where((do_refl & swap)[:, None], phi, z)
    dy = np.where((do_refl & ~swap)[:, None], phi, z)
    return dx, dy


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


def step_drift(x: np.ndarray, field: DriftField, dt: float) -> np.ndarray:
    """Integrate dx = b(x) dt over ``dt`` with the engine's drift steps.

    One call of the flow the simulator runs between events: fourth-order
    steps of at most the engine substep, shortened where the drift is stiff.
    Accepts a single point (d,) or a batch (n, d).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    xb = np.atleast_2d(x)
    out = _drift_flow(field, xb, np.full(xb.shape[0], float(dt)))
    return out[0] if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# Hitting-time bound for the synchronous phase
# ---------------------------------------------------------------------------


def hitting_time_bound(r0: float, cond: DriftCondition) -> tuple[float, float]:
    """Time bound for the synchronous separation to fall from r0 to L0.

    Under dr <= -K2 r^(theta-1), theta > 2, the crossing happens by
    (r0^(2-theta) - L0^(2-theta)) / (K2 (2-theta)); the r0-free cap is
    t0 = ``cond.hitting_cap``.  Returns (bound, t0).
    """
    if cond.theta <= 2.0:
        raise ValueError("hitting bound requires theta > 2")
    if r0 <= cond.l0:
        raise ValueError("need r0 > L0")
    bound = (r0 ** (2.0 - cond.theta) - cond.l0 ** (2.0 - cond.theta)) / (
        cond.k2 * (2.0 - cond.theta))
    return float(bound), float(cond.hitting_cap)


# ---------------------------------------------------------------------------
# Ensemble simulation
# ---------------------------------------------------------------------------


def _settle(x: np.ndarray, y: np.ndarray, merged: np.ndarray,
            eps: float) -> None:
    """Merge, in place, the rows of (x, y) within ``eps``; set y := x on every
    merged row, so a merged pair is bitwise equal from then on."""
    merged |= _rownorm(x - y) <= eps
    y[merged] = x[merged]


def _simulate_chunk(x0: np.ndarray, y0: np.ndarray, field: DriftField,
                    spec: StableSpec, lyap, cfg: SchemeConfig,
                    record_grid: np.ndarray, rng: np.random.Generator,
                    excess: ExcessComponent | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, d = x0.shape
    # synchronous coupling is the empty band: no pair reflects, so
    # coupled_jump returns (z, z) and draws no coins
    a, l0 = (0.0, 0.0) if lyap is None else (float(lyap.a), float(lyap.l0))
    X = x0.copy()
    Y = y0.copy()
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

    events = 0

    while rec < T:
        target = float(record_grid[rec])
        while t < target - 1e-12:
            h = min(cfg.dt_max, target - t)
            r = _rownorm(X - Y)
            reflecting = (~merged) & (r <= l0)
            delta = np.where(reflecting,
                             np.maximum(cfg.delta_floor, cfg.eps_delta * a * r),
                             cfg.delta_floor)
            split = decompose(spec, delta)
            lam = split.rate_above

            # one event round: gather the active rows once, drift them to
            # their jump time, jump, settle, scatter once
            t_path = np.zeros(n)
            next_jump = rng.standard_exponential(n) / lam
            while True:
                idx = np.nonzero(next_jump < h)[0]
                m = idx.size
                if not m:
                    break
                events += m
                if events > cfg.max_events:
                    raise EventBudgetError(
                        f"event budget {cfg.max_events} exceeded at t={t:g} "
                        f"({m} active paths)"
                    )
                tj = next_jump[idx]
                mi = merged[idx]
                live = ~mi
                xi, yi = _flow_pair(field, X[idx], Y[idx[live]],
                                    tj - t_path[idx], live)
                t_path[idx] = tj

                radius, z = _large_jumps(delta[idx], spec.alpha, d, m, rng)
                dx, dy = coupled_jump(xi, yi, z, radius, mi, a, l0, rng)
                xi += dx
                yi += dy
                _settle(xi, yi, mi, cfg.eps_couple)
                X[idx] = xi
                Y[idx] = yi
                merged[idx] = mi
                next_jump[idx] = tj + rng.standard_exponential(m) / lam[idx]

            # drift to the window end
            live = ~merged
            X, Y = _flow_pair(field, X, Y[live], h - t_path, live)

            # common Gaussian kick standing in for sub-delta jump activity;
            # identical on both components, so the separation is untouched
            g = (rng.standard_normal((n, d))
                 * np.sqrt(split.small_var_per_coord * h)[:, None])
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
    return xs, ys, mg


def require_positive_paths(n_paths: int) -> None:
    """Raise ValueError unless the ensemble size is positive."""
    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths}")


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
    pair reflects.
    """
    require_positive_paths(n_paths)
    record_grid = np.asarray(record_grid, dtype=float)
    if record_grid.ndim != 1 or len(record_grid) == 0:
        raise ValueError("record_grid must be a nonempty 1-d array")
    if record_grid.min() < 0.0 or record_grid.max() > horizon + 1e-12:
        raise ValueError("record_grid must lie within [0, horizon]")
    if np.any(np.diff(record_grid) <= 0.0):
        raise ValueError("record_grid must be strictly increasing")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    xs, ys, mg = _simulate_chunk(
        np.tile(x0, (n_paths, 1)), np.tile(y0, (n_paths, 1)), field, spec,
        lyap, cfg, record_grid, derive_stream(seed, 0), excess)
    return PathEnsemble(times=record_grid.copy(), xs=xs, ys=ys, merged=mg)


def simulate_marginal_ensemble(x0, field: DriftField, spec: StableSpec,
                               cfg: SchemeConfig, horizon: float, record_grid,
                               n_paths: int, seed: int,
                               excess: ExcessComponent | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Uncoupled ensemble of the single SDE, same scheme, no coupling machinery.

    Realized as pairs merged from the start (Y tracks X exactly); returns
    (times, xs) with xs of shape (n, T, d).
    """
    ens = simulate_coupled_ensemble(x0, x0, field, spec, None, cfg, horizon,
                                    record_grid, n_paths, seed, excess)
    return ens.times, ens.xs


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
