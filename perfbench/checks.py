"""Correctness checks on the files a workload's stages write.

Each check is a (name, passed) pair; the harness counts them into
``attempted`` and ``failed``.  The checks:

- ``cert.txt``: lambda finite and > 0, and the record round-trips through
  ``ContractionCertificate.from_record``;
- ``paths.csv`` / ``positions.csv``: paths x grid points rows, all finite;
- ``psi_decay.csv``: one finite row per grid point;
- ``wp.csv``: one row per grid point, every flag 0, all finite except the
  exact columns, which must be nan when the ensemble exceeds the exact cap;
- ``lyapunov.csv``: 400 rows with lambda* = min ratio > 0; r and the ratio
  finite, psi and the generator bound finite except where psi overflows
  the float range on the exponential tail (+inf, with a -inf bound).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from stablecouple import cli
from stablecouple.lyapunov import ContractionCertificate, default_radial_grid


@lru_cache(maxsize=None)
def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _overflow_consistent(sweep: np.ndarray) -> bool:
    """psi may overflow to +inf far out on the exponential tail, where the
    generator bound is then -inf; nothing else may be non-finite."""
    _, bound, psi, _ = sweep.T
    over = np.isposinf(psi)
    return bool(np.isfinite(psi[~over]).all() and np.isfinite(bound[~over]).all()
                and np.isneginf(bound[over]).all())


def check_outputs(stages: list) -> list[tuple[str, bool]]:
    results: list[tuple[str, bool]] = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"check {name}: {exc}")
            ok = False
        results.append((name, ok))

    for stage, fields in stages:
        cfg = cli.build_config(None, fields)
        out = Path(cfg.out)
        n_grid = len(cli.record_grid_of(cfg))
        tag = f"{stage}:{out.name}"
        if stage == "certify":
            def cert_ok():
                cert = ContractionCertificate.from_record((out / "cert.txt").read_text())
                return np.isfinite(cert.lam) and cert.lam > 0.0

            def cert_round_trip():
                cert = ContractionCertificate.from_record((out / "cert.txt").read_text())
                return ContractionCertificate.from_record(cert.to_record()) == cert

            check(f"{tag}:lambda_positive", cert_ok)
            check(f"{tag}:record_round_trip", cert_round_trip)
        elif stage == "simulate":
            rows = cfg.n_paths * n_grid
            for name in ("paths.csv", "positions.csv"):
                f = out / name
                check(f"{tag}:{name}:rows", lambda f=f: _table(f).shape[0] == rows)
                check(f"{tag}:{name}:finite", lambda f=f: np.isfinite(_table(f)).all())
            decay = out / "psi_decay.csv"
            check(f"{tag}:psi_decay.csv:rows", lambda: _table(decay).shape[0] == n_grid)
            check(f"{tag}:psi_decay.csv:finite", lambda: np.isfinite(_table(decay)).all())
        elif stage == "wp":
            wp = out / "wp.csv"
            exact, other = [3, 4], [0, 1, 2, 5, 6]  # wp_exact, wp_exact_se
            check(f"{tag}:wp.csv:rows", lambda: _table(wp).shape[0] == n_grid)
            check(f"{tag}:wp.csv:flags_zero", lambda: (_table(wp)[:, 6] == 0).all())
            check(f"{tag}:wp.csv:finite", lambda: np.isfinite(_table(wp)[:, other]).all())
            if cfg.n_paths <= cli._EXACT_WP_CAP:
                check(f"{tag}:wp.csv:exact_finite",
                      lambda: np.isfinite(_table(wp)[:, exact]).all())
            else:
                check(f"{tag}:wp.csv:exact_nan_above_cap",
                      lambda: np.isnan(_table(wp)[:, exact]).all())
        elif stage == "lyapunov":
            sweep = out / "lyapunov.csv"
            check(f"{tag}:lyapunov.csv:rows",
                  lambda: _table(sweep).shape[0] == len(default_radial_grid(cfg.l0)) == 400)
            check(f"{tag}:lyapunov.csv:r_ratio_finite",
                  lambda: np.isfinite(_table(sweep)[:, [0, 3]]).all())
            check(f"{tag}:lyapunov.csv:overflow_consistent",
                  lambda: _overflow_consistent(_table(sweep)))
            check(f"{tag}:lyapunov.csv:lambda_star_positive",
                  lambda: _table(sweep)[:, 3].min() > 0.0)
    return results
