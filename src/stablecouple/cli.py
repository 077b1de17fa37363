"""Command-line orchestration.

Commands
--------
certify    gates, Lyapunov construction, rate sweep, certificate record
lyapunov   radial sweep CSV of the generator bound and contraction ratio
simulate   coupled ensemble; per-path CSV, positions CSV, decay series CSV
wp         empirical Wasserstein columns against the certified bound
example    full pipeline: certify, simulate, wp and a rate fit

The command is one positional argument; every flag applies to all five
commands and may come before or after it.

Configuration is a flat ``key = value`` text file plus flag overrides; runs
are deterministic given (config, seed).  Exit codes: 0 success, 2 gate
failure, 3 certificate failure, 4 bound-violation flag, 5 runtime guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling_engine import (
    DriftBlowupError,
    EventBudgetError,
    SchemeConfig,
    lyapunov_decay_series,
    read_positions_csv,
    read_table,
    require_event_budget,
    require_positive_paths,
    simulate_coupled_ensemble,
    write_paths_csv,
    write_positions_csv,
    write_table,
)
from .drift_models import check_small_alpha_gate, drift_from_label
from .lyapunov import (
    CertificateError,
    ContractionCertificate,
    GateError,
    build_lyapunov,
    contraction_certificate,
    rate_sweep,
)
from .stable_noise import _rownorm, isotropic_stable
from .wasserstein_metrics import _ASSIGNMENT_CAP as _EXACT_WP_CAP
from .wasserstein_metrics import (
    DegenerateFitError,
    contraction_rate_fit,
    coupling_wp_upper,
    exact_wp_with_stderr,
)

EXIT_OK = 0
EXIT_GATE = 2
EXIT_CERT = 3
EXIT_FLAGS = 4
EXIT_RUNTIME = 5

_VACUOUS_DECAY = 1e-3  # lambda * horizon below this: the bound barely decays


@dataclass
class ExperimentConfig:
    """Flat run configuration; every field is a config-file key and a flag.

    A key parses to its default's type; ``n_paths`` is the flag ``--paths``.
    The drift claims its own (K2, theta); ``k1`` and ``l0`` are free choices
    of the profile, because every registry drift is monotone.
    """

    d: int = 1
    alpha: float = 1.5
    k1: float = 1.0
    l0: float = 1.0
    drift: str = "power_potential"
    beta: float = 1.5
    kappa: float = 1.0
    drift_c: float = 1.0
    drift_q: float = 1.0
    p: float = 1.0
    n_paths: int = 1000
    horizon: float = 5.0
    grid_step: float = 0.25
    r0: float = 0.5
    x0: str = ""
    y0: str = ""
    seed: int = 20250810
    out: str = "runs/out"
    eps_couple: float = 1e-6
    delta_floor: float = 2e-2
    force_synchronous: bool = False


_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path: str | Path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def _coerce(key: str, val):
    if not isinstance(val, str):
        return val
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = val.lower()
        if low not in ("true", "false", "0", "1"):
            raise ValueError(f"bad boolean for {key}: {val!r}")
        return low in ("true", "1")
    return kind(val)


def build_config(file: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    merged: dict = {}
    if file:
        merged.update(parse_config_file(file))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in merged.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key: {key}")
        setattr(cfg, key, _coerce(key, val))
    return cfg


def _vector(name: str, text: str, d: int, fallback: np.ndarray) -> np.ndarray:
    if not text:
        return fallback
    vec = np.array([float(s) for s in text.split(",")], dtype=float)
    if len(vec) != d:
        raise ValueError(f"{name} must have {d} components, got {len(vec)}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite, got {text}")
    return vec


def resolve_model(cfg: ExperimentConfig):
    """Build (spec, cond, field, x0, y0) from a configuration.

    cond is the drift's claimed condition with the configured K1 and L0.
    """
    spec = isotropic_stable(cfg.d, cfg.alpha)
    field = drift_from_label(cfg.drift, cfg.d, beta=cfg.beta, kappa=cfg.kappa,
                             c=cfg.drift_c, q=cfg.drift_q)
    cond = dataclasses.replace(field.claimed_condition, k1=cfg.k1, l0=cfg.l0)
    if not math.isfinite(cfg.r0):
        raise ValueError(f"r0 must be finite, got {cfg.r0}")
    e1 = np.zeros(cfg.d)
    e1[0] = 1.0
    x0 = _vector("x0", cfg.x0, cfg.d, +0.5 * cfg.r0 * e1)
    y0 = _vector("y0", cfg.y0, cfg.d, -0.5 * cfg.r0 * e1)
    return spec, cond, field, x0, y0


def scheme_of(cfg: ExperimentConfig) -> SchemeConfig:
    return SchemeConfig(eps_couple=cfg.eps_couple, delta_floor=cfg.delta_floor)


def record_grid_of(cfg: ExperimentConfig) -> np.ndarray:
    """Multiples of grid_step up to the horizon, with the engine's 1e-12 slack
    (horizon 0.3, grid_step 0.1 gives 2.9999999999999996 steps, kept as 3),
    then the horizon itself when the last multiple falls short of it."""
    if not 0.0 <= cfg.horizon < math.inf:
        raise ValueError(f"horizon must lie in [0, inf), got {cfg.horizon}")
    if not 0.0 < cfg.grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {cfg.grid_step}")
    n_steps = math.floor((cfg.horizon + 1e-12) / cfg.grid_step)
    grid = np.linspace(0.0, n_steps * cfg.grid_step, n_steps + 1)
    if cfg.horizon - grid[-1] > 1e-12:
        grid = np.append(grid, cfg.horizon)
    return grid


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_certify(cfg: ExperimentConfig) -> int:
    spec, cond, _, _, _ = resolve_model(cfg)
    cert = contraction_certificate(spec, cond, cfg.p)
    out = _outdir(cfg)
    (out / "cert.txt").write_text(cert.to_record())
    print(f"lambda = {cert.lam:.12g} (lambda1_psi = {cert.lambda1_psi:.12g}, "
          f"lambda2 = {cert.lambda2:.12g}; chain lambda1 = {cert.lambda1:.12g}); "
          f"prefactor = {cert.prefactor:.12g}")
    if cert.t0 is not None:
        print(f"t0 = {cert.t0:.12g}")
    print(f"certificate written to {out / 'cert.txt'}")
    if cert.lam * cfg.horizon < _VACUOUS_DECAY:
        print(f"warning: vacuous certificate: lambda * horizon = "
              f"{cert.lam * cfg.horizon:.3g} < {_VACUOUS_DECAY:g}; the bound "
              f"barely decays over the horizon", file=sys.stderr)
    return EXIT_OK


def cmd_lyapunov(cfg: ExperimentConfig) -> int:
    spec, cond, _, _, _ = resolve_model(cfg)
    lyap = build_lyapunov(spec, cond)
    sweep = rate_sweep(lyap, spec, cond)
    out = _outdir(cfg)
    write_table(out / "lyapunov.csv", ["r", "generator_bound", "psi", "ratio"],
                np.column_stack([sweep.rs, sweep.generator_bound, sweep.psi,
                                 sweep.ratios]))
    print(f"lambda_star = {sweep.lambda_star:.12g}; sweep written to "
          f"{out / 'lyapunov.csv'}")
    inf_rs = sweep.rs[np.isposinf(sweep.psi)]
    if inf_rs.size:
        print(f"warning: psi overflows to inf on {inf_rs.size} of {len(sweep.rs)} "
              f"rows of lyapunov.csv, from r = {inf_rs[0]:.6g}", file=sys.stderr)
    sweep.require_certified()
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    spec, cond, field, x0, y0 = resolve_model(cfg)
    lyap = None if cfg.force_synchronous else build_lyapunov(spec, cond)
    grid = record_grid_of(cfg)
    ens = simulate_coupled_ensemble(x0, y0, field, spec, lyap, scheme_of(cfg),
                                    cfg.horizon, grid, cfg.n_paths, cfg.seed)
    out = _outdir(cfg)
    write_paths_csv(out / "paths.csv", ens, lyap)
    write_positions_csv(out / "positions.csv", ens)
    if lyap is not None:
        series = lyapunov_decay_series(ens, lyap)
        write_table(out / "psi_decay.csv", ["t", "mean_psi", "stderr", "n_paths"],
                    np.column_stack([series.times, series.mean, series.stderr,
                                     np.full(len(series.times), series.n_paths)]))
    print(f"simulated {cfg.n_paths} paths to horizon {cfg.horizon}; "
          f"outputs in {out}")
    if lyap is not None and not ens.merged[:, -1].any():
        print(f"warning: no pair merged by the horizon {cfg.horizon} with "
              f"reflection on (eps_couple = {cfg.eps_couple:g})", file=sys.stderr)
    return EXIT_OK


def cmd_wp(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    pos_file = out / "positions.csv"
    cert_file = out / "cert.txt"
    if not pos_file.exists():
        print(f"missing positions file {pos_file}", file=sys.stderr)
        return EXIT_RUNTIME
    if not cert_file.exists():
        print(f"missing certificate {cert_file}; run certify first",
              file=sys.stderr)
        return EXIT_RUNTIME
    ens = read_positions_csv(pos_file)
    cert = ContractionCertificate.from_record(cert_file.read_text())
    p = cert.p
    r0 = float(_rownorm(ens.xs[:, 0, :] - ens.ys[:, 0, :]).mean())

    flags = 0
    rows = []
    for k, t in enumerate(ens.times):
        xs, ys = ens.xs[:, k, :], ens.ys[:, k, :]
        upper, upper_se = coupling_wp_upper(xs, ys, p)
        if ens.n_paths <= _EXACT_WP_CAP:
            exact, exact_se = exact_wp_with_stderr(xs, ys, p)
        else:
            exact, exact_se = float("nan"), float("nan")
        bound = cert.wp_bound(float(t), r0)
        flagged = int(np.isfinite(exact) and exact > bound + 3.0 * exact_se)
        flags += flagged
        rows.append((t, upper, upper_se, exact, exact_se, bound, flagged))
    write_table(out / "wp.csv", ["t", "wp_upper", "wp_upper_se", "wp_exact",
                                 "wp_exact_se", "cert_bound", "flag"], rows)
    print(f"wp columns written to {out / 'wp.csv'}; flags = {flags}")
    return EXIT_FLAGS if flags else EXIT_OK


def cmd_example(cfg: ExperimentConfig) -> int:
    """Full pipeline for the configured drift: certify, simulate, wp, rate fit.

    For alpha <= 1 the admissibility gate is monotone in K1 L0^alpha, so K1
    and L0 are halved until it passes (each shrink is logged).  The rate fit
    needs psi_decay.csv, so ``force_synchronous`` is rejected up front, and
    so are invalid simulate inputs: no stage writes before they are checked.
    """
    if cfg.force_synchronous:
        raise ValueError("example needs the Lyapunov profile; "
                         "force_synchronous is not supported")
    record_grid_of(cfg)
    require_positive_paths(cfg.n_paths)
    spec, cond, _, _, _ = resolve_model(cfg)
    require_event_budget(spec, scheme_of(cfg), cfg.horizon, cfg.n_paths)
    shrinks = 0
    gate = check_small_alpha_gate(spec, cond)
    while not gate.passed:
        if shrinks == 200:
            raise GateError(gate.margin)
        cfg.k1 *= 0.5
        cfg.l0 *= 0.5
        shrinks += 1
        print(f"gate shrink {shrinks}: k1 = {cfg.k1:.6g}, l0 = {cfg.l0:.6g}")
        spec, cond, _, _, _ = resolve_model(cfg)
        gate = check_small_alpha_gate(spec, cond)

    status = cmd_certify(cfg)
    if status != EXIT_OK:
        return status
    status = cmd_simulate(cfg)
    if status != EXIT_OK:
        return status
    status_wp = cmd_wp(cfg)
    if status_wp not in (EXIT_OK, EXIT_FLAGS):
        return status_wp

    out = _outdir(cfg)
    cert = ContractionCertificate.from_record((out / "cert.txt").read_text())
    decay = read_table(out / "psi_decay.csv")
    pos = decay[:, 1] > 0.0
    last = len(pos) if pos.all() else int(np.argmin(pos))
    try:
        fit = contraction_rate_fit(decay[:last, 0], decay[:last, 1],
                                   decay[:last, 2])
        lam_hat, lam_se = fit.lambda_hat, fit.lambda_stderr
    except (DegenerateFitError, ValueError) as exc:
        print(f"rate fit skipped: {exc}", file=sys.stderr)
        lam_hat, lam_se = float("nan"), float("nan")
    flags = int(read_table(out / "wp.csv")[:, -1].sum())
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"lambda_cert = {cert.lam:.17g}\n")
        fh.write(f"lambda_hat = {lam_hat:.17g}\n")
        fh.write(f"lambda_hat_stderr = {lam_se:.17g}\n")
        fh.write(f"gate_shrinks = {shrinks}\n")
        fh.write(f"flags = {flags}\n")
    print(f"summary: lambda_cert = {cert.lam:.6g}, lambda_hat = {lam_hat:.6g} "
          f"+- {lam_se:.2g}, flags = {flags}")
    return EXIT_FLAGS if flags else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, kind in _FIELD_TYPES.items():
        flag = "--paths" if key == "n_paths" else "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_const", const=True, dest=key)
        else:
            parser.add_argument(flag, type=kind, dest=key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablecouple",
        description="coupled simulation and certified contraction rates for "
                    "stable-noise SDEs")
    commands = {"certify": cmd_certify, "lyapunov": cmd_lyapunov,
                "simulate": cmd_simulate, "wp": cmd_wp, "example": cmd_example}
    parser.add_argument("command", choices=commands)
    _add_common(parser)
    args = parser.parse_args(argv)

    overrides = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES}
    try:
        cfg = build_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        return commands[args.command](cfg)
    except GateError as exc:
        print(f"gate failure: small-alpha margin = {exc.margin:.12g} <= 0",
              file=sys.stderr)
        return EXIT_GATE
    except ValueError as exc:  # a parameter out of its domain; after GateError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERT
    except (EventBudgetError, DriftBlowupError, OverflowError) as exc:
        print(f"runtime guard: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
