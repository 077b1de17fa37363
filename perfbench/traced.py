"""Traced replay of the CLI stages through each layer's public functions.

Each ``cmd_*`` stage of ``stablecouple.cli`` is replayed step by step with a
span (name, start, end, parent) around every call into a layer, so a
layer's self time is its spans' duration minus their children.  The drift
field is observed by handing the engine a wrapped ``DriftField`` (a public
input) that counts calls and rows and times ``evaluate``; nothing in the
package is patched.  The replay writes the same files as the CLI, which
the harness checks by digest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from stablecouple import cli
from stablecouple.coupling_engine import (
    lyapunov_decay_series,
    read_positions_csv,
    simulate_coupled_ensemble,
    write_paths_csv,
    write_positions_csv,
)
from stablecouple.drift_models import DriftField, check_small_alpha_gate
from stablecouple.lyapunov import (
    ContractionCertificate,
    build_lyapunov,
    contraction_certificate,
    default_radial_grid,
    distance_generator_bound,
    rate_sweep,
    tail_envelope_positivity,
)
from stablecouple.stable_noise import decompose
from stablecouple.streams import derive_stream
from stablecouple.wasserstein_metrics import (
    bootstrap_wp_stderr,
    coupling_wp_upper,
    exact_empirical_wp,
)

N_BOOT = 60  # bootstrap resamples per grid time in cmd_wp


class StageFailed(RuntimeError):
    """A replayed stage hit the exit path the CLI reports with ``code``."""

    def __init__(self, stage: str, code: int, why: str):
        self.code = code
        super().__init__(f"{stage}: {why}")


class Tracer:
    """In-memory span recorder; spans are dumped when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class DriftCounter:
    """Counts and times drift evaluations; the engine sees only a DriftField."""

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.seconds = 0.0

    def wrap(self, field: DriftField) -> DriftField:
        inner = field.evaluate

        def evaluate(x):
            t0 = time.perf_counter()
            out = inner(x)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            self.rows += x.shape[0] if x.ndim == 2 else 1
            return out

        return DriftField(evaluate=evaluate, d=field.d, label=field.label,
                          claimed_condition=field.claimed_condition)


class Replay:
    """Replays CLI stages with spans and layer counters."""

    def __init__(self):
        self.tracer = Tracer()
        self.drift = DriftCounter()
        self.counts = {"radii": 0, "radii_quadrature": 0, "solves": 0,
                       "cost_matrix_bytes": 0, "csv_rows_written": 0,
                       "csv_rows_read": 0, "csv_bytes": 0, "paths": 0,
                       "path_time": 0.0, "jumps_bound": 0.0,
                       "rate_above_floor": 0.0, "merged_T": 0, "psi_T_sum": 0.0}

    def run(self, stage: str, fields: dict) -> None:
        cfg = cli.build_config(None, fields)
        with self.tracer.span(f"cli.{stage}"):
            getattr(self, stage)(cfg)

    # -- stages -------------------------------------------------------------

    def _model(self, cfg):
        with self.tracer.span("cli.resolve_model"):
            spec, cond, field, x0, y0 = cli.resolve_model(cfg)
        if not self.counts["rate_above_floor"]:
            self.counts["rate_above_floor"] = decompose(spec, cfg.delta_floor).rate_above
        with self.tracer.span("drift_models.check_small_alpha_gate"):
            gate = check_small_alpha_gate(spec, cond)
        if not gate.passed:
            raise StageFailed("gate", cli.EXIT_GATE,
                              f"small-alpha margin {gate.margin:.12g} <= 0")
        return spec, cond, field, x0, y0

    def certify(self, cfg) -> None:
        spec, cond, _, _, _ = self._model(cfg)
        span = self.tracer.span
        with span("lyapunov.build_lyapunov"):
            lyap = build_lyapunov(spec, cond)
        with span("lyapunov.tail_envelope_positivity"):
            envelope = tail_envelope_positivity(lyap)
        if not envelope.ok:
            raise StageFailed("certify", cli.EXIT_CERT, "tail envelope")
        with span("lyapunov.rate_sweep"):
            sweep = rate_sweep(lyap, spec, cond)
        self.counts["radii"] += len(sweep.rs)
        self.counts["radii_quadrature"] += int(np.sum(sweep.rs <= cond.l0))
        if not sweep.certified:
            raise StageFailed("certify", cli.EXIT_CERT, "contraction ratio")
        with span("lyapunov.contraction_certificate"):
            cert = contraction_certificate(spec, cond, cfg.p)
        out = cli._outdir(cfg)
        (out / "cert.txt").write_text(cert.to_record())

    def lyapunov(self, cfg) -> None:
        spec, cond, _, _, _ = self._model(cfg)
        span = self.tracer.span
        with span("lyapunov.build_lyapunov"):
            lyap = build_lyapunov(spec, cond)
        grid = default_radial_grid(cond.l0)
        rows = []
        with span("lyapunov.radial_sweep"):
            for r in grid:
                r = float(r)
                if r <= cond.l0:
                    bound = distance_generator_bound(lyap, spec, cond, r)
                    psi = float(lyap.value(r))
                    ratio = -bound / psi
                else:
                    ratio = cond.k2 * r ** (cond.theta - 1.0) * lyap.prime_over_value(r)
                    psi = float(lyap.value(r))
                    bound = -ratio * psi
                rows.append((r, bound, psi, ratio))
        self.counts["radii"] += len(grid)
        self.counts["radii_quadrature"] += int(np.sum(grid <= cond.l0))
        out = cli._outdir(cfg)
        with open(out / "lyapunov.csv", "w") as fh:
            fh.write("r,generator_bound,psi,ratio\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        if not min(row[3] for row in rows) > 0.0:
            raise StageFailed("lyapunov", cli.EXIT_CERT, "lambda_star <= 0")

    def simulate(self, cfg) -> None:
        spec, cond, field, x0, y0 = self._model(cfg)
        span = self.tracer.span
        with span("lyapunov.build_lyapunov"):
            lyap = build_lyapunov(spec, cond)
        grid = cli.record_grid_of(cfg)
        with span("coupling_engine.simulate_coupled_ensemble"):
            ens = simulate_coupled_ensemble(x0, y0, self.drift.wrap(field), spec,
                                            lyap, cli.scheme_of(cfg),
                                            cfg.horizon, grid, cfg.n_paths,
                                            cfg.seed)
        out = cli._outdir(cfg)
        with span("coupling_engine.write_paths_csv"):
            write_paths_csv(out / "paths.csv", ens, lyap)
        with span("coupling_engine.write_positions_csv"):
            write_positions_csv(out / "positions.csv", ens)
        with span("coupling_engine.lyapunov_decay_series"):
            series = lyapunov_decay_series(ens, lyap)
        with open(out / "psi_decay.csv", "w") as fh:
            fh.write("t,mean_psi,stderr,n_paths\n")
            for t, m, s in zip(series.times, series.mean, series.stderr):
                fh.write(f"{t:.17g},{m:.17g},{s:.17g},{series.n_paths}\n")
        c = self.counts
        c["paths"] += cfg.n_paths
        c["path_time"] += cfg.n_paths * cfg.horizon
        c["jumps_bound"] += c["rate_above_floor"] * cfg.n_paths * cfg.horizon
        c["csv_rows_written"] += 2 * ens.n_paths * len(ens.times)
        c["csv_bytes"] += sum((out / f).stat().st_size
                              for f in ("paths.csv", "positions.csv"))
        c["merged_T"] += int(ens.merged[:, -1].sum())
        c["psi_T_sum"] += float(series.mean[-1]) * cfg.n_paths

    def wp(self, cfg) -> None:
        span = self.tracer.span
        out = cli._outdir(cfg)
        with span("coupling_engine.read_positions_csv"):
            ens = read_positions_csv(out / "positions.csv")
        self.counts["csv_rows_read"] += ens.n_paths * len(ens.times)
        with span("lyapunov.ContractionCertificate.from_record"):
            cert = ContractionCertificate.from_record((out / "cert.txt").read_text())
        p = cert.p
        r0 = float(np.linalg.norm(ens.xs[:, 0, :] - ens.ys[:, 0, :], axis=1).mean())
        rng = derive_stream(cfg.seed, 997)
        exact_ok = ens.n_paths <= cli._EXACT_WP_CAP
        flags = 0
        rows = []
        for k, t in enumerate(ens.times):
            xs, ys = ens.xs[:, k, :], ens.ys[:, k, :]
            with span("wasserstein_metrics.coupling_wp_upper"):
                upper, upper_se = coupling_wp_upper(xs, ys, p)
            if exact_ok:
                with span("wasserstein_metrics.exact_empirical_wp"):
                    exact = exact_empirical_wp(xs, ys, p)
                with span("wasserstein_metrics.bootstrap_wp_stderr"):
                    exact_se = bootstrap_wp_stderr(xs, ys, p, rng, n_boot=N_BOOT)
            else:
                exact, exact_se = float("nan"), float("nan")
            bound = cert.wp_bound(float(t), r0)
            flagged = int(np.isfinite(exact) and exact > bound + 3.0 * exact_se)
            flags += flagged
            rows.append((t, upper, upper_se, exact, exact_se, bound, flagged))
        if exact_ok:
            self.counts["solves"] += (1 + N_BOOT) * len(ens.times)
            if ens.xs.shape[2] > 1:
                self.counts["cost_matrix_bytes"] = max(
                    self.counts["cost_matrix_bytes"], ens.n_paths ** 2 * 8)
        with open(out / "wp.csv", "w") as fh:
            fh.write("t,wp_upper,wp_upper_se,wp_exact,wp_exact_se,cert_bound,flag\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row[:-1]) + f",{row[-1]}\n")
        if flags:
            raise StageFailed("wp", cli.EXIT_FLAGS, f"{flags} flagged grid times")

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures from the spans and counters of this replay."""
        spans = self.tracer.spans
        dur = {s["id"]: s["end"] - s["start"] for s in spans}
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += dur[s["id"]]
        self_time: dict[str, float] = {}
        for s in spans:
            name = s["name"]
            self_time[name] = self_time.get(name, 0.0) + dur[s["id"]] - child[s["id"]]

        def total(prefix):
            return sum(v for k, v in self_time.items() if k.startswith(prefix))

        stage_s = sum(dur[s["id"]] for s in spans if s["parent"] is None)
        field_s = self.drift.seconds
        csv_s = sum(self_time.get(f"coupling_engine.{f}", 0.0) for f in
                    ("write_paths_csv", "write_positions_csv", "read_positions_csv"))
        read_s = self_time.get("coupling_engine.read_positions_csv", 0.0)
        write_s = csv_s - read_s
        engine_s = total("coupling_engine.") - csv_s - field_s
        sim_s = self_time.get("coupling_engine.simulate_coupled_ensemble", 0.0)
        sweep_s = (self_time.get("lyapunov.rate_sweep", 0.0)
                   + self_time.get("lyapunov.radial_sweep", 0.0))
        solve_s = (self_time.get("wasserstein_metrics.exact_empirical_wp", 0.0)
                   + self_time.get("wasserstein_metrics.bootstrap_wp_stderr", 0.0))
        c = self.counts

        def ratio(num, den):  # 0 where the workload bypasses the layer
            return num / den if den > 0 else 0.0

        return {
            "cli.glue_share": total("cli.") / stage_s,
            "lyapunov.share": total("lyapunov.") / stage_s,
            "lyapunov.build_s": self_time.get("lyapunov.build_lyapunov", 0.0),
            "lyapunov.rate_sweep_s": sweep_s,
            "lyapunov.certificate_s": self_time.get("lyapunov.contraction_certificate", 0.0),
            "lyapunov.radii_per_s": ratio(c["radii"], sweep_s),
            "lyapunov.jump_term_us": 1e6 * sweep_s / max(c["radii_quadrature"], 1),
            "coupling_engine.jump_loop_share": engine_s / stage_s,
            "coupling_engine.csv_share": csv_s / stage_s,
            "coupling_engine.path_time_per_s": ratio(c["path_time"], sim_s),
            "coupling_engine.jumps_bound": c["jumps_bound"],
            "coupling_engine.jumps_per_s_bound": ratio(c["jumps_bound"], sim_s),
            "coupling_engine.psi_T": ratio(c["psi_T_sum"], c["paths"]),
            "coupling_engine.merged_frac_T": ratio(c["merged_T"], c["paths"]),
            "coupling_engine.csv_rows": c["csv_rows_written"],
            "coupling_engine.csv_bytes": c["csv_bytes"],
            "coupling_engine.csv_write_rows_per_s": ratio(c["csv_rows_written"], write_s),
            "coupling_engine.csv_read_rows_per_s": ratio(c["csv_rows_read"], read_s),
            "drift_models.share": (total("drift_models.") + field_s) / stage_s,
            "drift_models.field_calls": self.drift.calls,
            "drift_models.field_rows": self.drift.rows,
            "drift_models.rows_per_call": ratio(self.drift.rows, self.drift.calls),
            "drift_models.field_share": ratio(field_s, sim_s),
            "wasserstein_metrics.share": total("wasserstein_metrics.") / stage_s,
            "wasserstein_metrics.solves": c["solves"],
            "wasserstein_metrics.solves_per_s": ratio(c["solves"], solve_s),
            "wasserstein_metrics.cost_matrix_mb": c["cost_matrix_bytes"] / 1e6,
            "stable_noise.rate_above_floor": c["rate_above_floor"],
        }
