"""stablecouple benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload headline_d1 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

A run repeats the workload's CLI pipeline, each repetition in a fresh
single-threaded worker process (``worker.py``), until ``--seconds`` have
passed, and reports medians over the repetitions.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untimed
and traced repetitions and reports the per-layer metrics.  Outputs are
checked after the first repetition, later repetitions must reproduce its
digests, and traced repetitions must reproduce the untimed ones.  The last
line of standard output is the JSON result; a record with the machine, the
environment, every repetition and (when traced) the spans is written under
``.perfbench_out/records``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

from probe import probe_s, scaled
from workloads import SELF_TEST, WORKLOADS, cert_stages

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED = {v: os.environ.get(v) for v in THREAD_VARS}
os.environ.update({v: "1" for v in THREAD_VARS})  # the harness's own numpy too
LAST_END = 150.0   # no worker starts that would end later than this into a run
HARD_STOP = 165.0  # a worker still running this long into the run is killed


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


# ---------------------------------------------------------------------------
# machine and environment record
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def machine_env(seed: int, worker_env: dict) -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(idx / "size")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "platform": platform.platform(),
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "seed": seed,
        "threads_inherited": INHERITED,
        "threads_worker": {v: worker_env[v] for v in THREAD_VARS},
        "pythonhashseed_worker": worker_env["PYTHONHASHSEED"],
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:  # one process per run, single-threaded BLAS
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every worker
    return env


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def run_worker(mode: str, workload: str, seed: int, tag: str, env: dict,
               stop: float, check: bool = False) -> dict:
    """Run one worker; it is killed (and fails) if still running at ``stop``.

    The result holds ``probe_spawn_s``, the probe time just before the
    worker starts, which brackets its set-up time with the worker's own
    first probe.
    """
    spawned = probe_s()
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--out", str(work),
           "--result", str(result)] + (["--check"] if check else [])
    timeout = max(1.0, stop - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
        res = json.loads(result.read_text()) if result.exists() else {
            "ok": False, "error": proc.stderr[-2000:]}
        res["stderr"] = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        res = {"ok": False, "error": f"worker killed after {timeout:.0f} s"}
    shutil.rmtree(work, ignore_errors=True)
    result.unlink(missing_ok=True)
    res["probe_spawn_s"] = spawned
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds``; return raw repetitions and checks.

    A discarded set-up worker warms the file cache first.  Then cycles run
    while another one still fits: a pipeline repetition, followed by a
    traced one (``trace``) or by a certify-only worker, which adds a
    ``time_to_cert_s`` sample.  Certify-only workers fill what is left.
    """
    stages = {**WORKLOADS, **SELF_TEST}[workload]
    env = worker_env()
    start = time.perf_counter()
    end = start + min(seconds, LAST_END)
    stop = start + HARD_STOP
    run_worker("setup", workload, seed, f"{workload}-{seed}-warm", env, stop)
    reps, traced, certs, checks = [], [], [], []

    def stage_checks(rep, kind, k, expected):
        codes = [s["code"] for s in rep.get("stages", [])]
        for i, (stage, _, sub) in enumerate(expected):
            checks.append((f"{kind}{k}:{stage}:{sub}:exit_0",
                           i < len(codes) and codes[i] == 0))

    def cert_worker(k):
        rep = run_worker("cert", workload, seed, f"{workload}-{seed}-c{k}", env, stop)
        certs.append(rep)
        stage_checks(rep, "cert", k, cert_stages(stages))
        digests = rep.get("digests")
        checks.append((f"cert{k}:digests_equal_rep0", bool(digests) and all(
            (reps[0].get("digests") or {}).get(f) == h for f, h in digests.items())))

    def fits(est):
        return time.perf_counter() + est <= end

    cycle = 0.0  # longest cycle so far
    k = 0
    while k == 0 or fits(cycle):
        t0 = time.perf_counter()
        rep = run_worker("cli", workload, seed, f"{workload}-{seed}-r{k}", env,
                         stop, check=(k == 0))
        reps.append(rep)
        stage_checks(rep, "rep", k, stages)
        if k == 0:
            checks += [(f"rep0:{name}", ok) for name, ok in rep.get("checks", [])]
            checks.append(("rep0:checks_ran", "checks" in rep))
        else:
            checks.append((f"rep{k}:digests_equal_rep0",
                           rep.get("digests") == reps[0].get("digests")))
        if trace:
            tr = run_worker("traced", workload, seed, f"{workload}-{seed}-t{k}",
                            env, stop)
            traced.append(tr)
            stage_checks(tr, "traced", k, stages)
            checks.append((f"traced{k}:digests_equal_untimed",
                           tr.get("digests") == rep.get("digests")))
        else:
            cert_worker(k)
        cycle = max(cycle, time.perf_counter() - t0)
        k += 1
    if not trace:
        longest = 0.0
        while fits(longest):
            t0 = time.perf_counter()
            cert_worker(len(certs))
            longest = max(longest, time.perf_counter() - t0)
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - start,
            "env": machine_env(seed, env), "reps": reps, "traced": traced,
            "certs": certs, "checks": checks}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def scaled_s(rep: dict, key: str) -> float | None:
    """A worker's time ``key`` in seconds at the reference machine speed."""
    if key == "setup_s":
        if "probe_after_setup_s" not in rep:
            return None
        return scaled(rep["setup_s"], rep["probe_spawn_s"], rep["probe_after_setup_s"])
    return rep.get(key + "_scaled")


def metrics_of(run: dict) -> dict:
    ok = [r for r in run["reps"] if r.get("ok")]
    certs_ok = [r for r in run["certs"] if r.get("ok")]
    n_checks = len(run["checks"])
    failed = sum(not passed for _, passed in run["checks"])
    raw = {}
    if not run["trace"]:
        timed = {"setup_s": run["reps"] + run["certs"],
                 "time_to_cert_s": ok + certs_ok, "pipeline_s": ok}
        found = {k: _median(scaled_s(r, k) for r in reps)
                 for k, reps in timed.items()}
        raw = {k: _median(r.get(k) for r in reps) for k, reps in timed.items()}
        found["peak_rss_mb"] = _median(r["peak_rss_mb"] for r in ok)
        found["pass_frac"] = (n_checks - failed) / n_checks
    else:
        found = {}
        traced_ok = [t for t in run["traced"] if t.get("ok")]
        for name in (traced_ok[0]["layers"] if traced_ok else ()):
            found[name] = _median(t["layers"][name] for t in traced_ok)
        untimed = _median(scaled_s(r, "pipeline_s") for r in ok)
        traced_s = _median(scaled_s(t, "pipeline_s") for t in traced_ok)
        if untimed and traced_s:
            found["trace.overhead_frac"] = traced_s / untimed - 1.0
        if ok:
            found["cli.certify_s"] = _median(
                sum(s["seconds"] for s in r["stages"] if s["stage"] == "certify")
                for r in ok)
            for stage in ("certify", "simulate", "wp", "lyapunov"):
                found[f"cli.{stage}_share"] = _median(
                    sum(s["seconds"] for s in r["stages"] if s["stage"] == stage)
                    / r["pipeline_s"] for r in ok)
    return {"attempted": n_checks, "failed": failed, "raw_s": raw,
            "metrics": {k: v for k, v in found.items() if v is not None}}


def result_line(summary: dict, units: dict) -> str:
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in summary["metrics"].items()},
    })


def write_record(run: dict, summary: dict) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}"
    spans = [t.pop("spans", None) for t in run["traced"]]
    if run["trace"]:
        (records / f"{stem}.spans.json").write_text(json.dumps(spans))
    path = records / f"{stem}.json"
    path.write_text(json.dumps({**run, "summary": summary}, indent=1))
    return path


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def self_test(spec: dict) -> int:
    """A gate failure is counted, not fatal; emitted names match BENCHMARK.json."""
    problems = []
    gate = metrics_of(measure("gate_fail", 1, 0.0, False))
    if not (gate["failed"] >= 1 and gate["metrics"].get("pass_frac", 1.0) < 1.0):
        problems.append(f"gate failure not counted: {gate}")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        summary = metrics_of(measure("tiny", 1, 0.0, trace))
        if summary["failed"]:
            problems.append(f"tiny pipeline (trace={trace}) failed checks: {summary}")
        emitted, wanted = set(summary["metrics"]), set(spec[kind])
        if emitted != wanted:
            problems.append(f"{kind}: undeclared {sorted(emitted - wanted)}, "
                            f"missing {sorted(wanted - emitted)}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "stablecouple" / "cli.py").is_file():
        print(f"no stablecouple sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = declared()
    if args.self_test:
        return self_test(spec)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.workload not in spec["workloads"]:
        ap.error(f"unknown workload {args.workload!r}; one of {spec['workloads']}")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = metrics_of(run)
    record = write_record(run, summary)
    kind = "per_layer" if args.trace else "end_to_end"
    missing = sorted(set(spec[kind]) - set(summary["metrics"]))
    undeclared = sorted(set(summary["metrics"]) - set(spec[kind]))
    bad = [name for name, passed in run["checks"] if not passed]
    print(f"{args.workload} seed={args.seed} reps={len(run['reps'])} "
          f"certs={len(run['certs'])} wall={run['wall_s']:.1f}s "
          f"checks={summary['attempted']} failed={bad} record={record.relative_to(ROOT)}")
    if summary["raw_s"]:
        print("unscaled wall-time medians: " + ", ".join(
            f"{k}={v:.4f}" for k, v in summary["raw_s"].items() if v is not None))
    if undeclared:
        print(f"metrics not declared in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 3
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        for rep in run["reps"] + run["traced"] + run["certs"]:
            if rep.get("error"):
                print(rep["error"], file=sys.stderr)
        return 1
    print(result_line(summary, spec[kind]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
