"""One measured repetition of a workload, in its own process.

Started by ``run.py``; not meant to be run by hand.  Modes:

- ``setup``:  time ``import stablecouple.cli`` plus ``resolve_model`` only;
- ``cert``:   set up, then run the stages up to the certificate through
              ``stablecouple.cli.main``, as ``cli`` does first;
- ``cli``:    set up, then run the stages through ``stablecouple.cli.main``
              in this process (the user's path), timing each stage;
- ``traced``: set up, then replay the stages through the layers' public
              functions with spans (see ``traced.py``).

The result (times, exit codes, peak RSS, output digests, optional output
checks and, when traced, per-layer figures and spans) is written as JSON to
``--result``.  ``probe.probe_s`` is timed after set-up and after every
stage, outside the stage times, so each stage time can be scaled to the
reference machine speed.  Only the standard library is imported before the
set-up clock starts, so ``setup_s`` includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digests(out: Path) -> dict[str, str]:
    found = {}
    for f in sorted(out.rglob("*")):
        if f.is_file():
            h = hashlib.sha256()
            with open(f, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            found[f.relative_to(out).as_posix()] = h.hexdigest()
    return found


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "cert", "cli", "traced"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()

    from workloads import SELF_TEST, WORKLOADS, cert_stages, stages_for

    stages = {**WORKLOADS, **SELF_TEST}[args.workload]
    if args.mode == "cert":
        stages = cert_stages(stages)
    stages = stages_for(stages, args.seed, args.out)
    res: dict = {"mode": args.mode, "ok": False, "stages": []}
    try:
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import stablecouple
        from stablecouple import cli

        cli.resolve_model(cli.build_config(None, stages[0][1]))
        res["setup_s"] = time.perf_counter() - t0
        src = (ROOT / "src").resolve()
        if src not in Path(stablecouple.__file__).resolve().parents:
            raise RuntimeError(f"stablecouple imported from {stablecouple.__file__}, "
                               f"not from {src}")
        if args.mode == "setup":
            res["ok"] = True
        else:
            _run_stages(args.mode, stages, res)
            res["digests"] = _digests(Path(args.out))
            if args.check:
                from checks import check_outputs
                res["checks"] = check_outputs(stages)
    except Exception:  # the harness reports any failure as a failed check
        res["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(res))
    return 0


def _run_stages(mode: str, stages: list, res: dict) -> None:
    from probe import probe_s, scaled
    from workloads import argv_of

    if mode in ("cert", "cli"):
        from stablecouple import cli

        def run(stage, fields):
            return cli.main(argv_of(stage, fields))
    else:
        from traced import Replay, StageFailed

        replay = Replay()

        def run(stage, fields):
            try:
                replay.run(stage, fields)
            except StageFailed as exc:
                print(exc, file=sys.stderr)
                return exc.code
            return 0

    # the probe brackets every stage; its own time is left out of the stage
    # times, so pipeline_s is the sum of the stage times
    probe = probe_s()
    res["probe_after_setup_s"] = probe
    for stage, fields in stages:
        t0 = time.perf_counter()
        code = run(stage, fields)
        t1 = time.perf_counter()
        after = probe_s()
        res["stages"].append({"stage": stage, "code": code, "seconds": t1 - t0,
                              "probe_s": [probe, after]})
        probe = after
        if code != 0:
            return
    res["peak_rss_mb"] = _peak_rss_mb()
    last_cert = max(i for i, s in enumerate(res["stages"]) if s["stage"] == "certify")
    for key, upto in (("pipeline_s", len(stages)), ("time_to_cert_s", last_cert + 1)):
        done = res["stages"][:upto]
        res[key] = sum(s["seconds"] for s in done)
        res[key + "_scaled"] = sum(scaled(s["seconds"], *s["probe_s"]) for s in done)
    res["ok"] = True
    if mode == "traced":
        res["layers"] = replay.layer_metrics()
        res["spans"] = replay.tracer.spans


if __name__ == "__main__":
    sys.exit(main())
