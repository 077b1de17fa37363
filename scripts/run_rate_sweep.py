#!/usr/bin/env python3
"""Radial sweep of the coupled-generator contraction ratio.

Sweeps -L psi(r) / psi(r) over a geometric radial grid for a chosen model
and reports the certified infimum, writing the per-radius CSV.  The low-alpha
default (alpha = 1, K1 = 0.05) is the regime where the closed-form
small-separation rate is tight as r -> 0.

Usage:
    python scripts/run_rate_sweep.py [--alpha A] [--k1 K1] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stablecouple.cli import EXIT_OK
from stablecouple.cli import main as cli_main
from stablecouple.drift_models import DriftCondition, check_small_alpha_gate
from stablecouple.lyapunov import build_lyapunov, small_distance_rate
from stablecouple.stable_noise import isotropic_stable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--k1", type=float, default=0.05)
    ap.add_argument("--k2", type=float, default=1.0)
    ap.add_argument("--l0", type=float, default=1.0)
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--out", default="runs/sweep")
    args = ap.parse_args()

    spec = isotropic_stable(args.d, args.alpha)
    cond = DriftCondition(k1=args.k1, k2=args.k2, l0=args.l0, theta=2.0)
    gate = check_small_alpha_gate(spec, cond)
    print(f"small-alpha gate: margin = {gate.margin:.6g} "
          f"({'passes' if gate.passed else 'fails'})")
    code = cli_main(["lyapunov", "--alpha", str(args.alpha), "--d", str(args.d),
                     "--k1", str(args.k1), "--k2", str(args.k2),
                     "--l0", str(args.l0), "--theta", "2", "--drift", "monomial",
                     "--out", args.out])
    if code == EXIT_OK:
        lyap = build_lyapunov(spec, cond)
        print(f"closed-form small-separation rate: "
              f"{small_distance_rate(lyap, spec, cond):.6g}")
    return code

if __name__ == "__main__":
    sys.exit(main())
