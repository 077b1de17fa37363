"""Benchmark workloads: the CLI stages each one runs, built from a seed.

A workload is a list of stages.  Each stage is a CLI subcommand plus a flat
mapping of ``ExperimentConfig`` field names to string values; the untimed
worker turns it into ``stablecouple`` argv, the traced worker feeds the same
strings to ``cli.build_config``, so both paths see identical typed inputs.

Sizes are cut down from the paper's headline so that one pipeline takes a
few seconds and a run can repeat it; each workload keeps the layer mix that
makes it useful (see README.md for the measured stage shares).
"""

from __future__ import annotations

# ExperimentConfig field -> CLI flag
FLAGS = {
    "d": "--d", "alpha": "--alpha", "beta": "--beta", "p": "--p",
    "r0": "--r0", "k1": "--k1", "l0": "--l0", "drift": "--drift",
    "seed": "--seed", "n_paths": "--paths", "horizon": "--horizon",
    "grid_step": "--grid-step", "out": "--out",
}

_HEADLINE = {"d": "1", "alpha": "1.5", "beta": "1.5", "p": "1", "r0": "0.5"}


def _pipeline(model: dict, sim: dict, stages=("certify", "simulate", "wp")
              ) -> list[tuple[str, dict, str]]:
    fields = {**model, **sim}
    return [(stage, fields, ".") for stage in stages]


WORKLOADS = {
    # paper model, d=1: many small event rounds, so the jump loop dominates;
    # the lyapunov stage adds the radial sweep, after the certificate
    "headline_d1": _pipeline(_HEADLINE, {"n_paths": "512", "horizon": "1",
                                         "grid_step": "0.25"},
                             ("certify", "lyapunov", "simulate", "wp")),
    # the only d>=2 path: angular quadrature and exact 256x256 assignments
    "ot_d2": _pipeline({**_HEADLINE, "d": "2", "p": "2"},
                       {"n_paths": "256", "horizon": "0.25",
                        "grid_step": "0.125"}),
}

# used only by the self-test: a gate failure (alpha <= 1 with K1 = L0 = 1)
# and a pipeline small enough to run in a few seconds
SELF_TEST = {
    "gate_fail": [("certify", {"d": "1", "alpha": "0.9", "k1": "1",
                               "l0": "1"}, ".")],
    "tiny": _pipeline(_HEADLINE, {"n_paths": "32", "horizon": "0.25",
                                  "grid_step": "0.125"},
                      ("certify", "lyapunov", "simulate", "wp")),
}


def stages_for(stages: list, seed: int, out: str) -> list[tuple[str, dict]]:
    """Bind a workload's stages to a seed and an output root."""
    bound = []
    for name, fields, sub in stages:
        cfg = dict(fields)
        cfg["seed"] = str(seed)
        cfg["out"] = f"{out}/{sub}" if sub != "." else out
        bound.append((name, cfg))
    return bound


def cert_stages(stages: list) -> list:
    """The stages up to and including the last certify."""
    last = max(i for i, (name, _, _) in enumerate(stages) if name == "certify")
    return stages[:last + 1]


def argv_of(stage: str, fields: dict) -> list[str]:
    argv = [stage]
    for key, val in fields.items():
        argv += [FLAGS[key], val]
    return argv
