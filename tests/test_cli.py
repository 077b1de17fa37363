"""End-to-end command-line runs at small budgets."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stablecouple import cli
from stablecouple.cli import (
    EXIT_CERT,
    EXIT_GATE,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    build_config,
    main,
    parse_config_file,
    record_grid_of,
)
from stablecouple.lyapunov import ContractionCertificate


def run(argv):
    return main(argv)


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# demo configuration\n"
        "alpha = 1.5\n"
        "n_paths = 32\n"
        "force_synchronous = true\n"
    )
    parsed = parse_config_file(cfg_file)
    assert parsed["alpha"] == "1.5"
    cfg = build_config(str(cfg_file), {"n_paths": 64})
    assert cfg.alpha == 1.5
    assert cfg.n_paths == 64
    assert cfg.force_synchronous is True


def test_every_config_field_parses_from_its_flag(monkeypatch):
    # each ExperimentConfig field has a flag that yields the field's type
    seen = {}

    def fake_certify(cfg):
        seen["cfg"] = cfg
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_certify", fake_certify)
    argv = ["certify"]
    want = {}
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--paths" if f.name == "n_paths" else "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            argv.append(flag)
            want[f.name] = True
        elif isinstance(f.default, (int, float)):
            argv += [flag, "7"]
            want[f.name] = type(f.default)(7)
        else:
            argv += [flag, "text"]
            want[f.name] = "text"
    assert main(argv) == EXIT_OK
    cfg = seen["cfg"]
    for name, value in want.items():
        got = getattr(cfg, name)
        assert type(got) is type(value) and got == value, name
    assert cfg.n_paths == 7


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        build_config(str(cfg_file), {})


def test_certify_default_success(tmp_path):
    out = tmp_path / "run"
    code = run(["certify", "--alpha", "1.5", "--out", str(out), "--p", "1"])
    assert code == EXIT_OK
    record = (out / "cert.txt").read_text()
    assert "lambda1 = 1.0258998198510" in record
    assert "# closed-form" in record and "# numeric-infimum" in record


def test_certify_gate_failure_names_margin(tmp_path, capsys):
    code = run(["certify", "--alpha", "1", "--k1", "1", "--l0", "1",
                "--out", str(tmp_path / "g")])
    captured = capsys.readouterr()
    assert code == EXIT_GATE
    want = 1.0 / (4.0 * math.pi) - 1.0
    assert f"{want:.12g}" in captured.err


def test_certify_theta_gt2_has_t0(tmp_path):
    out = tmp_path / "run3"
    code = run(["certify", "--alpha", "1.5", "--beta", "1.5", "--out", str(out)])
    assert code == EXIT_OK
    # power_potential with beta=1.5 gives theta = 3 > 2
    assert "t0 = " in (out / "cert.txt").read_text()


def test_certify_takes_k2_theta_from_the_drift(tmp_path):
    out = tmp_path / "mono"
    code = run(["certify", "--drift", "monomial", "--drift-c", "2",
                "--drift-q", "1", "--out", str(out)])
    assert code == EXIT_OK
    inputs = ContractionCertificate.from_record(
        (out / "cert.txt").read_text()).inputs
    assert inputs["k2"] == 2.0 * 2.0 ** -1.0
    assert inputs["theta_in"] == 3.0


@pytest.mark.parametrize("key", ["k2", "theta", "eps_delta", "dt_max"])
def test_k2_theta_are_not_options(tmp_path, capsys, key):
    # (K2, theta) come from the drift's claim, delta_floor is the only
    # truncation radius and the window length is a constant of the engine:
    # no flag or config key sets any of them
    with pytest.raises(SystemExit) as info:
        run(["certify", "--" + key.replace("_", "-"), "2",
             "--out", str(tmp_path / "f")])
    assert info.value.code == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = 2\n")
    capsys.readouterr()
    code = run(["certify", "--config", str(cfg_file),
                "--out", str(tmp_path / "c")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"configuration error: unknown config key: {key}\n")
    assert not (tmp_path / "f").exists() and not (tmp_path / "c").exists()


def test_lyapunov_sweep_csv(tmp_path):
    out = tmp_path / "ly"
    code = run(["lyapunov", "--alpha", "1.5", "--drift", "monomial",
                "--k1", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = np.loadtxt(out / "lyapunov.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    assert np.all(rows[:, 3] > 0.0)  # certified ratio positive on the grid


@pytest.mark.parametrize("flags, cert_sha256, sweep_sha256", [
    ([], "ad6847dec26a0d88f0cb723cd00807fcd5e3bd494eeeacf59a69967f07b4bd9b",
     "28fb60a0fe5a60493072a72af32c85298e25c166d8a6891a9c6da854c1118c33"),
    (["--d", "2", "--p", "2"],
     "29a85a3d5729c9aa7494d3252bfaad80ad8a09240a52d827ccabda13823d355d",
     "222a28c51cf1763cdefab8ff98eb5f3094cfcf424e3c9017409420c02d00087c"),
    (["--alpha", "1", "--k1", "0.05", "--drift", "monomial"],
     "e30234299bb43729b9b8a38b0838eebd61fa2d2066a905555ee478b86388703a",
     "d0de4911cc31695d17101cef77775d1cff1add822c78646760746a9a08aa188e"),
], ids=["headline_d1", "ot_d2", "alpha1_monomial"])
def test_certificate_outputs_golden_digests(tmp_path, flags, cert_sha256,
                                            sweep_sha256):
    # cert.txt and lyapunov.csv pinned bitwise (recorded with Python 3.11,
    # numpy 2.4 and scipy 1.17 on x86-64): a refactor of the certificate
    # layer must not move a bit of either
    out = tmp_path / "gold"
    assert run(["certify"] + flags + ["--out", str(out)]) == EXIT_OK
    assert run(["lyapunov"] + flags + ["--out", str(out)]) == EXIT_OK
    for name, want in (("cert.txt", cert_sha256), ("lyapunov.csv", sweep_sha256)):
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, name


def test_certify_and_lyapunov_near_alpha_two(tmp_path):
    # alpha -> 2 puts a 1/(2 - alpha) = 100 factor on the first term of the
    # jump-term series; RuntimeWarnings are errors under the test settings
    out = tmp_path / "a199"
    for stage in ("certify", "lyapunov"):
        argv = [stage, "--alpha", "1.99", "--k1", "1", "--out", str(out)]
        assert run(argv) == EXIT_OK
    cert = ContractionCertificate.from_record((out / "cert.txt").read_text())
    assert math.isfinite(cert.lam) and cert.lam > 0.0
    assert (out / "lyapunov.csv").exists()


def test_certify_underflowing_tail_is_certificate_failure(tmp_path, capsys):
    # alpha = 1.2 with K1 = K2 = L0 = 1 gives c1 = 5.5e4, so the tail
    # coefficient A = (c1/c2) e^(-2 L0 c1) underflows to 0
    code = run(["certify", "--alpha", "1.2", "--out", str(tmp_path / "c")])
    assert code == EXIT_CERT
    assert "certificate failure" in capsys.readouterr().err


def test_lyapunov_large_c1_is_certificate_failure(tmp_path, capsys):
    # c1 = 5.5e4: the tail coefficient underflows, so no sweep row is finite
    # on the tail and no lyapunov.csv is written
    out = tmp_path / "l"
    code = run(["lyapunov", "--alpha", "1.2", "--out", str(out)])
    assert code == EXIT_CERT
    assert "certificate failure" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists()


def test_simulate_underflowing_tail_is_certificate_failure(tmp_path, capsys):
    # the profile psi would be 0 * inf = nan on its tail: no file is written
    out = tmp_path / "s"
    code = run(["simulate", "--alpha", "1.2", "--r0", "3", "--paths", "64",
                "--horizon", "0.5", "--out", str(out)])
    assert code == EXIT_CERT
    assert "certificate failure" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_simulate_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    argv = ["simulate", "--alpha", "1.5", "--beta", "1.5", "--paths", "32",
            "--horizon", "0.5", "--grid-step", "0.25", "--seed", "42"]
    assert run(argv + ["--out", str(out1)]) == EXIT_OK
    assert run(argv + ["--out", str(out2)]) == EXIT_OK
    for name in ("paths.csv", "positions.csv", "psi_decay.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "paths.csv").read_text().splitlines()[0]
    assert header == "path_id,t,r,psi_r,merged"


def test_simulate_equal_start_zero_decay(tmp_path):
    out = tmp_path / "z"
    code = run(["simulate", "--alpha", "1.5", "--beta", "1.5", "--paths", "16",
                "--horizon", "0.5", "--grid-step", "0.25", "--r0", "0",
                "--out", str(out)])
    assert code == EXIT_OK
    decay = np.loadtxt(out / "psi_decay.csv", delimiter=",", skiprows=1)
    assert np.allclose(decay[:, 1], 0.0)


def test_wp_pipeline_no_flags(tmp_path):
    out = tmp_path / "wp"
    base = ["--alpha", "1.5", "--beta", "1.5", "--p", "1", "--out", str(out),
            "--seed", "7"]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "64", "--horizon", "1",
                "--grid-step", "0.5"] + base) == EXIT_OK
    code = run(["wp"] + base)
    assert code == EXIT_OK
    rows = np.loadtxt(out / "wp.csv", delimiter=",", skiprows=1)
    # t=0: exact equals |x0-y0| for two point masses
    assert rows[0, 3] == pytest.approx(0.5, rel=1e-9)
    # upper bound dominates the exact distance everywhere
    assert np.all(rows[:, 1] >= rows[:, 3] - 1e-12)
    assert np.all(rows[:, 6] == 0)


def test_wp_missing_inputs(tmp_path):
    code = run(["wp", "--out", str(tmp_path / "none")])
    assert code == 5


def test_example_pipeline_high_alpha(tmp_path):
    out = tmp_path / "ex"
    code = run(["example", "--alpha", "1.5", "--beta", "1.5", "--p", "1",
                "--paths", "64", "--horizon", "1", "--grid-step", "0.25",
                "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "lambda_cert" in summary and "lambda_hat" in summary
    assert "flags = 0" in summary


def test_example_auto_shrink_low_alpha(tmp_path, capsys):
    out = tmp_path / "ex9"
    code = run(["example", "--alpha", "0.9", "--beta", "1.5", "--p", "1",
                "--paths", "16", "--horizon", "0.5", "--grid-step", "0.25",
                "--seed", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "gate shrink" in captured.out
    assert "gate_shrinks" in (out / "summary.txt").read_text()


def test_example_runs_the_configured_drift(tmp_path):
    # example certifies the drift it is given, not power_potential
    out = tmp_path / "exlin"
    code = run(["example", "--drift", "linear", "--kappa", "0.7",
                "--paths", "4", "--horizon", "0.25", "--grid-step", "0.25",
                "--out", str(out)])
    assert code == EXIT_OK
    inputs = ContractionCertificate.from_record(
        (out / "cert.txt").read_text()).inputs
    assert inputs["k2"] == 0.7
    assert inputs["theta_in"] == 2.0


def test_example_invalid_beta(tmp_path, capsys):
    # reported like every other model flag, as a configuration error
    code = run(["example", "--beta", "1", "--out", str(tmp_path / "bad")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(
        "configuration error: beta must exceed 1")


@pytest.mark.parametrize("flags", [["--paths", "0"], ["--eps-couple", "0"],
                                   ["--grid-step", "0"]])
def test_example_checks_simulate_inputs_first(tmp_path, capsys, flags):
    # an invalid simulate input stops the run before certify writes
    out = tmp_path / "ex0"
    code = run(["example", "--paths", "8", "--horizon", "0.25"] + flags
               + ["--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "cert.txt").exists()


def test_event_budget_is_checked_before_any_write(tmp_path, capsys):
    # delta_floor = 1e-7 expects about 6e13 explicit jumps on the default
    # ensemble: simulate and example both stop at once and write nothing
    out = tmp_path / "budget"
    for command in ("simulate", "example"):
        code = run([command, "--delta-floor", "1e-7", "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime guard: ") and "budget" in err
        assert not out.exists()


def test_lyapunov_warns_when_psi_overflows(tmp_path, capsys):
    # the headline profile saturates: psi is +inf on the sweep's last rows
    out = tmp_path / "overflow"
    assert run(["lyapunov", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: psi overflows to inf on 44 of 400 rows of lyapunov.csv, "
        "from r = 2.8917\n")
    psi = np.loadtxt(out / "lyapunov.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.isposinf(psi).sum() == 44


def test_example_rejects_force_synchronous(tmp_path, capsys):
    # without a profile simulate writes no psi_decay.csv for the rate fit,
    # so the run stops before any stage writes
    out = tmp_path / "sync"
    code = run(["example", "--force-synchronous", "--paths", "16",
                "--horizon", "0.25", "--grid-step", "0.25", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "configuration error: " in capsys.readouterr().err
    assert not (out / "summary.txt").exists()
    assert not (out / "cert.txt").exists()


def test_simulate_zero_paths_is_configuration_error(tmp_path, capsys):
    out = tmp_path / "empty"
    code = run(["simulate", "--paths", "0", "--horizon", "0.25",
                "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("configuration error: n_paths")
    assert not (out / "paths.csv").exists()


def test_wp_flags_violation_exit_code(tmp_path):
    # a doctored certificate with a tiny prefactor must trip the
    # bound-violation flag and exit code 4
    out = tmp_path / "viol"
    base = ["--alpha", "1.5", "--beta", "1.5", "--p", "1", "--out", str(out),
            "--seed", "9"]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "32", "--horizon", "0.5",
                "--grid-step", "0.25"] + base) == EXIT_OK
    cert = (out / "cert.txt").read_text()
    doctored = []
    for line in cert.splitlines():
        if line.startswith("prefactor = "):
            doctored.append("prefactor = 1e-9 # assembled")
        else:
            doctored.append(line)
    (out / "cert.txt").write_text("\n".join(doctored) + "\n")
    code = run(["wp"] + base)
    assert code == 4
    rows = np.loadtxt(out / "wp.csv", delimiter=",", skiprows=1)
    assert rows[:, -1].sum() > 0


def test_wp_certificate_missing_key_is_configuration_error(tmp_path, capsys):
    out = tmp_path / "nokey"
    base = ["--alpha", "1.5", "--beta", "1.5", "--p", "1", "--out", str(out),
            "--seed", "9"]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "16", "--horizon", "0.25",
                "--grid-step", "0.25"] + base) == EXIT_OK
    cert = (out / "cert.txt").read_text().splitlines()
    (out / "cert.txt").write_text("\n".join(
        line for line in cert if not line.startswith("prefactor = ")) + "\n")
    capsys.readouterr()
    assert run(["wp"] + base) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "prefactor" in err and "Traceback" not in err
    assert not (out / "wp.csv").exists()


@pytest.mark.parametrize("d, p, sha256", [
    (1, "1", "ed62b0d58511a5921651cdb78e1f8c92650c941f5c9435e2356462589d82f025"),
    (2, "2", "7615a025214bef2d80a633e5b8770994bee61e2ec25fce814e26c86bcafe70bc"),
], ids=["d1", "d2"])
def test_wp_golden_digests(tmp_path, d, p, sha256):
    # the exact solve and its se pinned bitwise: the d = 1 sort path and the
    # d >= 2 assignment, each with its dual plug-in (recorded with Python
    # 3.11, numpy 2.4 and scipy 1.17 on x86-64)
    out = tmp_path / f"wp{d}"
    base = ["--d", str(d), "--alpha", "1.5", "--beta", "1.5", "--p", p,
            "--seed", "7", "--out", str(out)]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "32", "--horizon", "0.25",
                "--grid-step", "0.125"] + base) == EXIT_OK
    assert run(["wp"] + base) == EXIT_OK
    assert hashlib.sha256((out / "wp.csv").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("d, p", [(1, "1"), (2, "2")])
def test_wp_is_a_function_of_its_inputs(tmp_path, d, p):
    # wp draws no random numbers: another seed on the same positions.csv
    # and cert.txt writes the same bytes
    out = tmp_path / f"pure{d}"
    base = ["--d", str(d), "--alpha", "1.5", "--beta", "1.5", "--p", p,
            "--out", str(out)]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "32", "--horizon", "0.25",
                "--grid-step", "0.125", "--seed", "7"] + base) == EXIT_OK
    written = []
    for seed in ("7", "8"):
        assert run(["wp", "--seed", seed] + base) == EXIT_OK
        written.append((out / "wp.csv").read_bytes())
    assert written[0] == written[1]


def test_wp_leaves_no_thread_running(tmp_path):
    out = tmp_path / "threads"
    base = ["--d", "2", "--alpha", "1.5", "--beta", "1.5", "--p", "2",
            "--seed", "5", "--out", str(out)]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "16", "--horizon", "0.25",
                "--grid-step", "0.125"] + base) == EXIT_OK
    before = threading.active_count()
    assert run(["wp"] + base) == EXIT_OK
    assert threading.active_count() == before


def test_wp_solves_one_assignment_per_grid_time(tmp_path, monkeypatch):
    from stablecouple import wasserstein_metrics

    solve = wasserstein_metrics._assignment
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    out = tmp_path / "solves"
    base = ["--d", "2", "--alpha", "1.5", "--beta", "1.5", "--p", "2",
            "--seed", "5", "--out", str(out)]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "16", "--horizon", "0.25",
                "--grid-step", "0.125"] + base) == EXIT_OK
    monkeypatch.setattr(wasserstein_metrics, "_assignment", counted)
    assert run(["wp"] + base) == EXIT_OK
    assert calls == [(16, 16)] * 3


def test_certify_warns_vacuous_rate(tmp_path, capsys):
    # the headline model's lambda = 5.7e-33
    assert run(["certify", "--horizon", "1", "--out", str(tmp_path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning: vacuous certificate: lambda * horizon = 5.67e-33")
    assert (tmp_path / "cert.txt").exists()


def test_simulate_warns_no_merge(tmp_path, capsys):
    # one window of the engine's length 0.01 from r0 = 0.5: no explicit jump reflects
    # (a r0 < delta_floor) and the mirrored kick would have to move the
    # separation by about 7 of its standard deviations, so no pair merges
    out = tmp_path / "nomerge"
    assert run(["simulate", "--paths", "16", "--horizon", "0.01",
                "--grid-step", "0.01", "--seed", "3", "--out", str(out)]) == EXIT_OK
    merged = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)[:, 4]
    assert not merged.any()
    assert capsys.readouterr().err.startswith(
        "warning: no pair merged by the horizon 0.01 with reflection on")


def test_healthy_model_prints_no_warning(tmp_path, capsys):
    out = tmp_path / "healthy"
    argv = ["--d", "2", "--alpha", "1.7", "--drift", "linear", "--k1", "0.1",
            "--l0", "0.5", "--eps-couple", "0.15", "--x0", "0.2,0",
            "--y0=-0.2,0", "--paths", "64", "--horizon", "0.5",
            "--grid-step", "0.25", "--seed", "3", "--out", str(out)]
    assert run(["certify"] + argv) == EXIT_OK
    assert run(["simulate"] + argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    merged = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)[:, 4]
    assert merged.any()


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "0.5"],
    ["certify", "--alpha", "2.5"],
    ["certify", "--drift", "monomial", "--drift-q", "-0.5"],
    ["certify", "--beta", "0.5"],
    ["certify", "--d", "0"],
    ["simulate", "--delta-floor", "0"],
    ["simulate", "--x0", "1,2"],
    ["certify", "--l0", "inf"],
    ["certify", "--k1", "nan"],
    ["certify", "--k1", "inf"],
    ["certify", "--p", "nan"],
    ["certify", "--p", "inf"],
    ["simulate", "--eps-couple", "nan"],
    ["simulate", "--delta-floor", "nan"],
    ["simulate", "--horizon", "inf"],
    ["simulate", "--r0", "nan"],
    ["simulate", "--x0", "nan"],
    ["simulate", "--drift", "monomial", "--drift-c", "nan"],
    ["simulate", "--horizon", "0.1", "--r0", "nan"],
    ["certify", "--drift", "monomial", "--drift-q", "nan"],
    ["certify", "--drift", "monomial", "--drift-c", "nan"],
    ["certify", "--beta", "inf"],
    ["certify", "--drift", "linear", "--kappa", "nan"],
    ["simulate", "--seed", "-1"],
])
def test_invalid_model_flags_are_configuration_errors(tmp_path, capsys, argv):
    # the flags under test come last, so they override the defaults here
    out = tmp_path / "bad"
    code = run(argv[:1] + ["--paths", "4", "--horizon", "0.25",
                           "--out", str(out)] + argv[1:])
    assert code == EXIT_RUNTIME
    # the message names the parameter of the last flag (--drift-c is the
    # drift's c), and no stage wrote anything
    name = argv[-2].removeprefix("--").removeprefix("drift-").replace("-", "_")
    assert capsys.readouterr().err.startswith(f"configuration error: {name} must")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_missing_or_unknown_command_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "command" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["certify", "--pat", "7"], "unknown flag --pat"),  # no prefix matching
    (["certify", "--paths"], "flag --paths expects a value"),
    (["certify", "--force-synchronous=true"], "flag --force-synchronous takes no value"),
    (["certify", "wp"], "unexpected argument 'wp'"),
])
def test_malformed_command_lines_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        run(argv[:1] + ["--out", str(tmp_path / "u")] + argv[1:])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stablecouple ") and message in err
    assert not (tmp_path / "u").exists()


def test_help_lists_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run(["certify", "--help"])
    assert info.value.code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for command in ("certify", "lyapunov", "simulate", "wp", "example"):
        assert any(line.split()[:1] == [command] for line in lines), command
    assert any(line.split()[:1] == ["--config"] for line in lines)
    # each field's flag, with its default
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--paths" if f.name == "n_paths" else "--" + f.name.replace("_", "-")
        line = next(line for line in lines if line.split()[:1] == [flag])
        assert line.endswith(f"default {f.default!r}"), line


@pytest.mark.parametrize("stage", ["certify", "simulate"])
def test_a_flag_value_may_start_with_a_minus(tmp_path, stage):
    # a flag takes the next token whatever it starts with, so a vector whose
    # first component is negative needs no "=" form
    common = [stage, "--d", "2", "--paths", "4", "--horizon", "0.25",
              "--y0", "0.25,0"]
    assert run(common + ["--x0", "-0.25,0", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert run(common + ["--x0=-0.25,0", "--out", str(tmp_path / "b")]) == EXIT_OK
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in files:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    if stage == "simulate":
        start = np.loadtxt(tmp_path / "a" / "positions.csv", delimiter=",",
                           skiprows=1)[0]
        assert np.array_equal(start[2:6], [-0.25, 0.0, 0.25, 0.0])  # x, then y


def test_malformed_flag_value_is_the_config_file_error(tmp_path, capsys):
    # flags and config-file values are typed by the same code
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_paths = abc\n")
    codes, errs = [], []
    for argv in (["--paths", "abc"], ["--config", str(cfg_file)]):
        codes.append(run(["certify", "--out", str(tmp_path / "o")] + argv))
        errs.append(capsys.readouterr().err)
    assert codes == [EXIT_RUNTIME] * 2
    assert errs == ["configuration error: bad int for n_paths: 'abc'\n"] * 2
    assert not (tmp_path / "o").exists()


def test_flags_may_precede_the_command(monkeypatch):
    # one parser: every flag is shared, on either side of the command
    seen = {}

    def fake_lyapunov(cfg):
        seen["cfg"] = cfg
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_lyapunov", fake_lyapunov)
    assert run(["--alpha", "1.2", "lyapunov", "--paths", "7"]) == EXIT_OK
    assert (seen["cfg"].alpha, seen["cfg"].n_paths) == (1.2, 7)


def test_record_grid_never_passes_horizon(tmp_path):
    def grid(horizon, step):
        return record_grid_of(ExperimentConfig(horizon=horizon, grid_step=step))

    # the horizon closes a grid whose last multiple of the step falls short
    assert np.array_equal(grid(0.5, 0.3), [0.0, 0.3, 0.5])
    assert np.array_equal(grid(0.1, 0.25), [0.0, 0.1])
    # unchanged where the rounded grid fit the horizon
    assert np.array_equal(grid(1.0, 0.25), np.linspace(0.0, 1.0, 5))
    assert np.array_equal(grid(0.25, 0.125), np.linspace(0.0, 0.25, 3))
    assert np.array_equal(grid(0.3, 0.1), np.linspace(0.0, 3 * 0.1, 4))
    code = run(["simulate", "--alpha", "1.5", "--beta", "1.5", "--paths", "4",
                "--horizon", "0.5", "--grid-step", "0.3",
                "--out", str(tmp_path / "g")])
    assert code == EXIT_OK
    decay = np.loadtxt(tmp_path / "g" / "psi_decay.csv", delimiter=",",
                       skiprows=1)
    assert np.array_equal(decay[:, 0], [0.0, 0.3, 0.5])
    # a horizon below the default grid step of 0.25 is still simulated
    code = run(["simulate", "--alpha", "1.5", "--beta", "1.5", "--paths", "4",
                "--horizon", "0.1", "--out", str(tmp_path / "h")])
    assert code == EXIT_OK
    decay = np.loadtxt(tmp_path / "h" / "psi_decay.csv", delimiter=",",
                       skiprows=1)
    assert np.array_equal(decay[:, 0], [0.0, 0.1])


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m stablecouple` goes through __main__.py to the same main
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "stablecouple", "certify",
                           "--out", str(tmp_path / "sub")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert run(["certify", "--out", str(tmp_path / "inproc")]) == EXIT_OK
    assert ((tmp_path / "sub" / "cert.txt").read_bytes()
            == (tmp_path / "inproc" / "cert.txt").read_bytes())


def test_pipeline_imports_no_scipy_argparse_or_gzip(tmp_path):
    # a fresh interpreter, so modules loaded by other tests do not count;
    # d = 2 reaches the assignment solver at every grid time.  The command
    # line is parsed without argparse (and so without gettext and locale),
    # and tables are read from a handle, so loadtxt never imports gzip.
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [[stage, "--d", d, "--p", d, "--paths", "16", "--horizon", "0.25",
             "--grid-step", "0.125", "--out", str(tmp_path / d)]
            for d in ("1", "2") for stage in ("certify", "simulate", "wp")]
    code = ("import sys\n"
            "from stablecouple import cli\n"
            f"rc = [cli.main(argv) for argv in {runs!r}]\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "    ('scipy', 'argparse', 'gettext', 'locale', 'gzip')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 6} []"
