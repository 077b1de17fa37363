"""End-to-end command-line runs at small budgets."""

import dataclasses
import hashlib
import math
import threading

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


def test_lyapunov_sweep_csv(tmp_path):
    out = tmp_path / "ly"
    code = run(["lyapunov", "--alpha", "1.5", "--drift", "monomial",
                "--k1", "1", "--k2", "1", "--theta", "2", "--out", str(out)])
    assert code == EXIT_OK
    rows = np.loadtxt(out / "lyapunov.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    assert np.all(rows[:, 3] > 0.0)  # certified ratio positive on the grid


@pytest.mark.parametrize("flags, cert_sha256, sweep_sha256", [
    ([], "6d66d580c2fe507f4dc2e53c243e0b517df9af9f0a7f472aa5aeb634a79808f4",
     "f399a32a2a40859de18f3003fdbd8f0301d08adb55862b037b14691fd844568d"),
    (["--d", "2", "--p", "2"],
     "a475acc05e4fb16db39c537c4c8b18e61f3a5a6dc076807847d70402c51637ac",
     "99011ff48da0183e8fe8ec0b4a68821a7ee89aad5653e4bcf48cbc8961a62ce6"),
    (["--alpha", "1", "--k1", "0.05", "--drift", "monomial", "--theta", "2"],
     "07f90369daf53a6832177f640eedf67bef16dab997f7ad85eea8d15050f1264b",
     "13297ab61b750898e50b90d1914a599c204ea1d76c57b29ba2362b0c5ea9075c"),
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


def test_example_invalid_beta(tmp_path, capsys):
    # reported like every other model flag, as a configuration error
    code = run(["example", "--beta", "1", "--out", str(tmp_path / "bad")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(
        "configuration error: beta must exceed 1")


@pytest.mark.parametrize("flags", [["--paths", "0"], ["--dt-max", "0"],
                                   ["--grid-step", "0"]])
def test_example_checks_simulate_inputs_first(tmp_path, capsys, flags):
    # an invalid simulate input stops the run before certify writes
    out = tmp_path / "ex0"
    code = run(["example", "--paths", "8", "--horizon", "0.25"] + flags
               + ["--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "cert.txt").exists()


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
    (1, "1", "96cfe778aee27c363650db316cec15a841cf30e0b83ea6f47b2033a76ff460eb"),
    (2, "2", "fae2fc165e43e0511c2980abacd53f7de5e1ff6b328e13568b9820e6fe7a49d0"),
], ids=["d1", "d2"])
def test_wp_golden_digests(tmp_path, d, p, sha256):
    # the exact solve and its bootstrap pinned bitwise, on the d = 1 sort
    # path and the d >= 2 assignment path (recorded with Python 3.11,
    # numpy 2.4 and scipy 1.17 on x86-64)
    out = tmp_path / f"wp{d}"
    base = ["--d", str(d), "--alpha", "1.5", "--beta", "1.5", "--p", p,
            "--seed", "7", "--out", str(out)]
    assert run(["certify"] + base) == EXIT_OK
    assert run(["simulate", "--paths", "32", "--horizon", "0.25",
                "--grid-step", "0.125"] + base) == EXIT_OK
    assert run(["wp"] + base) == EXIT_OK
    assert hashlib.sha256((out / "wp.csv").read_bytes()).hexdigest() == sha256


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


def test_certify_warns_vacuous_rate(tmp_path, capsys):
    # the headline model's lambda = 4.0e-33
    assert run(["certify", "--horizon", "1", "--out", str(tmp_path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning: vacuous certificate: lambda * horizon = 4.01e-33")
    assert (tmp_path / "cert.txt").exists()


def test_simulate_warns_no_merge(tmp_path, capsys):
    out = tmp_path / "nomerge"
    assert run(["simulate", "--paths", "16", "--horizon", "0.25",
                "--grid-step", "0.25", "--seed", "3", "--out", str(out)]) == EXIT_OK
    merged = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)[:, 4]
    assert not merged.any()
    assert capsys.readouterr().err.startswith(
        "warning: no pair merged by the horizon 0.25 with reflection on")


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
    ["certify", "--drift", "monomial", "--theta", "1.5"],
    ["certify", "--beta", "0.5"],
    ["certify", "--d", "0"],
    ["simulate", "--dt-max", "0"],
    ["simulate", "--x0", "1,2"],
    ["certify", "--l0", "inf"],
    ["certify", "--k1", "nan"],
    ["certify", "--k2", "inf"],
    ["certify", "--p", "nan"],
    ["certify", "--p", "inf"],
    ["simulate", "--eps-couple", "nan"],
    ["simulate", "--dt-max", "nan"],
    ["simulate", "--horizon", "inf"],
])
def test_invalid_model_flags_are_configuration_errors(tmp_path, capsys, argv):
    # the flags under test come last, so they override the defaults here
    code = run(argv[:1] + ["--paths", "4", "--horizon", "0.25",
                           "--out", str(tmp_path / "bad")] + argv[1:])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_record_grid_never_passes_horizon(tmp_path):
    def grid(horizon, step):
        return record_grid_of(ExperimentConfig(horizon=horizon, grid_step=step))

    assert np.array_equal(grid(0.5, 0.3), [0.0, 0.3])
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
    assert np.array_equal(decay[:, 0], [0.0, 0.3])
