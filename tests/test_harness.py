"""Experiment harness: reproducibility, counting, validation, sweeps, CLI."""

import csv
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pvdmimo
from pvdmimo.cli import main as cli_main
from pvdmimo.harness import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    sweep,
    validate_dict,
)
from pvdmimo.metrics import CSV_COLUMNS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def tiny_config(**overrides):
    cfg = {
        "dims": {"N_r": 2, "N_t": 1, "K": 1, "T": 8, "N_u": 1, "n": 3, "P": 1.0},
        "prior_channel": {"type": "gaussian", "mean": "truth", "var": 1e-6},
        "pvd": {"enabled": True, "J": 10, "J_in": 5,
                "sigma1_H": 1e-3, "sigmaJ_H": 10.0,
                "sigma1_D": 0.01, "sigmaJ_D": 10.0,
                "zeta_H": 0.06, "zeta_D": 0.06},
        "baselines": {"lmmse": True, "oracle_lmmse": False, "N_p": 2},
        "snr_db": [15.0],
        "trials": 5,
        "seed": 2024,
    }
    cfg.update(overrides)
    return cfg


def test_row_counting():
    records = run_experiment(tiny_config())
    # 5 trials x {pvd, lmmse} = 10 data rows
    assert len(records) == 10
    assert [r.method for r in records[:2]] == ["pvd", "lmmse"]


def test_pilot_rows_account_data_slots():
    from pvdmimo.metrics import cbr
    from pvdmimo.channel import MimoDims
    cfg = tiny_config(trials=1)
    records = run_experiment(cfg)
    d = cfg["dims"]
    dims = MimoDims(N_r=d["N_r"], N_t=d["N_t"], K=d["K"], T=d["T"], n=d["n"])
    by_method = {r.method: r for r in records}
    # blind rows use all T slots; pilot rows account T - N_p data slots
    assert by_method["pvd"].cbr == cbr(dims, d["T"])
    assert by_method["lmmse"].cbr == cbr(dims, d["T"] - cfg["baselines"]["N_p"])


def test_byte_identical_csv(tmp_path):
    cfg = tiny_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, out=p1)
    run_experiment(cfg, out=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scalar_mixture_means_fill_the_source(tmp_path):
    # scalar means broadcast to length n and give the rows of the vector form
    n = tiny_config()["dims"]["n"]
    prior = {"type": "mixture", "var": 0.25, "weights": [0.5, 0.5]}
    scalar = tiny_config(trials=2, prior_source=dict(prior, means=[1.0, -1.0]))
    vector = tiny_config(trials=2, prior_source=dict(prior, means=[[1.0] * n, [-1.0] * n]))
    assert validate_dict(scalar) == []
    p1, p2 = tmp_path / "scalar.csv", tmp_path / "vector.csv"
    records = run_experiment(scalar, out=p1)
    run_experiment(vector, out=p2)
    assert [r.error for r in records] == [""] * len(records)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_schema(tmp_path):
    path = tmp_path / "out.csv"
    run_experiment(tiny_config(trials=2), out=path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2 * 2


def test_trial_isolation():
    # the first trials' rows do not depend on how many trials follow
    a = run_experiment(tiny_config(trials=4))
    b = run_experiment(tiny_config(trials=2))
    for ra, rb in zip(a[:4], b):
        assert (ra.trial, ra.method, ra.seed) == (rb.trial, rb.method, rb.seed)
        assert ra.nmse_db == rb.nmse_db
        assert ra.source_mse == rb.source_mse


def test_forced_error_row_isolated():
    base = run_experiment(tiny_config())
    flagged = run_experiment(tiny_config(force_error_trials=[[0, 2]]))
    assert len(base) == len(flagged)
    for rb, rf in zip(base, flagged):
        if rf.trial == 2:
            assert rf.error != "" and np.isnan(rf.nmse_db)
        else:
            assert rf.error == ""
            assert rb.nmse_db == rf.nmse_db
            assert rb.source_mse == rf.source_mse


def test_method_failure_recorded_not_raised():
    # divergent PVD settings: pvd rows carry the error, lmmse rows are intact
    cfg = tiny_config()
    cfg["pvd"] = dict(cfg["pvd"], zeta_H=1e9, zeta_D=1e9, sigma1_H=0.01)
    with np.errstate(all="ignore"):
        records = run_experiment(cfg)
    pvd_rows = [r for r in records if r.method == "pvd"]
    lmmse_rows = [r for r in records if r.method == "lmmse"]
    assert all(r.error != "" for r in pvd_rows)
    assert all(r.error == "" for r in lmmse_rows)


def test_multi_user_rows():
    cfg = tiny_config(trials=2)
    cfg["dims"] = dict(cfg["dims"], N_u=2, N_r=4)
    cfg["baselines"] = {"lmmse": False, "oracle_lmmse": False, "N_p": 2}
    records = run_experiment(cfg)
    assert len(records) == 2
    assert all(r.method == "pvd" for r in records)
    assert all(np.isfinite(r.nmse_db) for r in records)
    # superposed-observation NMSE differs from the single-user run
    single = run_experiment(tiny_config(trials=2))
    assert records[0].nmse_db != single[0].nmse_db


def test_two_user_scalar_superposition_sanity():
    # hand-built check on the scene the harness constructs: with near-delta
    # truth-anchored channel priors, two superposed users are both resolved
    cfg = tiny_config(trials=3)
    cfg["dims"] = dict(cfg["dims"], N_u=2, N_r=4, n=2)
    cfg["baselines"] = {"lmmse": False, "oracle_lmmse": False, "N_p": 2}
    cfg["snr_db"] = [25.0]
    records = run_experiment(cfg)
    assert all(r.error == "" for r in records)
    assert all(r.nmse_db < -20 for r in records)


# --- validation -------------------------------------------------------------------

def test_validate_default_config_clean():
    assert validate_dict(tiny_config()) == []


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_validate_shipped_configs_clean():
    cfg_dir = ROOT / "configs"
    for path in sorted(cfg_dir.glob("*.json")):
        with open(path) as fh:
            assert validate_dict(json.load(fh)) == [], path.name
    # the benchmark's workloads too; the merged tree parses again unchanged
    workloads = _benchmark_workloads()
    configs = [workloads.config(name, 5, str(ROOT)) for name in workloads.NAMES]
    for cfg in configs + [json.loads(p.read_text()) for p in sorted(cfg_dir.glob("*.json"))]:
        assert validate_dict(cfg) == []
        raw = ExperimentConfig.from_dict(cfg).raw
        assert ExperimentConfig.from_dict(json.loads(json.dumps(raw))).raw == raw


def test_validate_trials_zero():
    out = validate_dict(tiny_config(trials=0))
    assert any(v.startswith("trials") for v in out)


def test_validate_schedule_order():
    cfg = tiny_config()
    cfg["pvd"] = dict(cfg["pvd"], sigma1_H=5.0, sigmaJ_H=1.0)
    out = validate_dict(cfg)
    assert any("sigma1_H" in v for v in out)


def test_validate_reports_paths():
    cfg = tiny_config(trials=0, snr_db=[])
    cfg["dims"] = dict(cfg["dims"], N_r=0)
    out = validate_dict(cfg)
    joined = "\n".join(out)
    assert "dims.N_r" in joined and "trials" in joined and "snr_db" in joined


def test_validate_multiuser_baselines_rejected():
    cfg = tiny_config()
    cfg["dims"] = dict(cfg["dims"], N_u=2)
    out = validate_dict(cfg)
    assert any("baselines" in v for v in out)


def test_validate_encoder_init():
    cfg = tiny_config(encoder={"type": "linear", "init": "identity"},
                      baselines={"lmmse": False, "oracle_lmmse": True})
    assert validate_dict(cfg) == ["encoder.init: 'identity' needs n == N_t*K*T = 8"]
    cfg["dims"] = dict(cfg["dims"], n=8)
    assert validate_dict(cfg) == []
    cfg["encoder"] = {"type": "linear", "init": "orthogonal"}
    assert validate_dict(cfg) == ["encoder.init: must be 'gaussian' or 'identity'"]


def test_validate_identity_init_rejects_pilot_chain():
    cfg = tiny_config(encoder={"type": "linear", "init": "identity"})
    cfg["dims"] = dict(cfg["dims"], n=8)
    out = validate_dict(cfg)
    assert len(out) == 1 and out[0].startswith("baselines.lmmse: ")
    assert "identity" in out[0]


def test_validate_encoder_file_rejects_pilot_chain():
    cfg = tiny_config(encoder={"type": "linear", "file": "enc.txt"})
    out = validate_dict(cfg)
    assert len(out) == 1 and out[0].startswith("baselines.lmmse: ")
    assert "encoder file" in out[0]
    cfg["baselines"] = {"lmmse": False, "oracle_lmmse": True}
    assert validate_dict(cfg) == []


def test_validate_saturating_average_power_rejected():
    # the link would use the tanh encoder unscaled: mean symbol power 1/3 at any P
    cfg = tiny_config(encoder={"type": "saturating", "init": "gaussian", "gain": 0.7},
                      power_mode="average")
    out = validate_dict(cfg)
    assert len(out) == 1 and out[0].startswith("power_mode: ")
    assert "'average'" in out[0] and "encoder.type 'saturating'" in out[0]
    for fixed in (dict(power_mode="exact"), dict(encoder={"type": "linear"})):
        assert validate_dict(dict(cfg, **fixed)) == []


def _kronecker(R_rx, R_tx):
    return tiny_config(channel={"model": "kronecker", "R_rx": R_rx, "R_tx": R_tx})


def test_validate_kronecker_rx_shape():
    out = validate_dict(_kronecker([[1.0, 0.0, 0.0]] * 3, [[1.0]]))
    assert out == ["channel.R_rx: the kronecker model needs a 2x2 matrix of numbers or [re, im] pairs"]


def test_validate_kronecker_tx_shape():
    out = validate_dict(_kronecker([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]))
    assert out == ["channel.R_tx: the kronecker model needs a 1x1 matrix of numbers or [re, im] pairs"]
    assert validate_dict(_kronecker([[1.0, [0.5, 0.1]], [[0.5, -0.1], 1.0]], [[1.0]])) == []


def test_validate_kronecker_hermitian_psd():
    # used to pass validate and flag every row "not positive semidefinite"
    out = validate_dict(_kronecker([[1.0, 2.0], [2.0, 1.0]], [[1.0]]))
    assert out == ["channel.R_rx: R_rx is not positive semidefinite (min eigval -1.000e+00)"]
    out = validate_dict(_kronecker([[1.0, 0.5], [0.0, 1.0]], [[-1.0]]))
    assert out == ["channel.R_rx: R_rx is not Hermitian",
                   "channel.R_tx: R_tx is not positive semidefinite (min eigval -1.000e+00)"]



def test_run_takes_the_kronecker_roots_once_per_run(monkeypatch):
    # the parse takes each root once; neither the link nor a cell takes them again
    from pvdmimo import channel, harness
    calls, original = [], channel.hermitian_sqrt

    def counting(R, name):
        calls.append(name)
        return original(R, name)

    for module in (channel, harness):
        monkeypatch.setattr(module, "hermitian_sqrt", counting)
    counts = []
    for trials in (1, 4):
        calls.clear()
        cfg = _kronecker([[1.0, 0.5], [0.5, 1.0]], [[2.0]])
        cfg.update(trials=trials, pvd={"enabled": False})
        assert len(run_experiment(cfg)) == trials
        counts.append(len(calls))
    assert counts == [2, 2]


def test_average_power_calibration_matches_per_draw_loop():
    # the calibrated link encoder's power, one encode per calibration draw
    # from the same stream, averages to the budget P over every entry
    from pvdmimo import harness
    raw = tiny_config(power_mode="average",
                      prior_source={"type": "gaussian", "mean": 0.3, "var": 2.0})
    raw["dims"] = dict(raw["dims"], K=2, P=2.5)
    cfg = ExperimentConfig.from_dict(raw)
    rows, cols = cfg.dims.signal_shape
    enc = harness._link_encoder(cfg, (rows, cols), 0, 1, exact=False)
    rng = np.random.default_rng(np.random.SeedSequence([2024, 0xCA11B, 1]))
    power = np.mean([np.linalg.norm(enc.encode(cfg.source.sample(rng))) ** 2
                     for _ in range(256)])
    assert abs(power / (2.5 * rows * cols) - 1.0) < 1e-12


@pytest.mark.parametrize("P", [1.0, 4.0])
def test_pilot_chain_saturating_data_symbols_have_power_P(P):
    # exact power mode: the pilot chain's tanh data encoder is normalized to
    # P like the pilots, not left at the tanh map's own power
    from pvdmimo import harness
    raw = tiny_config(encoder={"type": "saturating", "gain": 0.7})
    raw["dims"] = dict(raw["dims"], P=P)
    cfg = ExperimentConfig.from_dict(raw)
    link = harness._build_link(cfg)
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = link.pilot_encoder.encode(cfg.source.sample(rng))
        assert np.mean(np.abs(X) ** 2) == pytest.approx(P, rel=1e-12)
    assert np.mean(np.abs(cfg.pilots) ** 2) == pytest.approx(P, rel=1e-12)


def test_validate_source_draw_truth_rejected():
    cfg = tiny_config(source_draw={"type": "gaussian", "mean": "truth", "var": 1.0})
    out = validate_dict(cfg)
    assert len(out) == 1 and out[0].startswith("source_draw.mean: ")
    cfg["source_draw"]["mean"] = 0.0
    assert validate_dict(cfg) == []


def test_validate_unknown_keys_at_every_level():
    cfg = tiny_config(tirals=3, trials=0, channel={"model": "rayleigh", "R_rxx": [[1.0]]},
                      prior_source={"type": "gaussian", "meen": 0.0, "var": 1.0})
    cfg["pvd"] = dict(cfg["pvd"], J_inn=5)
    out = validate_dict(cfg)
    assert out == ["tirals: unknown key", "pvd.J_inn: unknown key",
                   "channel.R_rxx: unknown key", "prior_source.meen: unknown key",
                   "trials: must be an integer >= 1"]
    with pytest.raises(ConfigError) as exc_info:
        ExperimentConfig.from_dict(cfg)
    assert exc_info.value.problems == out


def test_validate_unknown_key_next_to_a_bad_covariance():
    # passed validate once, then flagged every row "R_rx must be 4x4"
    with open(ROOT / "configs" / "default.json") as fh:
        cfg = json.load(fh)
    cfg["pvd"]["J_inn"] = 5
    cfg["channel"] = {"model": "kronecker", "R_rx": [[1.0, 0.0], [0.0, 1.0]], "R_tx": [[1.0]]}
    assert validate_dict(cfg) == [
        "pvd.J_inn: unknown key",
        "channel.R_rx: the kronecker model needs a 4x4 matrix of numbers or [re, im] pairs"]


@pytest.mark.parametrize("override, problem", [
    # each used to pass validate and then fail or spoil the run
    ({"prior_source": {"type": "mixture", "means": [1.0, -1.0], "var": 0.25,
                       "weights": [0.5, 0.5 + 1e-10]}}, "prior_source.weights: must sum to 1"),
    ({"source_draw": {"var": -1}}, "source_draw.type: must be 'gaussian' or 'mixture'"),
    ({"source_draw": {"type": "bogus"}}, "source_draw.type: must be 'gaussian' or 'mixture'"),
    ({"source_draw": {"type": "gaussian", "var": -1}}, "source_draw.var: must be > 0"),
    ({"prior_source": {"type": "gaussian", "var": "x"}}, "prior_source.var: must be a finite number"),
    ({"snr_db": [float("nan")]}, "snr_db: must be a nonempty list of finite dB values"),
    ({"snr_db": [10.0, float("inf")]}, "snr_db: must be a nonempty list of finite dB values"),
    ({"dims": dict(tiny_config()["dims"], N_r=4.0)}, "dims.N_r: must be an integer"),
], ids=["weights", "draw-untyped", "draw-type", "draw-var", "var-type", "snr-nan", "snr-inf",
        "float-dims"])
def test_validate_rejects_what_the_run_would_fail_on(override, problem):
    cfg = tiny_config(**override)
    assert validate_dict(cfg) == [problem]
    with pytest.raises(ConfigError):
        run_experiment(cfg)


@pytest.mark.parametrize("key, spec", [
    ("prior_source", {"type": "gaussian", "var": 0}),
    ("prior_source", {"type": "mixture", "means": [1.0, -1.0], "var": -0.5,
                      "weights": [0.5, 0.5]}),
    ("prior_channel", {"type": "gaussian", "var": 0.0}),
], ids=["source-gaussian", "source-mixture", "channel-gaussian"])
def test_validate_reports_prior_variance_at_its_key(key, spec):
    # was "<key>: var0 must be > 0", named after the constructor's argument
    assert validate_dict(tiny_config(**{key: spec})) == [f"{key}.var: must be > 0"]


def test_run_rejects_bad_link_instead_of_flagging_rows():
    # a 2x2 R_rx for N_r = 4 used to pass and flag every row
    cfg = _kronecker([[1.0, 0.5], [0.5, 1.0]], [[1.0]])
    cfg["dims"] = dict(cfg["dims"], N_r=4)
    with pytest.raises(ConfigError, match=r"channel\.R_rx"):
        run_experiment(cfg)


def test_config_error_raised_on_bad_dict():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tiny_config(trials=-1))


# --- aggregation and sweeps --------------------------------------------------------

def test_sweep_summary_rows():
    cfg = tiny_config(trials=3)
    summary = sweep(cfg, "snr_db", [0.0, 10.0, 20.0])
    assert len(summary) == 3
    assert [row["value"] for row in summary] == [0.0, 10.0, 20.0]
    assert all(row["rows"] == 6 for row in summary)


def test_sweep_aggregates_match_rows():
    cfg = tiny_config(trials=4)
    cfg["baselines"] = {"lmmse": False, "oracle_lmmse": False, "N_p": 2}
    summary = sweep(cfg, "snr_db", [10.0])
    point = dict(cfg)
    point["snr_db"] = [10.0]
    point["seed"] = int(np.random.SeedSequence(
        [cfg["seed"] & 0xFFFFFFFF, 0x5EE9, 0]).generate_state(1)[0])
    records = run_experiment(point)
    manual = np.mean([r.nmse_db for r in records])
    assert abs(summary[0]["nmse_db_mean"] - manual) < 1e-12


def test_sweep_linked_parameter():
    cfg = tiny_config(trials=1)
    cfg["baselines"] = {"lmmse": False, "oracle_lmmse": False, "N_p": 2}
    summary = sweep(cfg, "dims.N_t", [1, 2], links={"dims.N_r": "8*x"})
    assert len(summary) == 2
    assert all(row["errors"] == 0 for row in summary)


def test_sweep_empty_values_error():
    with pytest.raises(ConfigError):
        sweep(tiny_config(), "snr_db", [])


def test_sweep_unknown_path_error():
    with pytest.raises(ConfigError):
        sweep(tiny_config(), "dims.bogus", [1])


@pytest.mark.parametrize("cfg", [
    tiny_config(trials=4),
    # per-worker link: calibrated encoders, pilot chain and covariance oracle
    tiny_config(trials=4, power_mode="average",
                dims={"N_r": 3, "N_t": 2, "K": 2, "T": 8, "N_u": 1, "n": 3, "P": 1.0},
                channel={"model": "kronecker", "R_rx": [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5],
                                                        [0.25, 0.5, 1.0]],
                         "R_tx": [[1.0, [0.3, 0.1]], [[0.3, -0.1], 1.0]]},
                baselines={"lmmse": True, "oracle_lmmse": True, "N_p": 2}),
], ids=["rayleigh", "kronecker-average-baselines"])
def test_workers_match_serial(tmp_path, cfg):
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
    run_experiment(dict(cfg, workers=1), out=p1)
    run_experiment(dict(cfg, workers=2), out=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_diagnostics_stream(tmp_path):
    path = tmp_path / "res.csv"
    cfg = tiny_config(trials=1, diagnostics=True)
    run_experiment(cfg, out=path)
    diag = str(path) + ".diag.csv"
    with open(diag) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["snr_db", "trial", "j"]
    assert len(rows) == 1 + cfg["pvd"]["J"]


# --- CLI ---------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config())
    assert cli_main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_violations(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config(trials=0))
    assert cli_main(["validate", str(path)]) == 1
    assert "trials" in capsys.readouterr().out


def test_cli_run_and_overrides(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    path = _write_cfg(tmp_path, tiny_config())
    code = cli_main(["run", str(path), "--trials", "2", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        assert len(list(csv.reader(fh))) == 1 + 4


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_cli_config_fault_is_one_line_per_problem(tmp_path, capsys, command):
    # a wrong-typed value used to kill validate with a TypeError traceback
    path = _write_cfg(tmp_path, tiny_config(prior_source={"type": "gaussian", "var": "x"}))
    sweep_args = ["--param", "snr_db", "--values", "10"] if command == "sweep" else []
    assert cli_main([command, str(path), *sweep_args]) == 1
    captured = capsys.readouterr()
    report = captured.out if command == "validate" else captured.err
    assert report.splitlines() == ["prior_source.var: must be a finite number"]


def test_cli_run_bad_config_exit_1(tmp_path):
    path = _write_cfg(tmp_path, tiny_config(trials=0))
    assert cli_main(["run", str(path)]) == 1


def test_cli_missing_file_exit_1(tmp_path):
    assert cli_main(["run", str(tmp_path / "none.json")]) == 1


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    code = cli_main(["sweep", str(path), "--param", "snr_db",
                     "--values", "0,10", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3


def test_cli_env_seed_not_an_integer_exit_1(tmp_path, capsys, monkeypatch):
    # int() used to fail as a runtime failure (exit 2)
    monkeypatch.setenv("PVDMIMO_SEED", "abc")
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == ["PVDMIMO_SEED: must be an integer, got 'abc'"]


def test_cli_sweep_values_not_numbers_exit_1(tmp_path, capsys):
    # float() used to fail as a runtime failure (exit 2)
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["sweep", str(path), "--param", "snr_db", "--values", "a,b"]) == 1
    assert capsys.readouterr().err.splitlines() == ["--values: 'a' is not a number"]


def test_cli_env_seed_override(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    path = _write_cfg(tmp_path, tiny_config(trials=2))
    # the child imports the same pvdmimo as this process, however pytest found it
    src = os.path.dirname(os.path.dirname(pvdmimo.__file__))
    env = dict(os.environ, PVDMIMO_SEED="777",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "pvdmimo.cli", "run", str(path),
                    "--out", str(out1)], env=env, check=True, capture_output=True)
    # same effect as writing the seed into the config
    cfg = tiny_config(trials=2, seed=777)
    run_experiment(cfg, out=out2)
    assert out1.read_bytes() == out2.read_bytes()
