"""Experiment harness: reproducibility, counting, validation, sweeps, CLI."""

import copy
import csv
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pvdmimo
from pvdmimo import harness
from pvdmimo.cli import main as cli_main
from pvdmimo.harness import (
    DIAG_COLUMNS,
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


def test_a_divergent_run_prints_no_numpy_warning():
    # The reverse loop's overflows are left to its finiteness checks, which name
    # the step and the quantity; a warning turned error would end up in the rows.
    cfg = tiny_config()
    cfg["pvd"] = dict(cfg["pvd"], zeta_H=1e9, zeta_D=1e9, sigma1_H=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_experiment(cfg)
    assert {r.error.split(":")[0] for r in records if r.method == "pvd"} == {"PvdDivergenceError"}
    assert all(r.error == "" for r in records if r.method == "lmmse")


def test_a_failed_row_leaves_its_metric_cells_empty(tmp_path):
    # the metrics a failed method or scene does not report keep MetricsRecord's NaN default
    cfg = tiny_config(trials=2, force_error_trials=[[0, 1]])
    cfg["pvd"] = dict(cfg["pvd"], zeta_H=1e9, zeta_D=1e9, sigma1_H=0.01)
    with np.errstate(all="ignore"):
        run_experiment(cfg, out=tmp_path / "rows.csv")
    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    metrics = ("cbr", "nmse_db", "source_mse", "residual")
    assert [(r["method"], r["error"] != "") for r in rows] == [
        ("pvd", True), ("lmmse", False), ("pvd", True), ("lmmse", True)]
    assert all(r[m] == "" for r in (rows[0], rows[2], rows[3]) for m in metrics)
    assert rows[1]["residual"] == "" and all(rows[1][m] for m in metrics[:3])
    assert rows[0]["snr_db"] not in ("", "15.0")  # the scene's empirical SNR
    assert rows[2]["snr_db"] == rows[3]["snr_db"] == "15.0"  # the cell's target


def test_record_timing_shares_a_batch_decode_among_its_cells(monkeypatch):
    # a clock that ticks one second per reading: one batched decode of the three trials,
    # then one lmmse call per cell
    ticks = iter(range(1000))
    monkeypatch.setattr(harness, "time", type("Clock", (), {"perf_counter": lambda: next(ticks)}))
    records = run_experiment(tiny_config(trials=3, record_timing=True))
    assert [(r.method, r.wall_ms) for r in records] == [("pvd", 1e3 / 3), ("lmmse", 1e3)] * 3


@pytest.mark.parametrize("on", [True, False])
def test_record_timing_fills_wall_ms(tmp_path, on):
    cfg = tiny_config(trials=2, record_timing=on, force_error_trials=[[0, 1]])
    run_experiment(cfg, out=tmp_path / "rows.csv")
    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] != "" for r in rows] == [False, False, True, True]
    if on:
        walls = [float(r["wall_ms"]) for r in rows if not r["error"]]
        assert all(np.isfinite(w) and w >= 0 for w in walls)
    else:
        assert [r["wall_ms"] for r in rows] == [""] * 4


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
    # 'identity' is no longer a value, even where n == N_t*K*T made it square
    cfg = tiny_config(encoder={"type": "linear", "init": "identity"},
                      baselines={"lmmse": False, "oracle_lmmse": True})
    for n in (3, 8):
        cfg["dims"] = dict(cfg["dims"], n=n)
        assert validate_dict(cfg) == ["encoder.init: must be 'gaussian'"]
    cfg["encoder"] = {"type": "linear", "init": "orthogonal"}
    assert validate_dict(cfg) == ["encoder.init: must be 'gaussian'"]
    cfg["encoder"] = {"type": "linear", "init": "gaussian"}
    assert validate_dict(cfg) == []


@pytest.mark.parametrize("power_mode", ["exact", "average"])
def test_build_link_linear_encoder_ignores_gain(power_mode):
    # a linear map's scale is the power's: both power modes used to normalize gain * A
    # back, after a full-size copy of A, to within rounding
    links = [harness._build_link(ExperimentConfig.from_dict(tiny_config(
        power_mode=power_mode, encoder={"type": "linear", "gain": gain})))
        for gain in (1.0, 2.0, 0.3)]
    d = np.random.default_rng(3).standard_normal((1, 3))
    for link in links[1:]:
        for one, other in ((links[0].encoder, link.encoder),
                           (links[0].pilot_encoder, link.pilot_encoder)):
            A1, A2 = (getattr(e, "base", e).A for e in (one, other))  # exact: a normalized base
            assert A1.tobytes() == A2.tobytes()
            assert one.encode(d).tobytes() == other.encode(d).tobytes()


def test_validate_encoder_file_rejects_pilot_chain(tmp_path):
    _, path = _encoder_file(tmp_path, (1, 8), 3)  # the file must be there: validate loads it
    cfg = tiny_config(encoder={"type": "linear", "file": path})
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


_SHAPE = "the kronecker model needs a {0}x{0} matrix of numbers or [re, im] pairs"
_ROOT = "{0} must be nonzero, with a finite square root"


@pytest.mark.parametrize("R_rx, R_tx, problem", [
    ([[0.0, 0.0], [0.0, 0.0]], [[1.0]], "channel.R_rx: " + _ROOT.format("R_rx")),
    ([[1.0, 0.0], [0.0, 1.0]], [[0.0]], "channel.R_tx: " + _ROOT.format("R_tx")),
    ([[float("inf"), 0.0], [0.0, 1.0]], [[1.0]], "channel.R_rx: " + _SHAPE.format(2)),
    ([[1.0, 0.0], [0.0, 1.0]], [[float("nan")]], "channel.R_tx: " + _SHAPE.format(1)),
    ([[1e308, 1e308], [1e308, 1e308]], [[1.0]], "channel.R_rx: " + _ROOT.format("R_rx")),
], ids=["rx-zero", "tx-zero", "rx-inf", "tx-nan", "rx-root-overflows"])
def test_validate_kronecker_refuses_a_zero_or_nonfinite_covariance(R_rx, R_tx, problem):
    # each used to pass validate, then flag every row "noise part has zero norm" or
    # "sigma_n2 must be finite, got nan"
    assert validate_dict(_kronecker(R_rx, R_tx)) == [problem]


def test_validate_an_overflowing_root_raises_no_warning():
    # the refused root used to print numpy's "invalid value encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_dict(_kronecker([[1e308, 1e308], [1e308, 1e308]], [[1.0]])) == [
            "channel.R_rx: " + _ROOT.format("R_rx")]


def _power(P):
    cfg = tiny_config(baselines={"lmmse": False})  # its pilots need a float P
    cfg["dims"] = dict(cfg["dims"], P=P)
    return cfg


_POWER = "the expected received power N_u P K T tr(R_rx) tr(R_tx) must be at most 1.8e+302"


@pytest.mark.parametrize("cfg, problem", [
    (_kronecker([[1e308, 0.0], [0.0, 1e308]], [[1.0]]), "channel: " + _POWER),
    (_kronecker([[1e300, 0.0], [0.0, 1e300]], [[1e300]]), "channel: " + _POWER),
    (_kronecker([[1e150, 0.0], [0.0, 1e150]], [[1e152]]), "channel: " + _POWER),
    (_power(1e308), "dims.P: " + _POWER),
    (_power(1e302), "dims.P: " + _POWER),
    (_power(10**400), "dims.P: " + _POWER),
    (_power(1e301), None),  # 1.6e302: below the bound
    (_kronecker([[1e150, 0.0], [0.0, 1e150]], [[1.1e151]]), None),  # 1.76e302
    (_kronecker([[-1e-11, 0.0], [0.0, 1e-12]], [[1.0]]), None),  # a trace below 0 by rounding
], ids=["rx-1e308", "rx-tx-1e300", "rx-tx-past-bound", "P-1e308", "P-past-bound", "P-int",
        "P-below-bound", "rx-tx-below-bound", "rx-trace-negative"])
def test_validate_refuses_a_received_power_near_overflow(cfg, problem):
    # each refused config used to pass validate, then flag every row "sigma_n2 must be
    # finite, got inf" (or nan); the check warns of no overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problems = validate_dict(cfg)
    assert problems == ([] if problem is None else [problem])


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
    enc = harness._link_encoder(cfg, (rows, cols), 1, exact=False)
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


_PAIRS = "must be a list of [snr index, trial] integer pairs"


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
    # passed validate, then flagged every row with a TypeError
    ({"force_error_trials": [5]}, f"force_error_trials: {_PAIRS}"),
    # passed validate and were ignored
    ({"force_error_trials": "00"}, f"force_error_trials: {_PAIRS}"),
    ({"force_error_trials": [[0, 0, 7]]}, f"force_error_trials: {_PAIRS}"),
    ({"force_error_trials": [[0, 1.0]]}, f"force_error_trials: {_PAIRS}"),
    # wrote the CSV to stdout, then closed it
    ({"out": True}, "out: must be null or a path"),
    # failed with exit 2, after every trial had run
    ({"out": 99}, "out: must be null or a path"),
], ids=["weights", "draw-untyped", "draw-type", "draw-var", "var-type", "snr-nan", "snr-inf",
        "float-dims", "forced-int", "forced-str", "forced-triple", "forced-float", "out-bool",
        "out-int"])
def test_validate_rejects_what_the_run_would_fail_on(override, problem):
    cfg = tiny_config(**override)
    assert validate_dict(cfg) == [problem]
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_validate_names_each_forced_cell_outside_the_grid():
    # passed validate, and the run flagged no row
    cfg = tiny_config(trials=2, force_error_trials=[[5, 0], [-1, 0], [0, 9], [0, 1]])
    assert validate_dict(cfg) == [
        f"force_error_trials: {pair} is outside the 1 x 2 (snr index, trial) grid"
        for pair in ("[5, 0]", "[-1, 0]", "[0, 9]")]
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert validate_dict(dict(cfg, force_error_trials=[[0, 1]])) == []


@pytest.mark.parametrize("key, spec", [
    ("prior_source", {"type": "gaussian", "var": 0}),
    ("prior_source", {"type": "mixture", "means": [1.0, -1.0], "var": -0.5,
                      "weights": [0.5, 0.5]}),
    ("prior_channel", {"type": "gaussian", "var": 0.0}),
], ids=["source-gaussian", "source-mixture", "channel-gaussian"])
def test_validate_reports_prior_variance_at_its_key(key, spec):
    # was "<key>: var0 must be > 0", named after the constructor's argument
    assert validate_dict(tiny_config(**{key: spec})) == [f"{key}.var: must be > 0"]


def test_validate_reports_every_bad_dims_field():
    # MimoDims used to stop at its first fault: only dims.N_r was reported
    cfg = tiny_config(dims=dict(tiny_config()["dims"], N_r=0, n=0, P=-1.0))
    assert validate_dict(cfg) == ["dims.N_r: must be a positive integer, got 0",
                                  "dims.n: must be a positive integer, got 0",
                                  "dims.P: must be > 0, got -1.0"]


def test_validate_reports_every_bad_pvd_field_past_a_schedule_fault():
    # a bad schedule used to hide every other pvd field: only pvd.sigma1_H was reported
    pvd = dict(tiny_config()["pvd"], sigma1_H=5.0, sigmaJ_H=1.0, J_in=0, L=0, zeta_H=0.0,
               zeta_D=-1.0)
    assert validate_dict(tiny_config(pvd=pvd)) == [
        "pvd.sigma1_H: need 0 < sigma_1 < sigma_J, got 5.0, 1.0",
        "pvd.J_in: must be a positive integer, got 0",
        "pvd.L: must be a positive integer, got 0",
        "pvd.zeta_H: must be > 0, got 0.0",
        "pvd.zeta_D: must be > 0, got -1.0"]
    assert validate_dict({"pvd": {"sigma1_H": 5, "sigmaJ_H": 1, "zeta_D": -1}}) == [
        "pvd.sigma1_H: need 0 < sigma_1 < sigma_J, got 5, 1",
        "pvd.zeta_D: must be > 0, got -1"]


@pytest.mark.parametrize("override, problems", [
    ({"dims": {"P": "x", "N_r": 0}},
     ["dims.P: must be a finite number", "dims.N_r: must be a positive integer, got 0"]),
    ({"pvd": {"J_in": "x", "zeta_H": -1}},
     ["pvd.J_in: must be an integer", "pvd.zeta_H: must be > 0, got -1"]),
    ({"prior_source": {"type": "mixture", "means": [1.0, -1.0], "var": "x",
                       "weights": [0.5, 0.6]}},
     ["prior_source.var: must be a finite number", "prior_source.weights: must sum to 1"]),
    ({"dims": 5, "pvd": {"J": 0}},
     ["dims: must be an object", "pvd.J: must be a positive integer, got 0"]),
], ids=["dims-field", "pvd-field", "prior-field", "section"])
def test_validate_checks_a_mistyped_value_as_its_default(override, problems):
    # a mistyped field or section used to hide every other fault of its section
    assert validate_dict(override) == problems


@pytest.mark.parametrize("gain", [0.0, -0.5])
def test_validate_rejects_a_linear_encoder_gain_that_is_not_positive(gain):
    # gain 0 used to pass validate and flag every pvd row "base encoder output is zero"
    cfg = tiny_config(trials=1, encoder={"type": "linear", "gain": gain},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    assert validate_dict(cfg) == ["encoder.gain: must be > 0"]
    with pytest.raises(ConfigError, match=r"encoder\.gain: must be > 0"):
        run_experiment(cfg)


def _encoder_file(tmp_path, out_shape, n):
    from pvdmimo.channel import complex_normal
    from pvdmimo.encoder import LinearEncoder, save_encoder
    rng = np.random.default_rng(17)
    enc = LinearEncoder(complex_normal(rng, (out_shape[0] * out_shape[1], n)), out_shape)
    path = tmp_path / "enc.npz"
    save_encoder(enc, path)
    return enc, str(path)


def test_run_with_an_encoder_file(tmp_path):
    from pvdmimo import harness
    enc, path = _encoder_file(tmp_path, (1, 8), 3)  # tiny_config: (N_t*K, T) = (1, 8), n = 3
    cfg = tiny_config(trials=1, encoder={"type": "linear", "file": path},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    assert np.array_equal(harness._build_link(ExperimentConfig.from_dict(cfg)).encoder.base.A,
                          enc.A)
    records = run_experiment(cfg)
    assert [r.method for r in records] == ["pvd"]
    assert records[0].error == "" and np.isfinite(records[0].nmse_db)


def test_run_rejects_an_encoder_file_of_another_shape(tmp_path):
    _, path = _encoder_file(tmp_path, (1, 6), 3)
    cfg = tiny_config(trials=1, encoder={"type": "linear", "file": path},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    problem = "encoder.file: shape (1, 6)/3 does not match (1, 8)/3"
    assert validate_dict(cfg) == [problem]
    with pytest.raises(ConfigError, match=re.escape(problem)):
        run_experiment(cfg)


def test_run_reports_an_encoder_file_it_cannot_read(tmp_path):
    # validate used to pass a file it could not read and leave it to the run
    path = str(tmp_path / "no.npz")
    cfg = tiny_config(trials=1, encoder={"type": "linear", "file": path},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    problem = f"encoder.file: cannot read {path!r}: No such file or directory"
    assert validate_dict(cfg) == [problem]
    with pytest.raises(ConfigError, match=re.escape(problem)):
        run_experiment(cfg)


@pytest.mark.parametrize("power_mode", ["exact", "average"])
@pytest.mark.parametrize("kind", ["match", "unreadable", "zero", "nonfinite", "type", "shape"])
def test_an_encoder_file_validate_passes_runs(tmp_path, capsys, kind, power_mode):
    # An unreadable file, a zero matrix and a NaN entry used to pass validate: the run then
    # raised a ConfigError at the link build, or flagged every row "base encoder output is
    # zero" or "sigma_n2 must be finite, got nan".
    from pvdmimo.channel import complex_normal
    from pvdmimo.encoder import LinearEncoder, SaturatingEncoder, save_encoder
    A = complex_normal(np.random.default_rng(5), (8, 3))  # tiny_config: (N_t*K, T) = (1, 8), n = 3
    path = tmp_path / "enc.npz"
    if kind != "unreadable":
        save_encoder({"match": LinearEncoder(A, (1, 8)), "zero": LinearEncoder(0 * A, (1, 8)),
                      "nonfinite": LinearEncoder(np.where(np.eye(8, 3), np.nan, A), (1, 8)),
                      "type": SaturatingEncoder(A, 1.25, (1, 8)),
                      "shape": LinearEncoder(A[:6], (1, 6))}[kind], path)
    cfg = tiny_config(trials=1, power_mode=power_mode,
                      encoder={"type": "linear", "file": str(path)},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    problems = validate_dict(cfg)
    if kind == "match":
        assert problems == []
        assert [r.error for r in run_experiment(cfg)] == [""]
    else:
        assert len(problems) == 1 and problems[0].startswith("encoder.file: "), problems
        with pytest.raises(ConfigError, match=re.escape(problems[0])):
            run_experiment(cfg)
        assert cli_main(["run", str(_write_cfg(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err.splitlines() == problems


_MIXTURE = {"type": "mixture", "means": [1.0, -1.0], "var": 0.25, "weights": [0.5, 0.5]}
_NOT_NPZ = "{path}: not an .npz archive of plain arrays"


def _npy(arrays):
    buf = io.BytesIO()
    np.save(buf, arrays["A"])
    return buf.getvalue()


@pytest.mark.parametrize("override, edit, problem", [
    # were "prior_source: must be a number" and numpy's float() message at the section
    ({"prior_source": dict(_MIXTURE, means=5)}, None,
     "prior_source.means: must be a nonempty list of numbers or length-3 vectors"),
    ({"prior_source": dict(_MIXTURE, weights="a")}, None,
     "prior_source.weights: must be a list of numbers"),
    ({"prior_source": dict(_MIXTURE, weights=None)}, None,
     "prior_source.weights: must be a list of numbers"),
    # an edit maps the file's arrays to the arrays, or the bytes, written in their place
    (None, lambda a: b"pvdmimo-encoder v1\n", _NOT_NPZ),
    (None, lambda a: b"", _NOT_NPZ),
    (None, _npy, _NOT_NPZ),
    (None, lambda a: dict(a, A=np.array([None], dtype=object)), _NOT_NPZ),
    (None, lambda a: {"A": a["A"]}, "{path}: output_shape is not a file in the archive"),
    (None, lambda a: dict(a, output_shape=np.array([1.0, 8.0])),
     "{path}: output_shape must be two positive integers, got [1. 8.]"),
    (None, lambda a: dict(a, output_shape=np.array([-1, -8])),
     "{path}: output_shape must be two positive integers, got [-1 -8]"),
    (None, lambda a: dict(a, A=a["A"][..., None]),
     "{path}: A must be a numeric matrix, got complex128 (8, 3, 1)"),
    (None, lambda a: dict(a, A=a["A"].astype(str)),
     "{path}: A must be a numeric matrix, got <U64 (8, 3)"),
    (None, lambda a: dict(a, A=a["A"][:6]),
     "A must be (m, n) or (N_u, m, n) with m = 8 rows for output [1, 8]"),
    # 2**32 * 2**32 wraps to 0 in int64, which a 0-row A would match
    (None, lambda a: dict(a, A=a["A"][:0], output_shape=np.array([2**32, 2**32])),
     f"A must be (m, n) or (N_u, m, n) with m = {2**64} rows for output [{2**32}, {2**32}]"),
    (None, lambda a: dict(a, gain=np.ones(2)),
     "{path}: gain must be a real scalar, got float64 (2,)"),
    # passed as a saturating encoder whose every output is NaN
    (None, lambda a: dict(a, gain=np.nan), "gain must be finite and > 0, got nan"),
], ids=["means", "weights", "weights-null", "text", "empty", "npy", "object-array",
        "missing-array", "shape-float", "shape-negative", "A-rank", "A-text", "A-rows",
        "A-rows-overflow", "gain-array", "gain-nan"])
def test_validate_reports_a_mixture_field_or_an_encoder_file_fault_at_its_path(
        tmp_path, override, edit, problem):
    _, path = _encoder_file(tmp_path, (1, 8), 3)  # tiny_config: (N_t*K, T) = (1, 8), n = 3
    if edit is None:
        cfg = tiny_config(**override)
    else:
        with np.load(path) as npz:
            out = edit(dict(npz))
        with open(path, "wb") as fh:
            if isinstance(out, bytes):
                fh.write(out)
            else:
                np.savez(fh, **out)
        cfg = tiny_config(encoder={"type": "linear", "file": path},
                          baselines={"lmmse": False, "oracle_lmmse": False})
        problem = "encoder.file: " + problem.format(path=path)
    assert validate_dict(cfg) == [problem]


def test_run_rejects_an_encoder_file_of_another_type(tmp_path, capsys):
    # a saturating file used to run under encoder.type 'linear', and so under
    # power_mode 'average', which calibrates linear encoders only
    from pvdmimo.channel import complex_normal
    from pvdmimo.encoder import SaturatingEncoder, save_encoder
    path = tmp_path / "enc.npz"
    save_encoder(SaturatingEncoder(complex_normal(np.random.default_rng(3), (8, 3)), 1.25,
                                   (1, 8)), path)
    cfg = tiny_config(trials=1, power_mode="average",
                      encoder={"type": "linear", "gain": 3.0, "file": str(path)},
                      baselines={"lmmse": False, "oracle_lmmse": False})
    problem = "encoder.file: holds a saturating encoder, encoder.type is 'linear'"
    assert validate_dict(cfg) == [problem]
    with pytest.raises(ConfigError, match=problem):
        run_experiment(cfg)
    assert cli_main(["run", str(_write_cfg(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err.splitlines() == [problem]


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
    summary = sweep(cfg, "dims.N_t", [1, 2], links={"dims.N_r": [8, 16]})
    assert len(summary) == 2
    assert all(row["errors"] == 0 for row in summary)
    for links in ({"dims.N_r": [8]}, {"dims.N_r": [8, 16, 32]}, {"dims.N_r": "8*x"}):
        with pytest.raises(ConfigError, match=re.escape(
                "link dims.N_r: must list one value per swept value (2)")):
            sweep(cfg, "dims.N_t", [1, 2], links=links)
    # a value that is no number is the point's parse's to report (float() used to escape);
    # so is an integral float, which used to become an int here but not in run_experiment
    for param, values, links in [("dims.N_r", ["a"], None), ("dims.N_r", [None], None),
                                 ("dims.N_t", [1], {"dims.N_r": [True]}),
                                 ("dims.N_r", [8.0], None)]:
        with pytest.raises(ConfigError, match=re.escape("dims.N_r: must be an integer")):
            sweep(cfg, param, values, links=links)


def test_sweep_derives_each_point_seed_from_a_swept_seed():
    # each point's seed used to come from the base seed, so every seed sweep gave one result
    cfg = tiny_config(trials=2)
    a, b = (sweep(cfg, "seed", seeds) for seeds in ([1, 2], [30, 40]))
    assert [r["nmse_db_median"] for r in a] != [r["nmse_db_median"] for r in b]
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, "seed", [1.5])


def test_sweep_empty_values_error():
    with pytest.raises(ConfigError):
        sweep(tiny_config(), "snr_db", [])


def test_sweep_unknown_path_error():
    with pytest.raises(ConfigError):
        sweep(tiny_config(), "dims.bogus", [1])


@pytest.mark.parametrize("conf, trials, workers, sizes", [
    ("default", 300, 1, [150, 150]),  # at most 273 of its cells fit under 1 MiB
    ("default", 300, 3, [100, 100, 100]),
    ("known_channel", 100, 1, [100]),
    ("known_channel", 100, 4, [25, 25, 25, 25]),  # one batch per worker
    ("known_channel", 2, 3, [1, 1]),
])
def test_batches_cut_each_snr_point_into_even_runs(conf, trials, workers, sizes):
    with open(ROOT / "configs" / f"{conf}.json") as fh:
        cfg = ExperimentConfig.from_dict(dict(json.load(fh), trials=trials, workers=workers))
    batches = harness._batches(cfg)
    for si in range(len(cfg.raw["snr_db"])):
        runs = [r for i, r in batches if i == si]
        assert [len(r) for r in runs] == sizes
        assert [t for r in runs for t in r] == list(range(trials))
    assert [i for i, _ in batches] == sorted(i for i, _ in batches)


@pytest.mark.parametrize("cfg, workers", [
    (tiny_config(trials=4), 2),
    # per-worker link: calibrated encoders, pilot chain and covariance oracle
    (tiny_config(trials=4, power_mode="average",
                 dims={"N_r": 3, "N_t": 2, "K": 2, "T": 8, "N_u": 1, "n": 3, "P": 1.0},
                 channel={"model": "kronecker", "R_rx": [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5],
                                                         [0.25, 0.5, 1.0]],
                          "R_tx": [[1.0, [0.3, 0.1]], [[0.3, -0.1], 1.0]]},
                 baselines={"lmmse": True, "oracle_lmmse": True, "N_p": 2}), 2),
    # three workers over three SNR points of 4 trials, each cut into batches of 1, 1
    # and 2 trials, with a forced error inside the first point's batch of 2
    (tiny_config(trials=4, snr_db=[5.0, 15.0, 25.0], force_error_trials=[[0, 2]]), 3),
], ids=["rayleigh", "kronecker-average-baselines", "three-workers-forced-cell"])
def test_workers_match_serial(tmp_path, cfg, workers):
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
    run_experiment(dict(cfg, workers=1, diagnostics=True), out=p1)
    run_experiment(dict(cfg, workers=workers, diagnostics=True), out=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "serial.csv.diag.csv").read_bytes() == \
        (tmp_path / "pool.csv.diag.csv").read_bytes()


def test_a_serial_run_does_not_load_the_process_pool():
    # the harness used to import concurrent.futures for every run
    src = os.path.dirname(os.path.dirname(pvdmimo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pvdmimo\n"
            f"pvdmimo.run_experiment({tiny_config(trials=1, workers=1)!r})\n"
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["False"]


def test_diagnostics_stream(tmp_path):
    path = tmp_path / "res.csv"
    cfg = tiny_config(trials=1, diagnostics=True)
    run_experiment(cfg, out=path)
    diag = str(path) + ".diag.csv"
    with open(diag) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["snr_db", "trial", "j"]
    assert len(rows) == 1 + cfg["pvd"]["J"]


def test_prior_means_given_as_re_im_pairs():
    # a [re, im] mean is complex for the channel prior and its real part for the source's
    from pvdmimo import harness
    cfg = ExperimentConfig.from_dict(tiny_config(
        trials=1, prior_channel={"type": "gaussian", "mean": [0.5, -0.25], "var": 1.0},
        prior_source={"type": "gaussian", "mean": [0.5, 9.0], "var": 1.0}))
    records = run_experiment(cfg)
    assert len(records) == 2 and [r.error for r in records] == ["", ""]
    link = harness._build_link(cfg)
    sc = harness._scene(cfg, link, 15.0, np.random.default_rng(0))
    assert np.all(cfg.prior_channel(sc.channels).mean == 0.5 - 0.25j)
    assert np.all(cfg.prior_source(sc.sources).mean == 0.5)


@pytest.mark.parametrize("key", ["prior_channel", "prior_source", "source_draw"])
@pytest.mark.parametrize("mean", [[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3], [0.5], []],
                         ids=["8", "3", "1", "0"])
def test_validate_rejects_a_list_mean_that_is_not_a_pair(key, mean):
    # a real prior used to take mean[0] and a complex one to fail as "prior_channel: must
    # be a number"; [1, 2, ..., 8] ran as a constant 1.0 source prior
    cfg = tiny_config(**{key: {"type": "gaussian", "mean": mean, "var": 1.0}})
    assert validate_dict(cfg) == [f"{key}.mean: must be a number or an [re, im] pair"]


def _typed_leaves():
    """The dotted path of every bool, int or float leaf of DEFAULT_CONFIG's sections."""
    for sec, val in harness.DEFAULT_CONFIG.items():
        for key, leaf in (val.items() if isinstance(val, dict) else [(None, val)]):
            if isinstance(leaf, (bool, int, float)):
                yield sec if key is None else f"{sec}.{key}"


@pytest.mark.parametrize("path", list(_typed_leaves()))
def test_validate_reports_a_string_leaf_at_its_path(path):
    # a string prior mean used to be reported at the section ("prior_channel: complex() arg
    # is a malformed string"), not at prior_channel.mean
    cfg = copy.deepcopy(harness.DEFAULT_CONFIG)
    assert validate_dict(cfg) == []
    *sec, key = path.split(".")
    (cfg[sec[0]] if sec else cfg)[key] = "x"
    problems = validate_dict(cfg)
    assert len(problems) == 1 and problems[0].startswith(f"{path}: "), problems


# A value each numeric leaf of DEFAULT_CONFIG refuses, or for a count 0, -1 and a fraction.
# Nothing refuses a seed (any integer) or the inert pvd.probes.
_REFUSED = {"dims.P": 0.0, "encoder.gain": 0.0, "pvd.sigma1_H": 0.0, "pvd.sigmaJ_H": 0.0,
            "pvd.sigma1_D": 0.0, "pvd.sigmaJ_D": -1.0, "pvd.zeta_H": 0.0, "pvd.zeta_D": -1.0,
            "prior_channel.mean": float("inf"), "prior_channel.var": 0.0,
            "prior_source.mean": float("nan"), "prior_source.var": -1.0}
_UNREFUSED = ("seed", "pvd.probes")


def _out_of_range_values():
    for path in _typed_leaves():
        *sec, key = path.split(".")
        default = (harness.DEFAULT_CONFIG[sec[0]] if sec else harness.DEFAULT_CONFIG)[key]
        if path in _REFUSED:
            yield path, _REFUSED[path]
        elif type(default) is int and path not in _UNREFUSED:
            yield from ((path, 0), (path, -1), (path, 2.5))
        else:  # a new float leaf needs its refused value in _REFUSED
            assert type(default) is bool or path in _UNREFUSED, path


@pytest.mark.parametrize("path, value", list(_out_of_range_values()))
def test_validate_reports_an_out_of_range_leaf_at_its_path(path, value):
    # pvd.sigmaJ_H 0.0 was reported at pvd.sigma1_H, baselines.N_p 0 as "N_t and N_p must be
    # >= 1", and dims.N_u 0 also as a pilot baseline fault
    cfg = copy.deepcopy(harness.DEFAULT_CONFIG)
    *sec, key = path.split(".")
    (cfg[sec[0]] if sec else cfg)[key] = value
    problems = validate_dict(cfg)
    assert len(problems) == 1 and problems[0].startswith(f"{path}: "), problems
    named = {p.split(".")[-1] for p in _typed_leaves()} - {key}  # the message names no other
    assert not [k for k in named if re.search(rf"\b{k}\b", problems[0])], problems


# The validate contract: a config that validate_dict passes runs, and a PVD divergence is the
# only fault a row may carry. Every field of the schema is drawn, bad values among the good.
_FIELDS = {
    "dims": {"N_r": st.integers(1, 4), "N_t": st.integers(1, 2), "K": st.integers(1, 2),
             "T": st.integers(1, 6), "N_u": st.sampled_from([1, 1, 2]), "n": st.integers(1, 5),
             "P": st.sampled_from([0.5, 1.0, 2.0])},
    "encoder": {"type": st.sampled_from(["linear", "saturating"]),
                "init": st.just("gaussian"),
                "gain": st.sampled_from([0.5, 1.0, 2.0, 0.7, 0.0]), "file": st.none()},
    "pvd": {"enabled": st.sampled_from([True, True, False]),
            "J": st.sampled_from([2, 3, 2, 3, 1]), "J_in": st.integers(1, 2),
            "L": st.integers(1, 2), "sigma1_H": st.just(0.01), "sigmaJ_H": st.just(10.0),
            "sigma1_D": st.just(0.01), "sigmaJ_D": st.just(10.0),
            "zeta_H": st.sampled_from([0.06, 0.5]), "zeta_D": st.sampled_from([0.06, 0.5]),
            "probes": st.just(8)},
    "baselines": {"lmmse": st.booleans(), "oracle_lmmse": st.booleans(),
                  "N_p": st.integers(1, 3)},
}
_NUMBERS = st.sampled_from([0.0, 0.5, -1.0])
_MEANS = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2),
                   st.lists(_NUMBERS, max_size=4), st.just("truth"))


def _draw_prior(draw, n, mixture):
    if not mixture:
        return {"type": "gaussian", "mean": draw(_MEANS), "var": draw(st.sampled_from([0.25, 2.0]))}
    means = draw(st.lists(st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=n, max_size=n)),
                          min_size=1, max_size=3))
    w = np.full(len(means), 1.0 / len(means))
    return {"type": "mixture", "means": means, "var": 0.25, "weights": w.tolist()}


@st.composite
def _configs(draw):
    cfg = {sec: {key: draw(_FIELDS[sec][key]) for key in harness.DEFAULT_CONFIG[sec]}
           for sec in _FIELDS}
    d = cfg["dims"]
    if draw(st.booleans()):  # a square link matrix
        d["n"] = d["N_t"] * d["K"] * d["T"]
    model = draw(st.sampled_from(sorted(harness._CHANNEL_KEYS)))
    cfg["channel"] = {"model": model}
    if model == "kronecker":
        for key, size in (("R_rx", d["N_r"]), ("R_tx", d["N_t"])):
            rho = draw(st.sampled_from([0.0, 0.5, 0.9]))
            R = [[rho ** abs(i - j) for j in range(size)] for i in range(size)]
            # a zero matrix or an infinite entry used to pass validate, then flag every row
            fault = draw(st.sampled_from([None, None, None, 0.0, float("inf")]))
            if fault == 0:
                R = [[0.0] * size for _ in range(size)]
            elif fault:
                R[0][0] = fault
            cfg["channel"][key] = R
    assert set(cfg["channel"]) == set(harness._CHANNEL_KEYS[model])
    for key in ("prior_channel", "prior_source", "source_draw"):
        if key == "source_draw" and draw(st.booleans()):
            cfg[key] = None
            continue
        cfg[key] = _draw_prior(draw, d["n"], key != "prior_channel" and draw(st.booleans()))
        assert set(cfg[key]) == set(harness._PRIOR_KEYS[cfg[key]["type"]])
    cfg.update(power_mode=draw(st.sampled_from(["exact", "exact", "average"])),
               snr_db=[draw(st.sampled_from([-10.0, 10.0, 40.0]))], trials=1,
               seed=draw(st.integers(0, 2**16)))
    return cfg


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(cfg=_configs())
def test_a_config_that_validates_runs_with_divergence_the_only_error(cfg):
    assume(validate_dict(cfg) == [])
    errors = {r.error.split(":")[0] for r in run_experiment(cfg)} - {""}
    assert errors <= {"PvdDivergenceError"}


# --- CLI ---------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config())
    assert cli_main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_run_diagnostics_writes_the_trace(tmp_path):
    out = tmp_path / "rows.csv"
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["run", str(path), "--out", str(out), "--diagnostics"]) == 0
    with open(str(out) + ".diag.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DIAG_COLUMNS
    assert len(rows) == 1 + tiny_config()["pvd"]["J"]


def test_cli_validate_takes_no_seed(tmp_path, capsys):
    # validate used to accept a hidden --seed and ignore it
    with pytest.raises(SystemExit) as exc_info:
        cli_main(["validate", str(_write_cfg(tmp_path, tiny_config())), "--seed", "3"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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


def test_cli_sweep_linked_field(tmp_path, monkeypatch):
    from pvdmimo import harness
    seen, original = [], harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment",
                        lambda point: seen.append(point["dims"]["N_r"]) or original(point))
    out = tmp_path / "sweep.csv"
    path = _write_cfg(tmp_path, tiny_config(trials=1, baselines={"lmmse": False,
                                                                 "oracle_lmmse": False}))
    # the CLI parses integral values to ints: the parse refuses a float count
    assert cli_main(["sweep", str(path), "--param", "dims.N_t", "--values", "1,2.0",
                     "--link", "dims.N_r=2.0,4", "--out", str(out)]) == 0
    assert seen == [2, 4]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["value"], row["errors"]) for row in rows] == [("1", "0"), ("2", "0")]


def test_cli_sweep_link_without_expression_exit_1(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["sweep", str(path), "--param", "dims.N_t", "--values", "1",
                     "--link", "dims.N_r"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "--link expects PATH=V1,V2,..., got 'dims.N_r'"]


def test_cli_sweep_link_of_the_wrong_length_exit_1(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["sweep", str(path), "--param", "dims.N_t", "--values", "1,2",
                     "--link", "dims.N_r=2,4,8"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "link dims.N_r: must list one value per swept value (2)"]
    assert cli_main(["sweep", str(path), "--param", "dims.N_t", "--values", "1",
                     "--link", "dims.N_r=2*x"]) == 1
    assert capsys.readouterr().err.splitlines() == ["--link dims.N_r: '2*x' is not a number"]


def test_cli_sweep_values_not_numbers_exit_1(tmp_path, capsys):
    # float() used to fail as a runtime failure (exit 2)
    path = _write_cfg(tmp_path, tiny_config(trials=1))
    assert cli_main(["sweep", str(path), "--param", "snr_db", "--values", "a,b"]) == 1
    assert capsys.readouterr().err.splitlines() == ["--values: 'a' is not a number"]
