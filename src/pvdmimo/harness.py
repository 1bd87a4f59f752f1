"""Config-driven Monte Carlo experiments over the full recovery stack.

A JSON config (a plain key/value tree, schema documented in the README)
describes the link dimensions, channel model, encoder, priors, reverse
process, baselines, SNR grid, and trial count. run_experiment executes
every (snr, trial) cell with its own generator derived deterministically
from (master seed, snr index, trial index), scores each enabled method,
and writes one CSV row per (trial, method). Per-trial failures are
recorded as error-flagged rows and never abort the sweep. sweep repeats
an experiment across values of one numeric config field (with optional
linked fields) and aggregates summary statistics per value.
"""

from __future__ import annotations

import ast
import copy
import csv
import dataclasses
import json
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from . import metrics as mt
from . import pvd as pv
from .channel import (
    MimoDims,
    BlockFadingChannel,
    apply_channel,
    complex_normal,
    draw_kronecker_correlated,
    draw_rayleigh,
)
from .encoder import (
    Encoder,
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    load_encoder,
)
from .priors import GaussianMixturePrior, GaussianPrior, ScorePrior

METHOD_ORDER = ["pvd", "lmmse", "oracle_lmmse"]

DEFAULT_CONFIG: dict = {
    "dims": {"N_r": 4, "N_t": 1, "K": 1, "T": 16, "N_u": 1, "n": 8, "P": 1.0},
    "channel": {"model": "rayleigh"},
    "encoder": {"type": "linear", "init": "gaussian", "gain": 1.0},
    "prior_channel": {"type": "gaussian", "mean": 0.0, "var": 1.0},
    "prior_source": {"type": "gaussian", "mean": 0.0, "var": 1.0},
    "source_draw": None,
    "pvd": {
        "enabled": True, "J": 30, "J_in": 20, "L": 1,
        "sigma1_H": 0.01, "sigmaJ_H": 100.0,
        "sigma1_D": 0.01, "sigmaJ_D": 100.0,
        "zeta_H": 0.06, "zeta_D": 0.06,
        "chain_through_score": True, "probes": 8, "exact_threshold": 65536,
    },
    "baselines": {"lmmse": True, "oracle_lmmse": True, "N_p": 2},
    "power_mode": "exact",
    "snr_db": [10.0],
    "trials": 300,
    "seed": 1234,
    "out": None,
    "workers": 1,
    "diagnostics": False,
    "record_timing": False,
    "force_error_trials": [],
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

def _merged(user: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, val in user.items():
        if key in ("dims", "pvd", "baselines") and isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = copy.deepcopy(val)
    return cfg


def _as_complex_matrix(spec) -> np.ndarray:
    """Matrix entries are numbers or [re, im] pairs."""
    rows = []
    for row in spec:
        rows.append([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                     for v in row])
    return np.array(rows, dtype=np.complex128)


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description."""

    dims: MimoDims
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        cfg = _merged(user)
        problems = validate_dict(cfg)
        if problems:
            raise ConfigError("; ".join(problems))
        d = cfg["dims"]
        dims = MimoDims(N_r=d["N_r"], N_t=d["N_t"], K=d["K"], T=d["T"],
                        N_u=d["N_u"], n=d["n"], P=d["P"])
        return cls(dims=dims, raw=cfg)

    @property
    def methods(self) -> list[str]:
        enabled = []
        if self.raw["pvd"]["enabled"]:
            enabled.append("pvd")
        if self.raw["baselines"]["lmmse"]:
            enabled.append("lmmse")
        if self.raw["baselines"]["oracle_lmmse"]:
            enabled.append("oracle_lmmse")
        return enabled

    def pvd_config(self) -> pv.PvdConfig:
        p = self.raw["pvd"]
        return pv.PvdConfig(
            schedule_H=pv.NoiseSchedule(p["sigma1_H"], p["sigmaJ_H"], p["J"]),
            schedule_D=pv.NoiseSchedule(p["sigma1_D"], p["sigmaJ_D"], p["J"]),
            J_in=p["J_in"], L=p["L"],
            zeta_H=p["zeta_H"], zeta_D=p["zeta_D"],
            chain_through_score=p["chain_through_score"],
            probes=p["probes"], exact_threshold=p["exact_threshold"],
        )


def validate_dict(user: dict) -> list[str]:
    """Check every invariant of the config tree; one message per violation."""
    cfg = _merged(user)
    out: list[str] = []

    def check(cond: bool, path: str, msg: str):
        if not cond:
            out.append(f"{path}: {msg}")

    d = cfg["dims"]
    for name in ("N_r", "N_t", "K", "T", "N_u", "n"):
        v = d.get(name)
        check(isinstance(v, int) and v >= 1, f"dims.{name}", "must be an integer >= 1")
    check(isinstance(d.get("P"), (int, float)) and d.get("P", 0) > 0, "dims.P", "must be > 0")

    ch = cfg["channel"]
    model = ch.get("model")
    check(model in ("rayleigh", "kronecker"), "channel.model",
          "must be 'rayleigh' or 'kronecker'")
    if model == "kronecker":
        for key in ("R_rx", "R_tx"):
            check(key in ch, f"channel.{key}", "required for the kronecker model")

    enc = cfg["encoder"]
    check(enc.get("type") in ("linear", "saturating"), "encoder.type",
          "must be 'linear' or 'saturating'")
    if enc.get("type") == "saturating":
        check(enc.get("gain", 1.0) > 0, "encoder.gain", "must be > 0")

    for key in ("prior_channel", "prior_source"):
        p = cfg[key]
        kind = p.get("type")
        check(kind in ("gaussian", "mixture"), f"{key}.type",
              "must be 'gaussian' or 'mixture'")
        if kind == "gaussian":
            check(p.get("var", 0) > 0, f"{key}.var", "must be > 0")
        elif kind == "mixture":
            check(key == "prior_source", key, "mixture priors are supported for the source only")
            check(p.get("var", 0) > 0, f"{key}.var", "must be > 0")
            w = p.get("weights", [])
            check(len(w) > 0 and all(x > 0 for x in w) and abs(sum(w) - 1.0) < 1e-9,
                  f"{key}.weights", "must be positive and sum to 1")
            means = p.get("means", [])
            check(len(means) == len(w), f"{key}.means", "one mean per weight required")
            n_src = d.get("n", 1)
            check(all(not isinstance(m, (list, tuple)) or len(m) == n_src for m in means),
                  f"{key}.means", f"each mean must be a scalar or a length-{n_src} vector")
    if cfg["prior_source"].get("mean") == "truth":
        check(cfg.get("source_draw") is not None, "source_draw",
              "required when prior_source.mean is 'truth'")

    p = cfg["pvd"]
    check(isinstance(p.get("J"), int) and p.get("J", 0) >= 2, "pvd.J", "must be an integer >= 2")
    check(isinstance(p.get("J_in"), int) and p.get("J_in", 0) >= 1, "pvd.J_in",
          "must be an integer >= 1")
    check(isinstance(p.get("L"), int) and p.get("L", 0) >= 1, "pvd.L",
          "must be an integer >= 1")
    for side in ("H", "D"):
        s1, sJ = p.get(f"sigma1_{side}", 0), p.get(f"sigmaJ_{side}", 0)
        check(0 < s1 < sJ, f"pvd.sigma1_{side}", "need 0 < sigma_1 < sigma_J")
        check(p.get(f"zeta_{side}", 0) > 0, f"pvd.zeta_{side}", "must be > 0")
    check(p.get("probes", 0) >= 1, "pvd.probes", "must be >= 1")

    b = cfg["baselines"]
    if b.get("lmmse") or b.get("oracle_lmmse"):
        check(isinstance(b.get("N_p"), int) and b.get("N_p", 0) >= 1, "baselines.N_p",
              "must be an integer >= 1")
        check(d.get("N_u", 1) == 1, "baselines", "pilot baselines support N_u = 1 only")
    if b.get("lmmse"):
        check(b.get("N_p", 0) < d.get("T", 0), "baselines.N_p",
              "must leave at least one data slot (N_p < T)")

    check(cfg.get("power_mode", "exact") in ("exact", "average"), "power_mode",
          "must be 'exact' (per-realization normalization) or 'average' (fixed calibration)")
    check(isinstance(cfg["snr_db"], list) and len(cfg["snr_db"]) > 0, "snr_db",
          "must be a nonempty list of dB values")
    check(isinstance(cfg["trials"], int) and cfg["trials"] >= 1, "trials",
          "must be an integer >= 1")
    check(isinstance(cfg["seed"], int), "seed", "must be an integer")
    check(isinstance(cfg["workers"], int) and cfg["workers"] >= 1, "workers",
          "must be an integer >= 1")
    if not (cfg["pvd"]["enabled"] or b.get("lmmse") or b.get("oracle_lmmse")):
        out.append("pvd.enabled: no method enabled")
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Scene construction
# ---------------------------------------------------------------------------

def _build_base_encoder(spec: dict, out_shape: tuple[int, int], n: int,
                        rng: np.random.Generator) -> Encoder:
    if "file" in spec and spec["file"]:
        enc = load_encoder(spec["file"])
        if enc.output_shape != out_shape or enc.input_dim != n:
            raise ConfigError(
                f"encoder file shape {enc.output_shape}/{enc.input_dim} does not match "
                f"{out_shape}/{n}")
        return enc
    m = out_shape[0] * out_shape[1]
    init = spec.get("init", "gaussian")
    if init == "identity":
        if m != n:
            raise ConfigError("identity encoder init requires n == N_t*K*T")
        A = np.eye(m, dtype=np.complex128)
    elif init == "gaussian":
        A = complex_normal(rng, (m, n), 1.0) / np.sqrt(n)
    else:
        raise ConfigError(f"unknown encoder init {init!r}")
    gain = float(spec.get("gain", 1.0))
    if spec["type"] == "linear":
        return LinearEncoder(gain * A, out_shape)
    return SaturatingEncoder(A, gain, out_shape)


def _calibration_scale(base: Encoder, sampler, P: float, rng: np.random.Generator,
                       n_draws: int = 256) -> float:
    """Fixed scale making the average per-symbol power equal P under the prior."""
    m = base.output_shape[0] * base.output_shape[1]
    acc = 0.0
    for _ in range(n_draws):
        acc += float(np.linalg.norm(base.encode(sampler(rng))) ** 2)
    mean_power = acc / n_draws
    if mean_power == 0:
        raise ConfigError("encoder output power is zero under the source prior")
    return math.sqrt(P * m / mean_power)


def _build_prior(spec: dict, domain: str, shape, truth: np.ndarray | None) -> ScorePrior:
    kind = spec["type"]
    if kind == "gaussian":
        mean = spec.get("mean", 0.0)
        if isinstance(mean, str) and mean == "truth":
            if truth is None:
                raise ConfigError("'truth'-anchored prior needs the realized value")
            mean_arr = truth
        elif isinstance(mean, (list, tuple)):
            mean_arr = np.full(shape, complex(mean[0], mean[1]) if domain == "complex"
                               else float(mean[0]))
        else:
            mean_arr = np.full(shape, complex(mean) if domain == "complex" else float(mean))
        return GaussianPrior(mean_arr, spec["var"], domain)
    if kind == "mixture":
        # Each mean is a scalar or a full vector; scalars fill the vector.
        means = np.stack([np.broadcast_to(np.asarray(m, dtype=np.float64), shape)
                          for m in spec["means"]])
        return GaussianMixturePrior(means, spec["var"], spec["weights"], domain)
    raise ConfigError(f"unknown prior type {kind!r}")


def _source_sampler(cfg: dict, n: int):
    """Callable rng -> true source draw, from source_draw or prior_source."""
    spec = cfg.get("source_draw") or cfg["prior_source"]
    if isinstance(spec.get("mean"), str):
        raise ConfigError("cannot draw the true source from a 'truth'-anchored prior")
    prior = _build_prior(spec, "real", (n,), None)
    return lambda rng: prior.sample(rng)


def _trial_seed(master: int, snr_idx: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([master & 0xFFFFFFFF, snr_idx, trial])


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------

def _run_trial(cfg: ExperimentConfig, snr_idx: int, trial: int):
    """Execute one (snr, trial) cell; returns (records, diagnostics rows)."""
    raw = cfg.raw
    dims = cfg.dims
    snr_target = float(raw["snr_db"][snr_idx])
    ss = _trial_seed(raw["seed"], snr_idx, trial)
    seed_int = int(ss.generate_state(1)[0])
    rng = np.random.default_rng(ss)

    records: list[mt.MetricsRecord] = []
    diag_rows: list[list] = []
    methods = cfg.methods

    def error_rows(message: str):
        for method in methods:
            records.append(mt.MetricsRecord(
                trial=trial, seed=seed_int, snr_db=snr_target,
                cbr=float("nan"), nmse_db=float("nan"), source_mse=float("nan"),
                residual=float("nan"), method=method, wall_ms=None, error=message,
            ))
        return records, diag_rows

    try:
        if [snr_idx, trial] in [list(t) for t in raw.get("force_error_trials", [])]:
            raise RuntimeError("forced divergent trial")

        # Scene: channel, true sources, encoders, priors.
        if raw["channel"]["model"] == "kronecker":
            R_rx = _as_complex_matrix(raw["channel"]["R_rx"])
            R_tx = _as_complex_matrix(raw["channel"]["R_tx"])
            channels = draw_kronecker_correlated(dims, R_rx, R_tx, rng)
            cov_vec = np.kron(R_tx.T, R_rx)
        else:
            channels = draw_rayleigh(dims, rng)
            cov_vec = None
        sampler = _source_sampler(raw, dims.n)
        sources = [sampler(rng) for _ in range(dims.N_u)]

        enc_rngs = [np.random.default_rng(np.random.SeedSequence(
            [raw["seed"] & 0xFFFFFFFF, 0xE2C0DE, i])) for i in range(dims.N_u)]
        bases = [_build_base_encoder(raw["encoder"], dims.signal_shape, dims.n, r)
                 for r in enc_rngs]
        if raw.get("power_mode", "exact") == "exact":
            # Every realization meets the power budget with equality; the
            # normalization is part of the map the receiver differentiates.
            encs_pvd: list[Encoder] = [PowerNormalizedEncoder(b, dims.P) for b in bases]
        else:
            # Fixed calibration: power P holds on average under the source
            # prior, the map stays linear in the source.
            encs_pvd = []
            for i, b in enumerate(bases):
                cal_rng = np.random.default_rng(np.random.SeedSequence(
                    [raw["seed"] & 0xFFFFFFFF, 0xCA11B, 1 + i]))
                scale = _calibration_scale(b, _source_sampler(raw, dims.n), dims.P, cal_rng)
                if isinstance(b, LinearEncoder):
                    encs_pvd.append(LinearEncoder(scale * b.A, b.output_shape))
                else:
                    encs_pvd.append(b)

        X_list = [enc.encode(d) for enc, d in zip(encs_pvd, sources)]
        signal = sum(apply_channel(ch, X) for ch, X in zip(channels, X_list))
        sig_power = float(np.linalg.norm(signal) ** 2)
        sigma_n2 = sig_power / (dims.N_r * dims.K * dims.T * 10.0 ** (snr_target / 10.0))
        noise_unit = complex_normal(rng, dims.output_shape, 1.0)
        N = noise_unit * math.sqrt(sigma_n2)
        Y = signal + N
        dims_t = dataclasses.replace(dims, sigma_n2=sigma_n2)

        priors_H = [_build_prior(raw["prior_channel"], "complex",
                                 (dims.K, dims.N_r, dims.N_t), ch.blocks)
                    for ch in channels]
        priors_D = [_build_prior(raw["prior_source"], "real", (dims.n,), d)
                    for d in sources]

        for method in methods:
            t0 = time.perf_counter()
            err = ""
            nmse = smse = resid = float("nan")
            ratio = float("nan")
            snr_emp = mt.snr_db(signal, N)
            try:
                if method == "pvd":
                    result = pv.run(Y, encs_pvd, priors_H, priors_D, dims_t,
                                    cfg.pvd_config(), rng)
                    nmse = mt.nmse_db([c.blocks for c in channels],
                                      [c.blocks for c in result.channels])
                    smse = float(np.mean([mt.source_mse(dt, de) for dt, de
                                          in zip(sources, result.sources)]))
                    resid = result.residual
                    ratio = mt.cbr(dims, dims.T)
                    if raw["diagnostics"]:
                        for rec in result.diagnostics:
                            diag_rows.append([snr_target, trial, rec.j,
                                              rec.sigma_H, rec.sigma_D, rec.residual,
                                              rec.grad_norm_H, rec.grad_norm_D])
                elif method == "lmmse":
                    rec = _pilot_trial(cfg, channels[0], sources[0], bases[0],
                                       noise_unit, sigma_n2, cov_vec, raw)
                    nmse, smse, snr_emp = rec
                    ratio = mt.cbr(dims, dims.T - raw["baselines"]["N_p"])
                elif method == "oracle_lmmse":
                    Xb = X_list[0].reshape(dims.K, dims.N_t, dims.T)
                    Yb = Y.reshape(dims.K, dims.N_r, dims.T)
                    H_hat = bl.oracle_lmmse(Yb, Xb, 1.0, sigma_n2) if cov_vec is None \
                        else np.stack([bl._lmmse_block_covariance(Yk, Xk, cov_vec, sigma_n2)
                                       for Yk, Xk in zip(Yb, Xb)])
                    nmse = mt.nmse_db([channels[0].blocks], [H_hat])
                    ratio = mt.cbr(dims, dims.T)
            except Exception as exc:  # noqa: BLE001 - record-and-continue policy
                err = f"{type(exc).__name__}: {exc}"
            wall = (time.perf_counter() - t0) * 1e3 if raw["record_timing"] else None
            records.append(mt.MetricsRecord(
                trial=trial, seed=seed_int, snr_db=snr_emp, cbr=ratio,
                nmse_db=nmse, source_mse=smse, residual=resid,
                method=method, wall_ms=wall, error=err,
            ))
        return records, diag_rows
    except Exception as exc:  # noqa: BLE001 - record-and-continue policy
        records.clear()
        return error_rows(f"{type(exc).__name__}: {exc}")


def _pilot_trial(cfg: ExperimentConfig, channel: BlockFadingChannel, source, base,
                 noise_unit, sigma_n2, cov_vec, raw):
    """Two-stage pilot pipeline on the same channel/noise realization."""
    dims = cfg.dims
    N_p = raw["baselines"]["N_p"]
    T_d = dims.T - N_p
    pilot = bl.make_pilots(dims.N_t, N_p, dims.P)

    # Data encoder over the reduced slot count. Linear encoders get a fixed
    # calibration scale so the average per-symbol power is P while the map
    # stays linear (closed-form decoding); the bounded saturating encoder is
    # used as-is.
    enc_rng = np.random.default_rng(np.random.SeedSequence(
        [raw["seed"] & 0xFFFFFFFF, 0xE2C0DE, 0]))
    base_d = _build_base_encoder(raw["encoder"], (dims.N_t * dims.K, T_d), dims.n, enc_rng)
    if isinstance(base_d, LinearEncoder):
        cal_rng = np.random.default_rng(np.random.SeedSequence(
            [raw["seed"] & 0xFFFFFFFF, 0xCA11B, 0]))
        scale = _calibration_scale(base_d, _source_sampler(raw, dims.n), dims.P, cal_rng)
        enc_d: Encoder = LinearEncoder(scale * base_d.A, base_d.output_shape)
    else:
        enc_d = base_d

    X = np.empty((dims.K, dims.N_t, dims.T), dtype=np.complex128)
    X[:, :, :N_p] = pilot.X_p
    X[:, :, N_p:] = enc_d.encode(source).reshape(dims.K, dims.N_t, T_d)
    signal = apply_channel(channel, X.reshape(dims.N_t * dims.K, dims.T))
    N = noise_unit * math.sqrt(sigma_n2)
    Y = signal + N

    Yb = Y.reshape(dims.K, dims.N_r, dims.T)
    H_hat = bl.lmmse_channel(Yb[:, :, :N_p], pilot.X_p, 1.0, sigma_n2, Sigma=cov_vec)
    nmse = mt.nmse_db([channel.blocks], [H_hat])
    smse = float("nan")
    if isinstance(enc_d, LinearEncoder):
        prior_spec = raw["prior_source"]
        if prior_spec["type"] == "gaussian" and not isinstance(prior_spec.get("mean"), str):
            prior = _build_prior(prior_spec, "real", (dims.n,), None)
            D_hat = bl.two_stage_decode(Yb[:, :, N_p:], H_hat, enc_d, prior, sigma_n2)
            smse = mt.source_mse(source, D_hat)
    return nmse, smse, mt.snr_db(signal, N)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))
    return str(v)


def _record_row(rec: mt.MetricsRecord) -> list[str]:
    return [_fmt(rec.trial), _fmt(rec.seed), _fmt(rec.snr_db), _fmt(rec.cbr),
            _fmt(rec.nmse_db), _fmt(rec.source_mse), _fmt(rec.residual),
            rec.method, _fmt(rec.wall_ms), rec.error]


def _write_csv(path, rows: list[list[str]], header: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _pool_task(args):
    cfg_raw, snr_idx, trial = args
    cfg = ExperimentConfig.from_dict(cfg_raw)
    return snr_idx, trial, _run_trial(cfg, snr_idx, trial)


def run_experiment(cfg: ExperimentConfig | dict, out=None) -> list[mt.MetricsRecord]:
    """Run every (snr, trial) cell and return records in deterministic order.

    Writes the results CSV to `out` (or cfg.raw['out']) when given; with
    diagnostics enabled a companion '<out>.diag.csv' carries the per-step
    reverse-process trace of every PVD run.
    """
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_dict(cfg)
    raw = cfg.raw
    cells = [(si, t) for si in range(len(raw["snr_db"])) for t in range(raw["trials"])]
    results: dict[tuple[int, int], tuple] = {}
    if raw["workers"] > 1:
        with ProcessPoolExecutor(max_workers=raw["workers"]) as pool:
            for si, t, res in pool.map(
                    _pool_task, [(raw, si, t) for si, t in cells], chunksize=4):
                results[(si, t)] = res
    else:
        for si, t in cells:
            results[(si, t)] = _run_trial(cfg, si, t)

    records: list[mt.MetricsRecord] = []
    diag_rows: list[list] = []
    for si, t in cells:  # deterministic (snr, trial, method) order
        recs, diags = results[(si, t)]
        records.extend(recs)
        diag_rows.extend(diags)

    out = out or raw.get("out")
    if out:
        _write_csv(out, [_record_row(r) for r in records], mt.CSV_COLUMNS)
        if raw["diagnostics"]:
            _write_csv(str(out) + ".diag.csv",
                       [[_fmt(v) for v in row] for row in diag_rows],
                       ["snr_db", "trial", "j", "sigma_H", "sigma_D",
                        "residual", "grad_norm_H", "grad_norm_D"])
    return records


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

_LINK_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Pow: operator.pow,
}


def _eval_link(expr: str, x):
    """Evaluate a tiny arithmetic expression of the swept value x."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id == "x":
            return x
        if isinstance(node, ast.BinOp) and type(node.op) in _LINK_OPS:
            return _LINK_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        raise ConfigError(f"unsupported link expression element: {ast.dump(node)}")

    val = ev(ast.parse(expr, mode="eval"))
    return int(val) if float(val).is_integer() else val


def _set_path(tree: dict, path: str, value):
    keys = path.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config path {path!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config path {path!r}")
    current = node[leaf]
    if isinstance(current, list):
        node[leaf] = [value]
    elif isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(f"config path {path!r} is not a numeric field")
    else:
        node[leaf] = int(value) if isinstance(current, int) and float(value).is_integer() \
            else value
    return tree


SWEEP_COLUMNS = [
    "param", "value", "rows", "errors",
    "nmse_db_mean", "nmse_db_median",
    "source_mse_mean", "source_mse_median",
    "snr_db_mean", "snr_db_median",
    "residual_mean", "residual_median",
]


def _agg(vals: list[float]):
    finite = [v for v in vals if v is not None and math.isfinite(v)]
    if not finite:
        return None, None
    return float(np.mean(finite)), float(np.median(finite))


def sweep(cfg_raw: dict, param: str, values: list, links: dict | None = None,
          out=None) -> list[dict]:
    """Run one experiment per swept value; aggregate means and medians.

    `links` maps config paths to expressions of the swept value x, e.g.
    {"dims.N_r": "8*x"}; linked fields are recomputed at every point.
    Each point runs with a seed derived from (master seed, point index).
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = _merged(cfg_raw)
    summary = []
    for idx, value in enumerate(values):
        point = copy.deepcopy(base)
        _set_path(point, param, value)
        for path, expr in (links or {}).items():
            _set_path(point, path, _eval_link(expr, value))
        point["seed"] = int(np.random.SeedSequence(
            [base["seed"] & 0xFFFFFFFF, 0x5EE9, idx]).generate_state(1)[0])
        point["out"] = None
        records = run_experiment(point)
        ok = [r for r in records if not r.error]
        nm, nmed = _agg([r.nmse_db for r in ok])
        sm, smed = _agg([r.source_mse for r in ok])
        snm, snmed = _agg([r.snr_db for r in ok])
        rm, rmed = _agg([r.residual for r in ok])
        summary.append({
            "param": param, "value": value,
            "rows": len(records), "errors": len(records) - len(ok),
            "nmse_db_mean": nm, "nmse_db_median": nmed,
            "source_mse_mean": sm, "source_mse_median": smed,
            "snr_db_mean": snm, "snr_db_median": snmed,
            "residual_mean": rm, "residual_median": rmed,
        })
    if out:
        _write_csv(out, [[_fmt(row[c]) for c in SWEEP_COLUMNS] for row in summary],
                   SWEEP_COLUMNS)
    return summary
