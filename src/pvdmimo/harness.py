"""Config-driven Monte Carlo experiments over the full recovery stack.

A JSON config (a plain key/value tree, schema documented in the README)
describes the link dimensions, channel model, encoder, priors, reverse
process, baselines, SNR grid, and trial count. run_experiment builds the
link once (the fixed transmitter: encoders with their power calibration,
pilots, channel covariances), then executes every (snr, trial) cell with
its own generator derived deterministically from (master seed, snr index,
trial index), scores each enabled method on the cell's scene, and writes
one CSV row per (trial, method). A fault in the link fails the run;
per-trial failures are recorded as error-flagged rows and never abort the
sweep. sweep repeats
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
    hermitian_sqrt,
)
from .encoder import (
    Encoder,
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    load_encoder,
)
from .priors import GaussianMixturePrior, GaussianPrior, ScorePrior

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
        """Enabled methods, in method-table (row) order."""
        raw = self.raw
        return [m for m in _METHODS
                if (raw["pvd"]["enabled"] if m == "pvd" else raw["baselines"][m])]

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
    kron = (("R_rx", d.get("N_r")), ("R_tx", d.get("N_t"))) if model == "kronecker" else ()
    for key, size in kron:
        try:
            R = _as_complex_matrix(ch[key])
        except (KeyError, TypeError, ValueError, IndexError):
            R = None
        fits = R is not None and R.shape == (size, size)
        check(fits, f"channel.{key}", f"the kronecker model needs a "
              f"{size}x{size} matrix of numbers or [re, im] pairs")
        try:
            if fits:
                hermitian_sqrt(R, key)  # the check the channel draw makes
        except ValueError as exc:
            out.append(f"channel.{key}: {exc}")

    enc = cfg["encoder"]
    check(enc.get("type") in ("linear", "saturating"), "encoder.type",
          "must be 'linear' or 'saturating'")
    if enc.get("type") == "saturating":
        check(enc.get("gain", 1.0) > 0, "encoder.gain", "must be > 0")
    init = None if enc.get("file") else enc.get("init", "gaussian")
    check(init in (None, "gaussian", "identity"), "encoder.init",
          "must be 'gaussian' or 'identity'")
    if init == "identity":
        m = math.prod(d.get(k, 0) for k in ("N_t", "K", "T"))
        check(d.get("n") == m, "encoder.init", f"'identity' needs n == N_t*K*T = {m}")

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
    check(not isinstance((cfg.get("source_draw") or {}).get("mean"), str), "source_draw.mean",
          "must be numbers: the true source cannot be drawn from a 'truth'-anchored prior")

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
        # Its data encoder spans T - N_p slots; identity and file encoders fit T only.
        check(init != "identity", "baselines.lmmse",
              "an identity encoder cannot fit the T - N_p data slots of the pilot chain")
        check(not enc.get("file"), "baselines.lmmse",
              "an encoder file cannot fit the T - N_p data slots of the pilot chain")

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
# The link: what stays fixed across the trials of one experiment
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
    if spec.get("init", "gaussian") == "identity":  # validate_dict checks m == n
        A = np.eye(m, dtype=np.complex128)
    else:
        A = complex_normal(rng, (m, n), 1.0) / np.sqrt(n)
    gain = float(spec.get("gain", 1.0))
    if spec["type"] == "linear":
        return LinearEncoder(gain * A, out_shape)
    return SaturatingEncoder(A, gain, out_shape)


def _link_encoder(cfg: ExperimentConfig, out_shape: tuple[int, int], source: ScorePrior,
                  stream: int, cal_stream: int, exact: bool, n_draws: int = 256) -> Encoder:
    """Base encoder from seed stream `stream`, held to the power budget P.

    exact: per-realization normalization, part of the map the receiver
    differentiates. Otherwise a linear encoder gets the fixed scale that
    gives average power P over n_draws source draws (seed stream
    `cal_stream`), so the map stays linear; a saturating one is used as-is.
    """
    seed = cfg.raw["seed"] & 0xFFFFFFFF
    base = _build_base_encoder(cfg.raw["encoder"], out_shape, cfg.dims.n, np.random.default_rng(
        np.random.SeedSequence([seed, 0xE2C0DE, stream])))
    if exact:
        return PowerNormalizedEncoder(base, cfg.dims.P)
    if not isinstance(base, LinearEncoder):
        return base
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11B, cal_stream]))
    mean_power = sum(float(np.linalg.norm(base.encode(source.sample(rng))) ** 2)
                     for _ in range(n_draws)) / n_draws
    if mean_power == 0:
        raise ConfigError("encoder output power is zero under the source prior")
    m = out_shape[0] * out_shape[1]
    return LinearEncoder(math.sqrt(cfg.dims.P * m / mean_power) * base.A, base.output_shape)


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


@dataclass
class _Link:
    """What stays fixed across the trials of one run.

    The transmitter is fixed: its encoders depend on the config and the
    master seed only, so they and their power calibration are built once.
    """

    encoders: list[Encoder]  # per user, over all T slots
    source: ScorePrior  # draws the true sources
    kron: tuple[np.ndarray, np.ndarray] | None = None  # (R_rx, R_tx); None: Rayleigh
    cov_vec: np.ndarray | None = None  # covariance of vec(H_k)
    pilots: bl.PilotMatrix | None = None  # the pilot chain, when baselines.lmmse is on
    pilot_encoder: Encoder | None = None  # data encoder over the T - N_p data slots
    pilot_prior: GaussianPrior | None = None  # None: no closed-form source decode


def _build_link(cfg: ExperimentConfig) -> _Link:
    raw, dims = cfg.raw, cfg.dims
    spec = raw.get("source_draw") or raw["prior_source"]
    if isinstance(spec.get("mean"), str):
        raise ConfigError("cannot draw the true source from a 'truth'-anchored prior")
    source = _build_prior(spec, "real", (dims.n,), None)
    exact = raw.get("power_mode", "exact") == "exact"
    link = _Link([_link_encoder(cfg, dims.signal_shape, source, i, 1 + i, exact)
                  for i in range(dims.N_u)], source)
    if raw["channel"]["model"] == "kronecker":
        R_rx, R_tx = (_as_complex_matrix(raw["channel"][k]) for k in ("R_rx", "R_tx"))
        link.kron, link.cov_vec = (R_rx, R_tx), np.kron(R_tx.T, R_rx)
    if raw["baselines"]["lmmse"]:
        # Calibrated in either power mode, so a linear map decodes in closed form.
        N_p = raw["baselines"]["N_p"]
        link.pilots = bl.make_pilots(dims.N_t, N_p, dims.P)
        link.pilot_encoder = _link_encoder(cfg, (dims.N_t * dims.K, dims.T - N_p), source,
                                           0, 0, exact=False)
        prior = raw["prior_source"]
        if isinstance(link.pilot_encoder, LinearEncoder) and prior["type"] == "gaussian" \
                and not isinstance(prior.get("mean"), str):
            link.pilot_prior = _build_prior(prior, "real", (dims.n,), None)
    return link


# ---------------------------------------------------------------------------
# Single trial: a scene, then every enabled method on it
# ---------------------------------------------------------------------------

@dataclass
class _Scene:
    """One (snr, trial) realization, shared by the methods of the cell."""

    dims: MimoDims  # with the cell's noise power sigma_n2
    rng: np.random.Generator
    channels: list[BlockFadingChannel]
    sources: list[np.ndarray]
    X: list[np.ndarray]  # per-user transmitted signals
    noise: np.ndarray
    Y: np.ndarray
    snr_db: float  # empirical
    priors_H: list[ScorePrior]
    priors_D: list[ScorePrior]
    steps: list = field(default_factory=list)  # PVD per-step trace


def _scene(cfg: ExperimentConfig, link: _Link, snr_db: float,
           rng: np.random.Generator) -> _Scene:
    """Draw channel, sources and noise from rng, in that order."""
    dims, raw = cfg.dims, cfg.raw
    channels = draw_rayleigh(dims, rng) if link.kron is None \
        else draw_kronecker_correlated(dims, *link.kron, rng)
    sources = [link.source.sample(rng) for _ in range(dims.N_u)]
    X = [enc.encode(d) for enc, d in zip(link.encoders, sources)]
    signal = sum(apply_channel(ch, x) for ch, x in zip(channels, X))
    sig_power = float(np.linalg.norm(signal) ** 2)
    sigma_n2 = sig_power / (dims.N_r * dims.K * dims.T * 10.0 ** (snr_db / 10.0))
    noise = complex_normal(rng, dims.output_shape, 1.0) * math.sqrt(sigma_n2)
    return _Scene(
        dataclasses.replace(dims, sigma_n2=sigma_n2), rng, channels, sources, X,
        noise, signal + noise, mt.snr_db(signal, noise),
        [_build_prior(raw["prior_channel"], "complex", (dims.K, dims.N_r, dims.N_t), ch.blocks)
         for ch in channels],
        [_build_prior(raw["prior_source"], "real", (dims.n,), d) for d in sources])


def _pvd(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    result = pv.run(sc.Y, link.encoders, sc.priors_H, sc.priors_D, sc.dims,
                    cfg.pvd_config(), sc.rng)
    fields = {
        "nmse_db": mt.nmse_db([c.blocks for c in sc.channels],
                              [c.blocks for c in result.channels]),
        "source_mse": float(np.mean([mt.source_mse(dt, de) for dt, de
                                     in zip(sc.sources, result.sources)])),
        "residual": result.residual,
        "cbr": mt.cbr(cfg.dims, cfg.dims.T),
    }
    sc.steps = result.diagnostics
    return fields


def _lmmse(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    """Two-stage pilot chain on the same channel and noise realization."""
    dims, N_p, sigma_n2 = cfg.dims, link.pilots.N_p, sc.dims.sigma_n2
    T_d = dims.T - N_p
    X = np.empty((dims.K, dims.N_t, dims.T), dtype=np.complex128)
    X[:, :, :N_p] = link.pilots.X_p
    X[:, :, N_p:] = link.pilot_encoder.encode(sc.sources[0]).reshape(dims.K, dims.N_t, T_d)
    signal = apply_channel(sc.channels[0], X.reshape(dims.N_t * dims.K, dims.T))
    Yb = (signal + sc.noise).reshape(dims.K, dims.N_r, dims.T)
    H_hat = bl.lmmse_channel(Yb[:, :, :N_p], link.pilots.X_p, 1.0, sigma_n2,
                             Sigma=link.cov_vec)
    fields = {"nmse_db": mt.nmse_db([sc.channels[0].blocks], [H_hat]),
              "snr_db": mt.snr_db(signal, sc.noise), "cbr": mt.cbr(dims, T_d)}
    if link.pilot_prior is not None:
        D_hat = bl.two_stage_decode(Yb[:, :, N_p:], H_hat, link.pilot_encoder,
                                    link.pilot_prior, sigma_n2)
        fields["source_mse"] = mt.source_mse(sc.sources[0], D_hat)
    return fields


def _oracle_lmmse(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    dims = cfg.dims
    H_hat = bl.oracle_lmmse(sc.Y.reshape(dims.K, dims.N_r, dims.T),
                            sc.X[0].reshape(dims.K, dims.N_t, dims.T),
                            1.0, sc.dims.sigma_n2, Sigma=link.cov_vec)
    return {"nmse_db": mt.nmse_db([sc.channels[0].blocks], [H_hat]),
            "cbr": mt.cbr(dims, dims.T)}


# Each method maps (cfg, link, scene) to the fields of its record; the table
# order is the row order within a cell.
_METHODS = {"pvd": _pvd, "lmmse": _lmmse, "oracle_lmmse": _oracle_lmmse}


def _run_trial(cfg: ExperimentConfig, link: _Link, snr_idx: int, trial: int):
    """Execute one (snr, trial) cell; returns (records, diagnostics rows).

    A failure while building the scene flags the row of every method; a
    failing method flags its own row.
    """
    raw = cfg.raw
    snr_target = float(raw["snr_db"][snr_idx])
    ss = np.random.SeedSequence([raw["seed"] & 0xFFFFFFFF, snr_idx, trial])
    seed_int = int(ss.generate_state(1)[0])
    nan = float("nan")
    blank = {"snr_db": snr_target, "cbr": nan, "nmse_db": nan, "source_mse": nan,
             "residual": nan}
    try:
        if [snr_idx, trial] in [list(t) for t in raw.get("force_error_trials", [])]:
            raise RuntimeError("forced divergent trial")
        sc = _scene(cfg, link, snr_target, np.random.default_rng(ss))
    except Exception as exc:  # noqa: BLE001 - record-and-continue policy
        return [mt.MetricsRecord(trial=trial, seed=seed_int, method=method, wall_ms=None,
                                 error=f"{type(exc).__name__}: {exc}", **blank)
                for method in cfg.methods], []

    records = []
    for method in cfg.methods:
        t0 = time.perf_counter()
        fields, err = dict(blank, snr_db=sc.snr_db), ""
        try:
            fields.update(_METHODS[method](cfg, link, sc))
        except Exception as exc:  # noqa: BLE001 - record-and-continue policy
            err = f"{type(exc).__name__}: {exc}"
        wall = (time.perf_counter() - t0) * 1e3 if raw["record_timing"] else None
        records.append(mt.MetricsRecord(trial=trial, seed=seed_int, method=method,
                                        wall_ms=wall, error=err, **fields))
    diag_rows = [[snr_target, trial, s.j, s.sigma_H, s.sigma_D, s.residual, s.grad_norm_H,
                  s.grad_norm_D] for s in sc.steps] if raw["diagnostics"] else []
    return records, diag_rows


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


_worker: tuple[ExperimentConfig, _Link] | None = None  # set in pool processes only


def _init_worker(cfg_raw: dict) -> None:
    global _worker
    cfg = ExperimentConfig.from_dict(cfg_raw)
    _worker = cfg, _build_link(cfg)


def _pool_task(cell):
    return _run_trial(*_worker, *cell)


def run_experiment(cfg: ExperimentConfig | dict, out=None) -> list[mt.MetricsRecord]:
    """Run every (snr, trial) cell and return records in deterministic order.

    The link is built once here and once in each worker process; a fault
    there raises instead of flagging rows. Writes the results CSV to `out`
    (or cfg.raw['out']) when given; with diagnostics enabled a companion
    '<out>.diag.csv' carries the per-step reverse-process trace of every
    PVD run.
    """
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_dict(cfg)
    raw = cfg.raw
    link = _build_link(cfg)
    cells = [(si, t) for si in range(len(raw["snr_db"])) for t in range(raw["trials"])]
    if raw["workers"] > 1:
        with ProcessPoolExecutor(max_workers=raw["workers"], initializer=_init_worker,
                                 initargs=(raw,)) as pool:
            results = list(pool.map(_pool_task, cells, chunksize=4))  # in cell order
    else:
        results = [_run_trial(cfg, link, si, t) for si, t in cells]
    records = [rec for recs, _ in results for rec in recs]  # (snr, trial, method) order
    diag_rows = [row for _, rows in results for row in rows]

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
