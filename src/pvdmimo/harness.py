"""Config-driven Monte Carlo experiments over the full recovery stack.

A JSON config (a plain key/value tree, schema documented in the README)
describes the link dimensions, channel model, encoder, priors, reverse
process, baselines, SNR grid, and trial count. The config is parsed once,
by building its typed parts (among them the pilots and the Kronecker
covariance roots). run_experiment then builds the link once (the fixed
transmitter: one encoder over all users, their matrices stacked on axis 0,
with its power calibration), executes every
(snr, trial) cell with its own generator derived deterministically from
(master seed, snr index, trial index), scores each enabled method on the
cell's scene, and writes one CSV row per (trial, method). A fault in the
config or the link fails the run, while per-trial failures are recorded
as error-flagged rows and never abort the sweep. sweep repeats an
experiment across values of one numeric config field (with optional
linked fields) and aggregates summary statistics.
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
    apply_channel,
    complex_normal,
    draw_kronecker_correlated,
    draw_rayleigh,
    hermitian_sqrt,
    transmit,
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
    "encoder": {"type": "linear", "init": "gaussian", "gain": 1.0, "file": None},
    "prior_channel": {"type": "gaussian", "mean": 0.0, "var": 1.0},
    "prior_source": {"type": "gaussian", "mean": 0.0, "var": 1.0},
    "source_draw": None,
    "pvd": {
        "enabled": True, "J": 30, "J_in": 20, "L": 1,
        "sigma1_H": 0.01, "sigmaJ_H": 100.0,
        "sigma1_D": 0.01, "sigmaJ_D": 100.0,
        "zeta_H": 0.06, "zeta_D": 0.06, "probes": 8,  # inert; goes once the benchmark drops it
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

# Sections merged key by key over DEFAULT_CONFIG; the others replace it whole.
_MERGED = ("dims", "encoder", "pvd", "baselines")
# The keys of the sections whose schema depends on their type. Here as in
# DEFAULT_CONFIG, a bool, int or float value gives the type of the field.
_CHANNEL_KEYS = {"rayleigh": {"model": ""}, "kronecker": {"model": "", "R_rx": None, "R_tx": None}}
_PRIOR_KEYS = {"gaussian": {"type": "", "mean": None, "var": 1.0},
               "mixture": {"type": "", "means": None, "var": 1.0, "weights": None}}
_DOMAINS = {"prior_channel": "complex", "prior_source": "real", "source_draw": "real"}


class ConfigError(ValueError):
    """Invalid experiment configuration; `problems` holds one message per fault."""

    def __init__(self, problems: str | list[str]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# Config parsing: one pass that validates by building the typed parts
# ---------------------------------------------------------------------------

def _covariance(spec, size: int, name: str) -> tuple[np.ndarray, np.ndarray | None]:
    """A Hermitian PSD size x size matrix, its entries numbers or [re, im]
    pairs, and its square root (None for the identity)."""
    try:
        R = np.array([[complex(*v) if isinstance(v, (list, tuple)) else complex(v) for v in row]
                      for row in spec], dtype=np.complex128)
    except (TypeError, ValueError):
        R = None
    if R is None or R.shape != (size, size):
        raise ValueError(f"the kronecker model needs a {size}x{size} matrix of numbers "
                         "or [re, im] pairs")
    return R, hermitian_sqrt(R, name)  # raises unless Hermitian PSD


def _is_number(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _section_problems(path: str, section: dict, schema: dict) -> list[str]:
    """Unknown keys of `section`, and values not of the type of the schema's
    value there (checked where that is a bool, an int or a float)."""
    out = []
    for key, val in section.items():
        want = schema.get(key, KeyError)
        if want is KeyError:
            out.append(f"{path}{key}: unknown key")
        elif isinstance(want, bool) and not isinstance(val, bool):
            out.append(f"{path}{key}: must be true or false")
        elif type(want) is int and (isinstance(val, bool) or not isinstance(val, int)):
            out.append(f"{path}{key}: must be an integer")
        elif type(want) is float and not _is_number(val):
            out.append(f"{path}{key}: must be a finite number")
    return out


def _build_prior(spec: dict, domain: str, truth: np.ndarray) -> ScorePrior:
    """The prior over one user's arrays, shaped like a row of `truth` (users
    on axis 0); a "truth" mean anchors each user at its own row."""
    shape = truth.shape[1:]
    if spec["type"] == "gaussian":
        mean = spec.get("mean", 0.0)
        if mean == "truth":
            return GaussianPrior(truth, spec["var"], domain, shape)
        if isinstance(mean, (list, tuple)):  # [re, im]; the real part for a real prior
            mean = complex(*mean) if domain == "complex" else mean[0]
        return GaussianPrior(np.full(shape, complex(mean) if domain == "complex"
                                     else float(mean)), spec["var"], domain)
    means = [np.asarray(m, dtype=np.float64) for m in spec["means"]]
    if any(m.shape not in ((), shape) for m in means):
        raise ValueError(f"means must each be a scalar or a length-{shape[0]} vector")
    return GaussianMixturePrior(np.stack([np.broadcast_to(m, shape) for m in means]),
                                spec["var"], spec["weights"], domain)


def _parse(user) -> tuple[dict, dict, list[str]]:
    """Merge `user` over DEFAULT_CONFIG and build its typed parts once:
    (merged tree, parts, problems). A constructor's error is the problem, at
    the section key its message starts with, else where the part is built.
    By hand this checks only what no constructor can: unknown keys, field
    types, enums, cross-field rules and the experiment controls."""
    if not isinstance(user, dict):
        return {}, {}, ["config: must be a JSON object"]
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, val in copy.deepcopy(user).items():
        if key in _MERGED and isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    problems = _section_problems("", cfg, DEFAULT_CONFIG)
    shapeless = [key for key in _MERGED + ("channel", "prior_channel", "prior_source")
                 if not isinstance(cfg[key], dict)]
    if not isinstance(cfg["source_draw"], (dict, type(None))):
        shapeless.append("source_draw")
    if shapeless:
        return cfg, {}, problems + [f"{key}: must be an object" for key in shapeless]

    d, enc, p, b = (cfg[key] for key in _MERGED)
    ch = cfg["channel"]
    for key in _MERGED:
        problems += _section_problems(f"{key}.", cfg[key], DEFAULT_CONFIG[key])
    if isinstance(ch.get("model"), str) and ch["model"] in _CHANNEL_KEYS:
        problems += _section_problems("channel.", ch, _CHANNEL_KEYS[ch["model"]])
    else:
        problems.append("channel.model: must be 'rayleigh' or 'kronecker'")
    priors = {key: cfg[key] for key in _DOMAINS if cfg[key] is not None}
    for key, spec in priors.items():
        if isinstance(spec.get("type"), str) and spec["type"] in _PRIOR_KEYS:
            problems += _section_problems(f"{key}.", spec, _PRIOR_KEYS[spec["type"]])
        else:
            problems.append(f"{key}.type: must be 'gaussian' or 'mixture'")
    # Sections with a mistyped field are not built: their constructors
    # would only restate the fault.
    mistyped = {m.split(":")[0].split(".")[0] for m in problems
                if not m.endswith(": unknown key")}

    def check(ok, path: str, msg: str) -> None:
        if not ok:
            problems.append(f"{path}: {msg}")

    def build(path: str, make, fields=()):
        """make(), or None with its fault recorded."""
        try:
            return make()
        except KeyError as exc:
            problems.append(f"{path}.{exc.args[0]}: required")
        except TypeError:
            problems.append(f"{path}: must be a number")
        except (ValueError, IndexError) as exc:
            head, _, rest = str(exc).partition(" ")
            problems.append(f"{path.split('.')[0]}.{head}: {rest}" if head in fields
                            else f"{path}: {exc}")
        return None

    parts: dict = {"kron": None, "pilots": None}
    dims = parts["dims"] = None if "dims" in mistyped else build(
        "dims", lambda: MimoDims(**{k: d[k] for k in DEFAULT_CONFIG["dims"]}), d)
    if "pvd" not in mistyped:
        scheds = [build(f"pvd.sigma1_{s}", lambda s=s: pv.NoiseSchedule(
            p[f"sigma1_{s}"], p[f"sigmaJ_{s}"], p["J"]), p) for s in "HD"]
        check(p["J"] != 1, "pvd.J", "must be >= 2: one step starts the means at sigma_0 = 0")
        if None not in scheds:
            parts["pvd"] = build("pvd", lambda: pv.PvdConfig(*scheds, **{
                f.name: p[f.name] for f in dataclasses.fields(pv.PvdConfig) if f.name in p}), p)

    check(enc["type"] in ("linear", "saturating"), "encoder.type",
          "must be 'linear' or 'saturating'")
    check(enc["file"] is None or isinstance(enc["file"], str), "encoder.file", "must be a path")
    init = None if enc["file"] else enc["init"]
    check(init in (None, "gaussian", "identity"), "encoder.init",
          "must be 'gaussian' or 'identity'")
    if dims and init == "identity":
        m = dims.N_t * dims.K * dims.T
        check(dims.n == m, "encoder.init", f"'identity' needs n == N_t*K*T = {m}")
    if dims and enc["type"] == "saturating" and "encoder" not in mistyped:
        # The link draws the matrix; an empty one lets the constructor check the gain.
        build("encoder", lambda: SaturatingEncoder(
            np.zeros((dims.N_t * dims.K * dims.T, 0)), enc["gain"], dims.signal_shape), enc)

    if dims and ch.get("model") == "kronecker":
        (R_rx, S_rx), (R_tx, S_tx) = (
            build(f"channel.{key}", lambda: _covariance(ch.get(key), size, key)) or (None, None)
            for key, size in (("R_rx", dims.N_r), ("R_tx", dims.N_t)))
        if R_rx is not None and R_tx is not None:
            parts["kron"] = S_rx, S_tx, np.kron(R_tx.T, R_rx)

    check(cfg["prior_channel"]["type"] != "mixture", "prior_channel",
          "mixture priors are supported for the source only")
    check(cfg["prior_source"].get("mean") != "truth" or cfg["source_draw"] is not None,
          "source_draw", "required when prior_source.mean is 'truth'")
    check(not isinstance((cfg["source_draw"] or {}).get("mean"), str), "source_draw.mean",
          "must be numbers: the true source cannot be drawn from a 'truth'-anchored prior")
    if dims:  # a 'truth' anchor is built at a zero placeholder
        shapes = {"complex": (dims.K, dims.N_r, dims.N_t), "real": (dims.n,)}
        built = {key: build(key, lambda: _build_prior(
            spec, _DOMAINS[key], np.zeros((1,) + shapes[_DOMAINS[key]])), spec)
            for key, spec in priors.items() if key not in mistyped}
        parts["prior_source"] = built.get("prior_source")
        parts["source"] = built.get("source_draw", parts["prior_source"])

    if b["lmmse"] or b["oracle_lmmse"]:
        check(d["N_u"] == 1, "baselines", "pilot baselines support N_u = 1 only")
    if b["lmmse"]:
        # Its data encoder spans T - N_p slots; identity and file encoders fit T only.
        check(init != "identity", "baselines.lmmse",
              "an identity encoder cannot fit the T - N_p data slots of the pilot chain")
        check(not enc["file"], "baselines.lmmse",
              "an encoder file cannot fit the T - N_p data slots of the pilot chain")
        if dims and "baselines" not in mistyped:
            parts["pilots"] = build("baselines.N_p",
                                    lambda: bl.make_pilots(dims.N_t, b["N_p"], dims.P))
            check(b["N_p"] < dims.T, "baselines.N_p",
                  "must leave at least one data slot (N_p < T)")

    check(cfg["power_mode"] in ("exact", "average"), "power_mode",
          "must be 'exact' (per-realization normalization) or 'average' (fixed calibration)")
    check(not (cfg["power_mode"] == "average" and enc["type"] == "saturating"), "power_mode",
          "'average' calibrates linear encoders only; encoder.type 'saturating' needs 'exact'")
    snr = cfg["snr_db"]
    check(isinstance(snr, list) and len(snr) > 0 and all(map(_is_number, snr)), "snr_db",
          "must be a nonempty list of finite dB values")
    for key in ("trials", "workers"):
        check(not isinstance(cfg[key], int) or cfg[key] >= 1, key, "must be an integer >= 1")
    check(p["enabled"] or b["lmmse"] or b["oracle_lmmse"], "pvd.enabled", "no method enabled")
    return cfg, parts, list(dict.fromkeys(problems))


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description: the merged config tree and
    the parts built from it once."""

    dims: MimoDims
    pvd: pv.PvdConfig
    prior_source: ScorePrior  # a 'truth' anchor has a zero mean here
    source: ScorePrior  # draws the true sources
    # (S_rx, S_tx, cov_vec): the covariance roots (None: identity) and the
    # covariance of vec(H_k); None: Rayleigh
    kron: tuple | None
    pilots: np.ndarray | None  # (N_t, N_p) pilot rows, when baselines.lmmse is on
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        raw, parts, problems = _parse(user)
        if problems:
            raise ConfigError(problems)
        return cls(raw=raw, **parts)

    @property
    def methods(self) -> list[str]:
        """Enabled methods, in method-table (row) order."""
        raw = self.raw
        return [m for m in _METHODS
                if (raw["pvd"]["enabled"] if m == "pvd" else raw["baselines"][m])]


def validate_dict(user: dict) -> list[str]:
    """Every fault of the config tree, one path-qualified message each."""
    return _parse(user)[2]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# The link: what stays fixed across the trials of one experiment
# ---------------------------------------------------------------------------

_CALIBRATION_DRAWS = 256


def _link_encoder(cfg: ExperimentConfig, out_shape: tuple[int, int], stream: int,
                  cal_stream: int, exact: bool, users: int = 1) -> Encoder:
    """One encoder over `users` users, each held to the power budget P: user
    i's matrix, drawn from seed stream `stream` + i, on axis 0 of A (an
    encoder file's A is shared by all).

    exact: per-realization normalization, part of the map the receiver
    differentiates. Otherwise a linear encoder gets, per user, the fixed
    scale that gives average power P over _CALIBRATION_DRAWS source draws
    (seed stream `cal_stream` + i), so the map stays linear; a saturating
    one has no fixed calibration here and is normalized per realization.
    """
    seed, spec, n = cfg.raw["seed"] & 0xFFFFFFFF, cfg.raw["encoder"], cfg.dims.n
    m = out_shape[0] * out_shape[1]
    if spec["file"]:
        base = load_encoder(spec["file"])
        if base.output_shape != out_shape or base.input_dim != n:
            raise ConfigError(
                f"encoder file shape {base.output_shape}/{base.input_dim} does not match "
                f"{out_shape}/{n}")
    else:  # the parse checks m == n for 'identity'
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0xE2C0DE, stream + i]))
                for i in range(users)]
        As = [np.eye(m, dtype=np.complex128) if spec["init"] == "identity"
              else complex_normal(rng, (m, n), 1.0) / np.sqrt(n) for rng in rngs]
        A = As[0][None] if users == 1 else np.stack(As)  # one user's A is not copied
        gain = float(spec["gain"])
        base = (LinearEncoder(gain * A, out_shape) if spec["type"] == "linear"
                else SaturatingEncoder(A, gain, out_shape))
        del As, A  # kept, the drawn matrices would raise the calibration's peak memory
    if exact or not isinstance(base, LinearEncoder):
        return PowerNormalizedEncoder(base, cfg.dims.P)
    scales = []
    for i, A in enumerate(np.broadcast_to(base.A, (users, m, n))):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11B, cal_stream + i]))
        D = np.stack([cfg.source.sample(rng) for _ in range(_CALIBRATION_DRAWS)])
        mean_power = float(np.linalg.norm(A @ D.T)) ** 2 / _CALIBRATION_DRAWS
        if mean_power == 0:
            raise ConfigError("encoder output power is zero under the source prior")
        scales.append(math.sqrt(cfg.dims.P * m / mean_power))
    return LinearEncoder(np.array(scales)[:, None, None] * base.A, out_shape)


@dataclass
class _Link:
    """The transmitter, fixed across the trials of one run: its encoder and
    its power calibration depend on the config and the master seed only."""

    encoder: Encoder  # all users over all T slots, their matrices on axis 0
    pilot_encoder: Encoder | None = None  # data encoder over the T - N_p data slots
    pilot_prior: GaussianPrior | None = None  # None: no closed-form source decode


def _build_link(cfg: ExperimentConfig) -> _Link:
    raw, dims = cfg.raw, cfg.dims
    exact = raw["power_mode"] == "exact"
    link = _Link(_link_encoder(cfg, dims.signal_shape, 0, 1, exact, dims.N_u))
    if cfg.pilots is not None:
        # Calibrated in either power mode, so a linear map decodes in closed form.
        link.pilot_encoder = _link_encoder(
            cfg, (dims.N_t * dims.K, dims.T - cfg.pilots.shape[1]), 0, 0, exact=False)
        prior = raw["prior_source"]
        if isinstance(link.pilot_encoder, LinearEncoder) and prior["type"] == "gaussian" \
                and not isinstance(prior.get("mean"), str):
            link.pilot_prior = cfg.prior_source
    return link


# ---------------------------------------------------------------------------
# Single trial: a scene, then every enabled method on it
# ---------------------------------------------------------------------------

@dataclass
class _Scene:
    """One (snr, trial) realization, shared by the methods of the cell."""

    dims: MimoDims  # with the cell's noise power sigma_n2
    rng: np.random.Generator
    channels: np.ndarray  # (N_u, K, N_r, N_t)
    sources: np.ndarray  # (N_u, n)
    X: np.ndarray  # (N_u, N_t*K, T) transmitted signals
    noise: np.ndarray
    Y: np.ndarray
    snr_db: float  # empirical
    prior_H: ScorePrior  # one per domain over all users ('truth': one anchor each)
    prior_D: ScorePrior
    steps: list = field(default_factory=list)  # PVD per-step trace


def _scene(cfg: ExperimentConfig, link: _Link, snr_db: float,
           rng: np.random.Generator) -> _Scene:
    """Draw channel, sources and noise from rng, in that order; all sources go
    through the link's encoder in one call."""
    dims, raw = cfg.dims, cfg.raw
    channels = draw_rayleigh(dims, rng) if cfg.kron is None \
        else draw_kronecker_correlated(dims, *cfg.kron[:2], rng)
    sources = np.stack([cfg.source.sample(rng) for _ in range(dims.N_u)])
    X = link.encoder.encode(sources)
    signal = transmit(channels, X, 0.0, rng)
    sig_power = float(np.linalg.norm(signal) ** 2)
    sigma_n2 = sig_power / (dims.N_r * dims.K * dims.T * 10.0 ** (snr_db / 10.0))
    noise = complex_normal(rng, dims.output_shape, 1.0) * math.sqrt(sigma_n2)
    return _Scene(
        dataclasses.replace(dims, sigma_n2=sigma_n2), rng, channels, sources, X,
        noise, signal + noise, mt.snr_db(signal, noise),
        _build_prior(raw["prior_channel"], "complex", channels),
        _build_prior(raw["prior_source"], "real", sources))


def _pvd(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    result = pv.run(sc.Y, link.encoder, sc.prior_H, sc.prior_D, sc.dims, cfg.pvd, sc.rng)
    fields = {
        "nmse_db": mt.nmse_db(sc.channels, result.channels),
        "source_mse": float(np.mean([mt.source_mse(dt, de) for dt, de
                                     in zip(sc.sources, result.sources)])),
        "residual": result.residual,
        "cbr": mt.cbr(cfg.dims, cfg.dims.T),
    }
    sc.steps = result.diagnostics
    return fields


def _lmmse(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    """Two-stage pilot chain on the same channel and noise realization."""
    dims, N_p, sigma_n2 = cfg.dims, cfg.pilots.shape[1], sc.dims.sigma_n2
    T_d = dims.T - N_p
    X = np.empty((dims.K, dims.N_t, dims.T), dtype=np.complex128)
    X[:, :, :N_p] = cfg.pilots
    X[:, :, N_p:] = link.pilot_encoder.encode(sc.sources[0]).reshape(dims.K, dims.N_t, T_d)
    signal = apply_channel(sc.channels[0], X.reshape(dims.N_t * dims.K, dims.T))
    Yb = (signal + sc.noise).reshape(dims.K, dims.N_r, dims.T)
    H_hat = bl.lmmse_channel(Yb[:, :, :N_p], cfg.pilots, 1.0, sigma_n2,
                             Sigma=None if cfg.kron is None else cfg.kron[2])
    fields = {"nmse_db": mt.nmse_db(sc.channels, H_hat[None]),
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
                            1.0, sc.dims.sigma_n2,
                            Sigma=None if cfg.kron is None else cfg.kron[2])
    return {"nmse_db": mt.nmse_db(sc.channels, H_hat[None]),
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
        if [snr_idx, trial] in [list(t) for t in raw["force_error_trials"]]:
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
    diag_rows = [[snr_target, trial, *dataclasses.astuple(s)]
                 for s in sc.steps] if raw["diagnostics"] else []
    return records, diag_rows


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

#: Columns of the '.diag.csv' trace: the cell, then one PVD reverse step.
DIAG_COLUMNS = ["snr_db", "trial"] + [f.name for f in dataclasses.fields(pv.PvdStepDiag)]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))
    return str(v)


def _record_row(rec: mt.MetricsRecord) -> list[str]:
    return [_fmt(getattr(rec, c)) for c in mt.CSV_COLUMNS]


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

    out = out or raw["out"]
    if out:
        _write_csv(out, [_record_row(r) for r in records], mt.CSV_COLUMNS)
        if raw["diagnostics"]:
            _write_csv(str(out) + ".diag.csv",
                       [[_fmt(v) for v in row] for row in diag_rows], DIAG_COLUMNS)
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


def _set_path(tree: dict, path: str, value) -> None:
    """Set the field at dotted `path` (a list field to [value]); the parse
    of the point checks the value."""
    *keys, leaf = path.split(".")
    node = tree
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config path {path!r}")
    if isinstance(node[leaf], list):
        value = [value]
    elif isinstance(node[leaf], int) and float(value).is_integer():
        value = int(value)
    node[leaf] = value


_SWEPT_METRICS = ("nmse_db", "source_mse", "snr_db", "residual")
SWEEP_COLUMNS = ["param", "value", "rows", "errors"] + [
    f"{metric}_{stat}" for metric in _SWEPT_METRICS for stat in ("mean", "median")]


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
    base = ExperimentConfig.from_dict(cfg_raw).raw
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
        row = {"param": param, "value": value,
               "rows": len(records), "errors": len(records) - len(ok)}
        for metric in _SWEPT_METRICS:
            row[f"{metric}_mean"], row[f"{metric}_median"] = _agg(
                [getattr(r, metric) for r in ok])
        summary.append(row)
    if out:
        _write_csv(out, [[_fmt(row[c]) for c in SWEEP_COLUMNS] for row in summary],
                   SWEEP_COLUMNS)
    return summary
