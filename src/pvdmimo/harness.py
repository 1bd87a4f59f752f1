"""Config-driven Monte Carlo experiments over the full recovery stack.

A JSON config (a plain key/value tree, schema documented in the README)
describes the link dimensions, channel model, encoder, priors, reverse
process, baselines, SNR grid, and trial count. The config is parsed once,
by building its typed parts (among them the pilots, the Kronecker covariance
roots and an encoder file), and every config fault ends there, in validate
too. run_experiment then builds the link once (the fixed transmitter: one
encoder over all users, their matrices stacked on axis 0, with its power
calibration), executes every (snr, trial) cell with its own generator
derived from (master seed, snr index, trial index), scores each enabled
method on the cell's scene, and writes one CSV row per (trial, method). The
cells of one SNR point run as batches: their scenes are drawn in cell order,
one pvd.run decodes them all, and each row is bit for bit that of the cell
run alone, so any partition into batches (and workers) writes the same CSV. A
fault in the link fails the run; a failed scene flags the row of every
method, a failed method its own, and a metric a row does not report keeps
MetricsRecord's NaN default, an empty cell. sweep repeats an experiment over
values of one config field and its linked fields, and aggregates the runs.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import time
from collections.abc import Callable
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
# The largest expected received power: a cell's squared signal norm has room for 1e6 times it.
_MAX_POWER = np.finfo(np.float64).max / 1e6


class ConfigError(ValueError):
    """Invalid experiment configuration; `problems` holds one message per fault."""

    def __init__(self, problems: str | list[str]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# Config parsing: one pass that validates by building the typed parts
# ---------------------------------------------------------------------------

def _covariance(spec, size: int, name: str) -> tuple[np.ndarray, np.ndarray | None]:
    """A Hermitian PSD size x size matrix, its entries finite numbers or [re, im]
    pairs, and its square root (None for the identity), nonzero and finite."""
    try:
        R = np.array([[complex(*v) if isinstance(v, (list, tuple)) else complex(v) for v in row]
                      for row in spec], dtype=np.complex128)
    except (TypeError, ValueError):
        R = None
    if R is None or R.shape != (size, size) or not np.isfinite(R).all():
        raise ValueError(f"the kronecker model needs a {size}x{size} matrix of numbers "
                         "or [re, im] pairs")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing root is refused below
        S = hermitian_sqrt(R, name)  # raises unless Hermitian PSD
    if S is not None and not (S.any() and np.isfinite(S).all()):
        raise ValueError(f"{name} must be nonzero, with a finite square root")
    return R, S


def _is_number(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _section_problems(path: str, section: dict, schema: dict) -> list[str]:
    """Unknown keys of `section`, and values not of the type of the schema's
    value there (checked where that is a bool, an int or a float). Such a
    value is reset to the schema's, so the section is still built and
    checked."""
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
        else:
            continue
        section[key] = schema.get(key, val)  # an unknown key keeps its value
    return out


def _prior_builder(spec: dict, domain: str, shape: tuple) -> tuple:
    """(builder, fixed prior): the builder maps a truth (users on axis 0) to the
    prior over one user's arrays of `shape`. A fixed prior is built here, once; a
    "truth" mean (fixed None) anchors each user at its row, its variance checked here."""
    if spec["type"] == "gaussian":
        mean, var = spec.get("mean", 0.0), spec["var"]
        if mean == "truth":
            ScorePrior(var, domain)
            return (lambda truth: GaussianPrior(truth, var, domain, shape)), None
        pair = isinstance(mean, (list, tuple)) and len(mean) == 2
        if not all(map(_is_number, mean if pair else [mean])):
            raise ValueError("mean must be a number or an [re, im] pair")
        if pair:  # [re, im]; the real part for a real prior
            mean = complex(*mean) if domain == "complex" else mean[0]
        prior = GaussianPrior(np.full(shape, complex(mean) if domain == "complex"
                                      else float(mean)), var, domain)
        return (lambda truth: prior), prior
    means, w = spec["means"], spec["weights"]
    if not (isinstance(means, (list, tuple)) and means and all(
            _is_number(m) or isinstance(m, (list, tuple)) and len(m) == shape[0]
            and all(map(_is_number, m)) for m in means)):
        raise ValueError(f"means must be a nonempty list of numbers or length-{shape[0]} vectors")
    if not (isinstance(w, (list, tuple)) and all(map(_is_number, w))):
        raise ValueError("weights must be a list of numbers")
    prior = GaussianMixturePrior(np.stack([np.broadcast_to(np.asarray(m, dtype=np.float64), shape)
                                           for m in means]), spec["var"], w, domain)
    return (lambda truth: prior), prior


def _file_encoder(spec: dict, dims: MimoDims) -> Encoder:
    """The encoder in spec["file"] (load_encoder refuses a malformed file), checked
    against the config's type and shape, and refused if unreadable or zero."""
    try:
        enc = load_encoder(spec["file"])
    except OSError as exc:
        raise ValueError(f"cannot read {spec['file']!r}: {exc.strerror or exc}") from None
    if enc.output_shape != dims.signal_shape or enc.input_dim != dims.n:
        raise ValueError(f"shape {enc.output_shape}/{enc.input_dim} does not match "
                         f"{dims.signal_shape}/{dims.n}")
    kind = "saturating" if isinstance(enc, SaturatingEncoder) else "linear"
    if spec["type"] in ("linear", "saturating") and kind != spec["type"]:
        raise ValueError(f"holds a {kind} encoder, encoder.type is {spec['type']!r}")
    if not np.any(enc.A):
        raise ValueError("holds a zero matrix: the encoder output has no power")
    return enc


def _parse(user) -> tuple[dict, dict, list[str]]:
    """Merge `user` over DEFAULT_CONFIG and build its typed parts once:
    (merged tree, parts, problems). A constructor's error is the problem, at
    the section key its message starts with, else where the part is built.
    By hand this checks only what no constructor can: unknown keys, field
    types, enums, cross-field rules and the experiment controls. A value of
    the wrong type (the config itself, a section, a field) is reported, then
    checked as its default, so every part is still built and every other
    fault reported."""
    problems = [] if isinstance(user, dict) else ["config: must be a JSON object"]
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, val in (copy.deepcopy(user) if not problems else {}).items():
        if key in _MERGED and isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    problems += _section_problems("", cfg, DEFAULT_CONFIG)
    for key in _MERGED + ("channel",) + tuple(_DOMAINS):
        if not isinstance(cfg[key], (dict, type(DEFAULT_CONFIG[key]))):  # or null, as source_draw
            problems.append(f"{key}: must be an object")
            cfg[key] = copy.deepcopy(DEFAULT_CONFIG[key])

    d, enc, p, b = (cfg[key] for key in _MERGED)
    ch = cfg["channel"]
    for key in _MERGED:
        problems += _section_problems(f"{key}.", cfg[key], DEFAULT_CONFIG[key])
    typed = set()  # the sections whose schema depends on a tag, and whose tag is known
    for key, tag, schemas in [("channel", "model", _CHANNEL_KEYS)] + [
            (key, "type", _PRIOR_KEYS) for key in _DOMAINS if cfg[key] is not None]:
        if isinstance(cfg[key].get(tag), str) and cfg[key][tag] in schemas:
            problems += _section_problems(f"{key}.", cfg[key], schemas[cfg[key][tag]])
            typed.add(key)
        else:
            problems.append(f"{key}.{tag}: must be {' or '.join(map(repr, schemas))}")

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
            for fault in str(exc).split("; "):  # MimoDims reports all its faults at once
                head, _, rest = fault.partition(" ")
                problems.append(f"{path.split('.')[0]}.{head}: {rest}" if head in fields
                                else f"{path}: {fault}")
        return None

    parts: dict = {"kron": None, "pilots": None, "file_encoder": None, "pilot_prior": None}
    dims = parts["dims"] = build(
        "dims", lambda: MimoDims(**{k: d[k] for k in DEFAULT_CONFIG["dims"]}), d)
    # an order fault is sigma1's, unless sigmaJ is not even positive
    scheds = [build(f"pvd.sigma{1 if p['sigmaJ_' + s] > 0 else 'J'}_{s}", lambda s=s:
                    pv.NoiseSchedule(p[f"sigma1_{s}"], p[f"sigmaJ_{s}"], p["J"]), p) for s in "HD"]
    check(p["J"] != 1, "pvd.J", "must be >= 2: one step starts the means at sigma_0 = 0")
    # after a schedule fault, PvdConfig checks the other fields with its default schedules
    scheds = scheds if None not in scheds else []
    parts["pvd"] = build("pvd", lambda: pv.PvdConfig(*scheds, **{
        f.name: p[f.name] for f in dataclasses.fields(pv.PvdConfig) if f.name in p}), p)

    check(enc["type"] in ("linear", "saturating"), "encoder.type",
          "must be 'linear' or 'saturating'")
    check(enc["gain"] > 0, "encoder.gain", "must be > 0")
    check(enc["file"] is None or isinstance(enc["file"], str), "encoder.file", "must be a path")
    check(enc["file"] or enc["init"] == "gaussian", "encoder.init", "must be 'gaussian'")
    if dims and enc["file"] and isinstance(enc["file"], str):
        parts["file_encoder"] = build("encoder.file", lambda: _file_encoder(enc, dims))

    covs = []  # Rayleigh: identity covariances, of traces N_r and N_t
    if dims and ch.get("model") == "kronecker":
        (R_rx, S_rx), (R_tx, S_tx) = covs = [
            build(f"channel.{key}", lambda: _covariance(ch.get(key), size, key)) or (None, None)
            for key, size in (("R_rx", dims.N_r), ("R_tx", dims.N_t))]
    if dims and all(R is not None for R, _ in covs):
        # In logs of Python numbers (no overflow, no warning), before np.kron could overflow.
        traces = [sum(map(float, R.diagonal().real)) for R, _ in covs] or [dims.N_r, dims.N_t]
        factors = [dims.N_u, dims.P, dims.K, dims.T, *traces]  # a trace <= 0 cannot overflow
        if min(factors) > 0 and sum(map(math.log, factors)) > math.log(_MAX_POWER):
            problems.append(f"{'channel' if covs else 'dims.P'}: the expected received power "
                            f"N_u P K T tr(R_rx) tr(R_tx) must be at most {_MAX_POWER:.3g}")
        elif covs:
            parts["kron"] = S_rx, S_tx, np.kron(R_tx.T, R_rx)

    check(cfg["prior_channel"]["type"] != "mixture", "prior_channel",
          "mixture priors are supported for the source only")
    check(cfg["prior_source"].get("mean") != "truth" or cfg["source_draw"] is not None,
          "source_draw", "required when prior_source.mean is 'truth'")
    check(not isinstance((cfg["source_draw"] or {}).get("mean"), str), "source_draw.mean",
          "must be numbers: the true source cannot be drawn from a 'truth'-anchored prior")
    if dims:  # (builder, fixed prior) per domain key; a prior of unknown type is not built
        shapes = {"complex": (dims.K, dims.N_r, dims.N_t), "real": (dims.n,)}
        (parts["prior_channel"], _), (parts["prior_source"], fixed), (_, draw) = (
            key in typed and build(key, lambda: _prior_builder(
                cfg[key], _DOMAINS[key], shapes[_DOMAINS[key]]), cfg[key]) or (None, None)
            for key in _DOMAINS)
        parts["source"] = draw or fixed
        if enc["type"] == "linear" and isinstance(fixed, GaussianPrior):
            parts["pilot_prior"] = fixed  # a linear pilot encoder decodes it in closed form

    if b["lmmse"] or b["oracle_lmmse"]:
        # an N_u below 1 is a dims.N_u fault only
        check(d["N_u"] <= 1, "baselines", "pilot baselines support N_u = 1 only")
    if b["lmmse"]:
        # Its data encoder spans T - N_p slots; a file encoder fits T only.
        check(not enc["file"], "baselines.lmmse",
              "an encoder file cannot fit the T - N_p data slots of the pilot chain")
        if dims:
            parts["pilots"] = build("baselines.N_p",
                                    lambda: bl.make_pilots(dims.N_t, b["N_p"], dims.P), b)
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
        check(cfg[key] >= 1, key, "must be an integer >= 1")
    check(cfg["out"] is None or isinstance(cfg["out"], str), "out", "must be null or a path")
    pairs = cfg["force_error_trials"]
    ok = isinstance(pairs, list) and all(isinstance(t, (list, tuple)) and len(t) == 2
                                         and all(type(i) is int for i in t) for t in pairs)
    check(ok, "force_error_trials", "must be a list of [snr index, trial] integer pairs")
    grid = len(snr) if isinstance(snr, list) else 0, cfg["trials"]
    for i, t in pairs if ok else []:
        check(0 <= i < grid[0] and 0 <= t < grid[1], "force_error_trials",
              f"[{i}, {t}] is outside the {grid[0]} x {grid[1]} (snr index, trial) grid")
    parts["forced"] = frozenset(map(tuple, pairs)) if ok else frozenset()
    parts["methods"] = [m for m in _METHODS if (p["enabled"] if m == "pvd" else b[m])]
    check(parts["methods"], "pvd.enabled", "no method enabled")
    return cfg, parts, list(dict.fromkeys(problems))


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description: the merged config tree and
    the parts built from it once."""

    dims: MimoDims
    pvd: pv.PvdConfig
    prior_channel: Callable[[np.ndarray], ScorePrior]  # truth (users on axis 0) -> prior
    prior_source: Callable[[np.ndarray], ScorePrior]
    source: ScorePrior  # draws the true sources
    pilot_prior: GaussianPrior | None  # the pilot chain's closed-form source prior, if any
    # (S_rx, S_tx, cov_vec): the covariance roots (None: identity) and the
    # covariance of vec(H_k); None: Rayleigh
    kron: tuple | None
    pilots: np.ndarray | None  # (N_t, N_p) pilot rows, when baselines.lmmse is on
    file_encoder: Encoder | None  # encoder.file, loaded and checked; None: no file
    methods: list[str]  # enabled methods, in method-table (row) order
    forced: frozenset  # (snr index, trial) cells that fail on purpose
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        raw, parts, problems = _parse(user)
        if problems:
            raise ConfigError(problems)
        return cls(raw=raw, **parts)


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


def _link_encoder(cfg: ExperimentConfig, out_shape: tuple[int, int], cal_stream: int,
                  exact: bool, users: int = 1) -> Encoder:
    """One encoder over `users` users, each held to the power budget P: user
    i's matrix, drawn from seed stream i, on axis 0 of A (an encoder file's
    A is shared by all).

    exact: per-realization normalization, part of the map the receiver
    differentiates. Otherwise a linear encoder gets, per user, the fixed
    scale that gives average power P over _CALIBRATION_DRAWS source draws
    (seed stream `cal_stream` + i), so the map stays linear; a saturating
    one has no fixed calibration here and is normalized per realization.
    Either way a linear map's scale is the power's, so encoder.gain is the
    saturating encoder's input scale only.
    """
    seed, spec, n = cfg.raw["seed"] & 0xFFFFFFFF, cfg.raw["encoder"], cfg.dims.n
    m = out_shape[0] * out_shape[1]
    base = cfg.file_encoder  # None, or loaded and checked against the signal shape
    if base is None:
        As = [complex_normal(np.random.default_rng(np.random.SeedSequence([seed, 0xE2C0DE, i])),
                             (m, n), 1.0) for i in range(users)]
        A = As[0][None] if users == 1 else np.stack(As)  # one user's A is not copied
        A /= np.sqrt(n)
        base = (LinearEncoder(A, out_shape) if spec["type"] == "linear"
                else SaturatingEncoder(A, spec["gain"], out_shape))
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
    out = None if base is cfg.file_encoder else base.A  # the parsed config's A is not scaled
    return LinearEncoder(np.multiply(np.array(scales)[:, None, None], base.A, out=out), out_shape)


@dataclass
class _Link:
    """The transmitter, fixed across the trials of one run: its encoder and
    its power calibration depend on the config and the master seed only."""

    encoder: Encoder  # all users over all T slots, their matrices on axis 0
    pilot_encoder: Encoder | None = None  # data encoder over the T - N_p data slots


def _build_link(cfg: ExperimentConfig) -> _Link:
    dims = cfg.dims
    exact = cfg.raw["power_mode"] == "exact"
    link = _Link(_link_encoder(cfg, dims.signal_shape, 1, exact, dims.N_u))
    if cfg.pilots is not None:
        # Calibrated in either power mode, so a linear map decodes in closed form.
        link.pilot_encoder = _link_encoder(
            cfg, (dims.N_t * dims.K, dims.T - cfg.pilots.shape[1]), 0, exact=False)
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
    steps: list = field(default_factory=list)  # PVD per-step trace
    pvd: object = None  # the cell's pv.run outcome: a RecoveryResult, or the exception
    pvd_ms: float = math.nan  # its share of its batch's pv.run wall time


def _scene(cfg: ExperimentConfig, link: _Link, snr_db: float,
           rng: np.random.Generator) -> _Scene:
    """Draw channel, sources and noise from rng, in that order; all sources go
    through the link's encoder in one call."""
    dims = cfg.dims
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
        noise, signal + noise, mt.snr_db(signal, noise))


def _decode(cfg: ExperimentConfig, link: _Link, scenes: list[_Scene]) -> None:
    """One pv.run over the scenes of a batch, each drawing from its own generator:
    each scene gets its outcome and an equal share of the wall time. A fault of
    the batch as a whole is every scene's outcome."""
    t0 = time.perf_counter()
    try:
        outcomes = pv.run(np.stack([sc.Y for sc in scenes]), link.encoder,
                          cfg.prior_channel(np.stack([sc.channels for sc in scenes])),
                          cfg.prior_source(np.stack([sc.sources for sc in scenes])),
                          [sc.dims for sc in scenes], cfg.pvd, [sc.rng for sc in scenes])
    except Exception as exc:  # noqa: BLE001 - record-and-continue policy
        outcomes = [exc] * len(scenes)
    ms = (time.perf_counter() - t0) * 1e3 / len(scenes)
    for sc, outcome in zip(scenes, outcomes):
        sc.pvd, sc.pvd_ms = outcome, ms


def _pvd(cfg: ExperimentConfig, link: _Link, sc: _Scene) -> dict:
    """The fields of the scene's decode (_decode): its exception raised, or its metrics."""
    if isinstance(sc.pvd, Exception):
        raise sc.pvd
    result = sc.pvd
    sc.steps = result.diagnostics
    return {
        "nmse_db": mt.nmse_db(sc.channels, result.channels),
        "source_mse": mt.source_mse(sc.sources, result.sources),
        "residual": result.residual,
        "cbr": mt.cbr(cfg.dims, cfg.dims.T),
    }


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
    if cfg.pilot_prior is not None:
        D_hat = bl.two_stage_decode(Yb[:, :, N_p:], H_hat, link.pilot_encoder,
                                    cfg.pilot_prior, sigma_n2)
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


def _run_batch(cfg: ExperimentConfig, link: _Link, snr_idx: int, trials) -> list[tuple]:
    """Execute the (snr, trial) cells of one batch; returns each cell's
    (records, diagnostics rows), in trial order.

    The scenes are drawn in cell order, then one pv.run decodes them all. A
    failure while building a scene flags the row of every method of its cell;
    a failing method flags its own row.
    """
    snr_target = float(cfg.raw["snr_db"][snr_idx])
    cells = []
    for trial in trials:
        ss = np.random.SeedSequence([cfg.raw["seed"] & 0xFFFFFFFF, snr_idx, trial])
        seed_int = int(ss.generate_state(1)[0])
        try:
            if (snr_idx, trial) in cfg.forced:
                raise RuntimeError("forced divergent trial")
            sc = _scene(cfg, link, snr_target, np.random.default_rng(ss))
        except Exception as exc:  # noqa: BLE001 - record-and-continue policy
            sc = f"{type(exc).__name__}: {exc}"
        cells.append((trial, seed_int, sc))
    scenes = [sc for _, _, sc in cells if isinstance(sc, _Scene)]
    if scenes and "pvd" in cfg.methods:
        _decode(cfg, link, scenes)
    return [_rows(cfg, link, snr_target, *cell) for cell in cells]


def _rows(cfg: ExperimentConfig, link: _Link, snr_target: float, trial: int, seed_int: int,
          sc: _Scene | str) -> tuple[list, list]:
    """One cell's (records, diagnostics rows): each method scored on its scene,
    or every row flagged with the scene's failure `sc`."""
    raw = cfg.raw
    if isinstance(sc, str):
        return [mt.MetricsRecord(trial=trial, seed=seed_int, snr_db=snr_target, method=method,
                                 error=sc) for method in cfg.methods], []
    records = []
    for method in cfg.methods:
        t0 = time.perf_counter()
        fields, err = {"snr_db": sc.snr_db}, ""
        try:
            fields.update(_METHODS[method](cfg, link, sc))
        except Exception as exc:  # noqa: BLE001 - record-and-continue policy
            err = f"{type(exc).__name__}: {exc}"
        wall = None if not raw["record_timing"] else (
            sc.pvd_ms if method == "pvd" else (time.perf_counter() - t0) * 1e3)
        records.append(mt.MetricsRecord(trial=trial, seed=seed_int, method=method,
                                        wall_ms=wall, error=err, **fields))
    diag_rows = [[snr_target, trial, *dataclasses.astuple(s)]
                 for s in sc.steps] if raw["diagnostics"] else []
    return records, diag_rows


def _batches(cfg: ExperimentConfig) -> list[tuple[int, range]]:
    """(snr index, trials) of each batch: the trials of one SNR point, cut into
    even runs, as few as keep one reverse step's stacked draw under 1 MiB; with
    several workers, a multiple of their number, so each gets its share."""
    d, p, raw = cfg.dims, cfg.pvd, cfg.raw
    cell = 8 * p.J_in * p.L * d.N_u * (2 * d.K * d.N_r * d.N_t + d.n)  # one cell's, in bytes
    trials, w = raw["trials"], raw["workers"]
    n = -(-trials // max(1, 2**20 // cell))
    n = min(trials, n if w == 1 else -(-n // w) * w)
    return [(si, range(k * trials // n, (k + 1) * trials // n))
            for si in range(len(raw["snr_db"])) for k in range(n)]


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

#: Columns of the '.diag.csv' trace: the cell, then one PVD reverse step.
DIAG_COLUMNS = ["snr_db", "trial"] + [f.name for f in dataclasses.fields(pv.PvdStepDiag)]


def _fmt(v) -> str:
    if v is None or isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_csv(path, rows: list[list], header: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


_worker: tuple[ExperimentConfig, _Link] | None = None  # set in pool processes only


def _init_worker(cfg_raw: dict) -> None:
    global _worker
    cfg = ExperimentConfig.from_dict(cfg_raw)
    _worker = cfg, _build_link(cfg)


def _pool_task(batch):
    return _run_batch(*_worker, *batch)


def run_experiment(cfg: ExperimentConfig | dict, out=None) -> list[mt.MetricsRecord]:
    """Run every (snr, trial) cell and return records in deterministic order.

    The cells run in batches (_batches); worker processes share out whole
    batches. The link is built once here and once in each worker process; a fault
    there raises instead of flagging rows. Writes the results CSV to `out`
    (or cfg.raw['out']) when given; with diagnostics enabled a companion
    '<out>.diag.csv' carries the per-step reverse-process trace of every
    PVD run.
    """
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_dict(cfg)
    raw = cfg.raw
    link = _build_link(cfg)
    batches = _batches(cfg)
    if raw["workers"] > 1:
        # Imported here: a serial run never loads the process pool.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=raw["workers"], initializer=_init_worker,
                                 initargs=(raw,)) as pool:
            batched = list(pool.map(_pool_task, batches))  # in batch order
    else:
        batched = [_run_batch(cfg, link, si, trials) for si, trials in batches]
    results = [cell for cells in batched for cell in cells]  # in cell order
    records = [rec for recs, _ in results for rec in recs]  # (snr, trial, method) order
    diag_rows = [row for _, rows in results for row in rows]

    out = out or raw["out"]
    if out:
        _write_csv(out, [[getattr(r, c) for c in mt.CSV_COLUMNS] for r in records], mt.CSV_COLUMNS)
        if raw["diagnostics"]:
            _write_csv(str(out) + ".diag.csv", diag_rows, DIAG_COLUMNS)
    return records


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

def _set_path(tree: dict, path: str, value) -> None:
    """Set the field at dotted `path` (a list field to [value]); the parse
    of the point checks the value."""
    *keys, leaf = path.split(".")
    node = tree
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config path {path!r}")
    node[leaf] = [value] if isinstance(node[leaf], list) else value


_SWEPT_METRICS = ("nmse_db", "source_mse", "snr_db", "residual")
SWEEP_COLUMNS = ["param", "value", "rows", "errors"] + [
    f"{metric}_{stat}" for metric in _SWEPT_METRICS for stat in ("mean", "median")]


def _agg(vals: list[float]):
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return None, None
    return float(np.mean(finite)), float(np.median(finite))


def sweep(cfg_raw: dict, param: str, values: list, links: dict | None = None,
          out=None) -> list[dict]:
    """Run one experiment per swept value; aggregate means and medians.

    `links` maps other config paths to one value per swept value, e.g.
    {"dims.N_r": [8, 16]} for values [1, 2]. Each point runs with a seed
    derived from (master seed, point index).
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    links = links or {}
    for path, vals in links.items():
        if not isinstance(vals, (list, tuple)) or len(vals) != len(values):
            raise ConfigError(f"link {path}: must list one value per swept value ({len(values)})")
    base = ExperimentConfig.from_dict(cfg_raw).raw
    summary = []
    for idx, value in enumerate(values):
        point = copy.deepcopy(base)
        _set_path(point, param, value)
        for path, vals in links.items():
            _set_path(point, path, vals[idx])
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
        _write_csv(out, [[row[c] for c in SWEEP_COLUMNS] for row in summary], SWEEP_COLUMNS)
    return summary
