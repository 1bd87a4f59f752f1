"""The four benchmark workloads as `run_experiment` config trees.

Each workload has a fixed shape; only the config `seed` comes from the
benchmark's `--seed`, so the same seed gives the same inputs. `trials` is
the number of (snr, trial) cells per SNR point in one measured round.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import copy
import json
import os

NAMES = ("desk", "medium", "multiuser", "pilot")

# Cells per SNR point in one round, sized so a round lasts about 1-5 s.
TRIALS = {"desk": 3, "medium": 1, "multiuser": 1, "pilot": 12}


def _corr(n: int, rho: float) -> list[list[float]]:
    return [[rho ** abs(i - j) for j in range(n)] for i in range(n)]


def _desk(root: str) -> dict:
    with open(os.path.join(root, "configs", "default.json")) as fh:
        return json.load(fh)


def _medium(root: str) -> dict:
    return {
        "dims": {"N_r": 16, "N_t": 4, "K": 8, "T": 24, "N_u": 1, "n": 512, "P": 1.0},
        "channel": {"model": "rayleigh"},
        "encoder": {"type": "linear", "init": "gaussian", "gain": 1.0},
        "prior_channel": {"type": "gaussian", "mean": 0.0, "var": 1.0},
        "prior_source": {"type": "gaussian", "mean": 0.0, "var": 1.0},
        "pvd": {"enabled": True, "J": 10, "J_in": 5, "sigmaJ_H": 10.0, "sigmaJ_D": 10.0,
                "probes": 8},
        "baselines": {"lmmse": True, "oracle_lmmse": True, "N_p": 4},
        "power_mode": "exact",
        "snr_db": [10.0],
    }


def _multiuser(root: str) -> dict:
    # Vector mixture means: scalar means pass validate but fail every trial.
    return {
        "dims": {"N_r": 4, "N_t": 1, "K": 2, "T": 16, "N_u": 3, "n": 8, "P": 1.0},
        "channel": {"model": "kronecker", "R_rx": _corr(4, 0.5), "R_tx": [[1.0]]},
        "encoder": {"type": "saturating", "init": "gaussian", "gain": 0.7},
        "prior_channel": {"type": "gaussian", "mean": 0.0, "var": 1.0},
        "prior_source": {"type": "mixture", "means": [[1.0] * 8, [-1.0] * 8],
                         "var": 0.25, "weights": [0.5, 0.5]},
        "pvd": {"enabled": True, "J": 30, "J_in": 20, "sigmaJ_H": 10.0, "sigmaJ_D": 10.0},
        "baselines": {"lmmse": False, "oracle_lmmse": False},
        "power_mode": "exact",
        "snr_db": [10.0, 20.0],
    }


def _pilot(root: str) -> dict:
    return {
        "dims": {"N_r": 8, "N_t": 2, "K": 8, "T": 16, "N_u": 1, "n": 64, "P": 1.0},
        "channel": {"model": "kronecker", "R_rx": _corr(8, 0.5),
                    "R_tx": [[1.0, 0.3], [0.3, 1.0]]},
        "encoder": {"type": "linear", "init": "gaussian", "gain": 1.0},
        "prior_channel": {"type": "gaussian", "mean": 0.0, "var": 1.0},
        "prior_source": {"type": "gaussian", "mean": 0.0, "var": 1.0},
        "pvd": {"enabled": False},
        "baselines": {"lmmse": True, "oracle_lmmse": True, "N_p": 2},
        "power_mode": "average",
        "snr_db": [0.0, 10.0, 20.0],
    }


_CONFIGS = {"desk": _desk, "medium": _medium, "multiuser": _multiuser, "pilot": _pilot}


def config(name: str, seed: int, root: str) -> dict:
    """User config of workload `name` for one round, seeded by `seed`.

    `root` is the checkout root (desk reads configs/default.json there).
    The result goes through `ExperimentConfig.from_dict` unchanged; `out`
    is left to the caller and `workers` is pinned to 1.
    """
    cfg = copy.deepcopy(_CONFIGS[name](root))
    cfg.update(seed=int(seed), trials=TRIALS[name], workers=1, out=None,
               diagnostics=False, record_timing=False)
    return cfg
