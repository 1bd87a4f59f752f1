"""Recovery scoring and transmission-efficiency bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import MimoDims


@dataclass(frozen=True)
class MetricsRecord:
    """One scored trial for one method; a metric it does not report stays NaN, an empty CSV cell."""

    trial: int
    seed: int
    snr_db: float
    cbr: float = np.nan
    nmse_db: float = np.nan
    source_mse: float = np.nan
    residual: float = np.nan
    method: str = ""
    wall_ms: float | None = None
    error: str = ""


#: Column schema of the per-trial results CSV, the fields of MetricsRecord.
#: nmse_db uses '-inf' as the documented sentinel for exact recovery; wall_ms
#: is empty unless timing capture was requested (timings are inherently
#: non-reproducible).
CSV_COLUMNS = [f.name for f in fields(MetricsRecord)]


def nmse_db(H_true: np.ndarray, H_est: np.ndarray) -> float:
    """Channel NMSE in dB over the (N_u, K, N_r, N_t) channels, summed
    per-user and averaged by user count:

        10 log10( sum_i ||H_i - Hhat_i||_F^2 / (N_u ||H_i||_F^2) ),

    computed over the free block entries (the structural zeros of the
    compound matrix cancel identically). Exact recovery returns -inf.
    """
    H_true, H_est = np.asarray(H_true), np.asarray(H_est)
    if H_true.ndim != 4 or H_true.shape != H_est.shape:
        raise ValueError("need two (N_u, K, N_r, N_t) arrays of equal shape, got "
                         f"{H_true.shape} and {H_est.shape}")
    denom = np.sum(np.abs(H_true) ** 2, axis=(1, 2, 3))
    if np.any(denom == 0):
        raise ValueError("true channel has zero norm")
    per_user = np.sum(np.abs(H_true - H_est) ** 2, axis=(1, 2, 3)) / (len(H_true) * denom)
    total = float(np.add.accumulate(per_user)[-1])  # summed in user order
    return float("-inf") if total == 0.0 else float(10.0 * np.log10(total))


def snr_db(signal_part: np.ndarray, noise_part: np.ndarray) -> float:
    """Channel SNR: 10 log10(||sum_i H_i X_i||_F^2 / ||N||_F^2)."""
    p_noise = float(np.sum(np.abs(np.asarray(noise_part)) ** 2))
    if p_noise == 0:
        raise ValueError("noise part has zero norm")
    p_sig = float(np.sum(np.abs(np.asarray(signal_part)) ** 2))
    return float(10.0 * np.log10(p_sig / p_noise))


def cbr(dims: MimoDims, data_slots: int) -> float:
    """Channel bandwidth ratio: transmitted matrix elements per source scalar.

    Blind schemes use all T slots for data (data_slots = T) and the ratio
    is N_t K T / n. Pilot schemes carry the same data payload in
    data_slots = T - N_p slots per block, so the block count is re-derived
    as K' = K T / data_slots and the ratio becomes N_t K' T / n. One integer
    true division, so the float is the exact ratio correctly rounded.
    """
    if data_slots < 1:
        raise ValueError("data_slots must be >= 1")
    return dims.N_t * dims.K * dims.T * dims.T / (data_slots * dims.n)


def source_mse(D_true: np.ndarray, D_est: np.ndarray) -> float:
    """Mean squared error per source entry of each user, averaged over the
    users. Users sit on axis 0 of the (N_u, n) sources; a 1-D source is one
    user's."""
    t, e = (np.asarray(D, dtype=np.float64) for D in (D_true, D_est))
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {e.shape}")
    return float(np.mean(np.mean((t - e) ** 2, axis=-1)))
