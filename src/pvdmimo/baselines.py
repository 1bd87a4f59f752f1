"""Pilot-based two-stage reference pipeline.

The comparison chain for the blind recovery engine: known pilot symbols
are inserted into each transmission block, the channel is estimated per
block by LMMSE, and (for linear encoders) the source is then decoded by
the closed-form linear-Gaussian MMSE that treats the channel estimate as
exact. An oracle variant uses the true transmitted signal as the pilot,
which bounds what any channel estimator could do on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BlockFadingChannel
from .encoder import Encoder, LinearEncoder
from .priors import GaussianPrior


@dataclass(frozen=True)
class PilotMatrix:
    """Per-block pilot symbols, one row per transmit antenna."""

    X_p: np.ndarray
    N_p: int
    P: float


def make_pilots(N_t: int, N_p: int, P: float) -> PilotMatrix:
    """Equal-power pilot rows drawn from a scaled unitary DFT matrix.

    Every entry has power P; when N_p >= N_t the rows are mutually
    orthogonal with X_p X_p^H = (N_p P) I, the LMMSE-optimal choice for
    equal-power pilots. With N_p < N_t the rows stay at full power but
    orthogonality cannot hold.
    """
    if N_p < 1 or N_t < 1:
        raise ValueError("N_t and N_p must be >= 1")
    if P <= 0:
        raise ValueError("P must be > 0")
    N = max(N_t, N_p)
    k = np.arange(N_t)[:, None]
    l = np.arange(N_p)[None, :]
    X_p = np.sqrt(P) * np.exp(-2j * np.pi * k * l / N)
    return PilotMatrix(X_p=X_p, N_p=N_p, P=float(P))


def _lmmse_block(Y_k: np.ndarray, X_k: np.ndarray, sigma_h2: float, sigma_n2: float) -> np.ndarray:
    """LMMSE estimate of one N_r x N_t block from Y_k = H_k X_k + N."""
    N_t = X_k.shape[0]
    G = X_k @ X_k.conj().T + (sigma_n2 / sigma_h2) * np.eye(N_t)
    try:
        return Y_k @ X_k.conj().T @ np.linalg.inv(G)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"singular LMMSE normal matrix: {err}") from err


def _lmmse_block_covariance(
    Y_k: np.ndarray,
    X_k: np.ndarray,
    Sigma: np.ndarray,
    sigma_n2: float,
) -> np.ndarray:
    """Generalized LMMSE with full channel covariance Sigma over vec(H_k).

    vec is column-major, so the observation operator for Y = H X + N is
    A = X^T kron I_{N_r}. Desk-scale dimensions keep the dense solve cheap.
    """
    N_r = Y_k.shape[0]
    N_t = X_k.shape[0]
    A = np.kron(X_k.T, np.eye(N_r))
    y = Y_k.reshape(-1, order="F")
    C = A @ Sigma @ A.conj().T + sigma_n2 * np.eye(A.shape[0])
    h = Sigma @ A.conj().T @ np.linalg.solve(C, y)
    return h.reshape(N_r, N_t, order="F")


def _lmmse_blocks(Y, X, sigma_h2: float, sigma_n2: float, Sigma) -> np.ndarray:
    """Per-block LMMSE of H_k from Y_k = H_k X_k + N; a 2-D X is shared by all blocks."""
    Y = np.asarray(Y, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    single = Y.ndim == 2
    Yb = Y[None, ...] if single else Y
    if X.ndim == 2:
        X = np.broadcast_to(X, (Yb.shape[0],) + X.shape)
    if Yb.shape[0] != X.shape[0]:
        raise ValueError("Y and X must have the same number of blocks")
    if Sigma is None and sigma_h2 <= 0:
        raise ValueError("sigma_h2 must be > 0")
    if Sigma is not None:
        Sigma = np.asarray(Sigma, dtype=np.complex128)
    est = np.stack([_lmmse_block(Yk, Xk, sigma_h2, sigma_n2) if Sigma is None
                    else _lmmse_block_covariance(Yk, Xk, Sigma, sigma_n2)
                    for Yk, Xk in zip(Yb, X)])
    return est[0] if single else est


def lmmse_channel(
    Y_p: np.ndarray,
    X_p: np.ndarray,
    sigma_h2: float,
    sigma_n2: float,
    Sigma: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block LMMSE channel estimate from the pilot phase.

    Y_p is (N_r, N_p) for one block or (K, N_r, N_p) stacked; all blocks
    share the pilot matrix X_p (N_t, N_p). Under an i.i.d. CN(0, sigma_h2)
    prior the estimate is Y_p X_p^H (X_p X_p^H + (sigma_n2/sigma_h2) I)^-1.
    Passing a full covariance Sigma over vec(H_k) switches to the
    generalized LMMSE for correlated channels.
    """
    return _lmmse_blocks(Y_p, X_p, sigma_h2, sigma_n2, Sigma)


def oracle_lmmse(
    Y: np.ndarray,
    X_true: np.ndarray,
    sigma_h2: float,
    sigma_n2: float,
    Sigma: np.ndarray | None = None,
) -> np.ndarray:
    """LMMSE channel estimate using the true transmitted signal as pilot.

    Y is (K, N_r, T) (or (N_r, T) for one block) and X_true the matching
    (K, N_t, T) true signal blocks. This is the oracle bound discussed
    alongside the blind scheme: no estimator seeing only Y can do better
    in NMSE under the matched Gaussian prior. Sigma works as in
    lmmse_channel.
    """
    return _lmmse_blocks(Y, X_true, sigma_h2, sigma_n2, Sigma)


def two_stage_decode(
    Y_d: np.ndarray,
    H_est: np.ndarray | BlockFadingChannel,
    enc: Encoder,
    prior: GaussianPrior,
    sigma_n2: float,
) -> np.ndarray:
    """Closed-form MMSE source decode given a channel estimate.

    Only linear encoders are supported: with X = reshape(A d) the
    observation is linear in d and the Gaussian posterior mean is exact.
    The channel estimate is treated as the true channel (two-stage
    pipeline; estimation errors are not propagated).
    """
    if not isinstance(enc, LinearEncoder):
        raise TypeError("two_stage_decode supports LinearEncoder only")
    if prior.domain != "real":
        raise ValueError("source prior must be over the real domain")
    blocks = H_est.blocks if isinstance(H_est, BlockFadingChannel) else np.asarray(H_est)
    if blocks.ndim == 2:
        blocks = blocks[None, ...]
    K, N_r, N_t = blocks.shape
    Y_d = np.asarray(Y_d, dtype=np.complex128)
    T_d = Y_d.shape[-1]
    n = enc.input_dim

    # Composite map d -> vec(H0 reshape(A d)): apply the block channel to
    # each reshaped column of A.
    cols = enc.A.reshape(K, N_t, T_d, n)
    B = np.einsum("krc,kctn->krtn", blocks, cols).reshape(K * N_r * T_d, n)
    y = Y_d.reshape(K * N_r * T_d)

    Br = np.vstack([B.real, B.imag])
    mu = np.broadcast_to(np.asarray(prior.mean, dtype=np.float64), (n,)).copy()
    yr = np.concatenate([y.real, y.imag]) - Br @ mu
    if sigma_n2 == 0:
        delta, *_ = np.linalg.lstsq(Br, yr, rcond=None)
        return mu + delta
    lam = (sigma_n2 / 2.0) / prior.var0
    G = Br.T @ Br + lam * np.eye(n)
    return mu + np.linalg.solve(G, Br.T @ yr)
