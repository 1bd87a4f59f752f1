"""Pilot-based two-stage reference pipeline.

The comparison chain for the blind recovery engine: known pilot symbols
are inserted into each transmission block, the channel is estimated per
block by LMMSE, and (for linear encoders) the source is then decoded by
the closed-form linear-Gaussian MMSE that treats the channel estimate as
exact. An oracle variant uses the true transmitted signal as the pilot,
which bounds what any channel estimator could do on the same data.
"""

from __future__ import annotations

import numpy as np

from .encoder import Encoder, LinearEncoder
from .priors import GaussianPrior


def make_pilots(N_t: int, N_p: int, P: float) -> np.ndarray:
    """Equal-power (N_t, N_p) pilot rows drawn from a scaled unitary DFT matrix.

    Every entry has power P; when N_p >= N_t the rows are mutually
    orthogonal with X_p X_p^H = (N_p P) I, the LMMSE-optimal choice for
    equal-power pilots. With N_p < N_t the rows stay at full power but
    orthogonality cannot hold.
    """
    for name, count in (("N_t", N_t), ("N_p", N_p)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")
    if P <= 0:
        raise ValueError("P must be > 0")
    N = max(N_t, N_p)
    k = np.arange(N_t)[:, None]
    l = np.arange(N_p)[None, :]
    return np.sqrt(P) * np.exp(-2j * np.pi * k * l / N)


def _lmmse_blocks(Y, X, sigma_h2: float, sigma_n2: float, Sigma) -> np.ndarray:
    """LMMSE of one block H_k (N_r, N_t) or K stacked blocks from Y_k = H_k X_k + N;
    X is (N_t, L), shared by all blocks, or one per block, (K, N_t, L).

    With A_k = X_k^T kron I_{N_r} over the column-major vec(H_k), the estimate
    Sigma A^H (A Sigma A^H + sigma_n2 I)^-1 vec(Y_k) equals, by push-through,
    (Sigma (conj(G_k) kron I) + sigma_n2 I)^-1 Sigma vec(Y_k X_k^H) with
    G_k = X_k X_k^H: one N_r N_t system per block whatever its length, solved
    for all blocks at once, with no inverse of Sigma (sigma_h2 I if None).
    """
    Y = np.asarray(Y, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim == 3 and X.shape[:1] != Y.shape[:-2]:
        raise ValueError("Y and X must have the same number of blocks")
    N_r, N_t = Y.shape[-2], X.shape[-2]
    m = N_r * N_t
    if Sigma is None:
        if sigma_h2 <= 0:
            raise ValueError("sigma_h2 must be > 0")
        Sigma = sigma_h2 * np.eye(m)
    else:
        Sigma = np.asarray(Sigma, dtype=np.complex128)
        if Sigma.shape != (m, m):
            raise ValueError(f"Sigma must be {m}x{m} over vec(H_k), got {Sigma.shape}")
    XH = X.conj().swapaxes(-1, -2)
    # conj(G_k) kron I_{N_r}: entry (a N_r + r, b N_r + s) is conj(G_k)[a, b] delta_rs
    GI = ((X @ XH).conj()[..., None, :, None] * np.eye(N_r)[:, None, :]).reshape(
        X.shape[:-2] + (m, m))
    b = (Y @ XH).swapaxes(-1, -2).reshape(Y.shape[:-2] + (m, 1))
    h = np.linalg.solve(Sigma @ GI + sigma_n2 * np.eye(m), Sigma @ b)
    return h.reshape(Y.shape[:-2] + (N_t, N_r)).swapaxes(-1, -2)


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
    H_est: np.ndarray,
    enc: Encoder,
    prior: GaussianPrior,
    sigma_n2: float,
) -> np.ndarray:
    """Closed-form MMSE source decode of the (K, N_r, T_d) data blocks Y_d that
    treats the channel estimate, (K, N_r, N_t) blocks or one block, as exact.
    The encoder must be linear with one matrix A, so the Gaussian posterior
    mean is exact.

    It solves (G0 + lam I)(d - mu) = Re(A^H vec(H0^H Y_d)) - G0 mu with
    lam = sigma_n2 / (2 var0) and G0 = sum_kt Re(A_kt^H Q_k A_kt) over the
    block Grams Q_k = H_k^H H_k, A_kt the rows of A block k sends in slot t.
    From the QR factors H_k = U_k R_k (R_k^H R_k = Q_k), G0 = Re(W^H W) with
    W = R_k A_kt: K min(N_r, N_t) T_d n^2 multiply-adds, where the stacked
    composite map H0 A takes K N_r T_d n^2. sigma_n2 = 0 gives the
    minimum-norm least-squares solution.
    """
    if not isinstance(enc, LinearEncoder):
        raise TypeError("two_stage_decode supports LinearEncoder only")
    if prior.domain != "real":
        raise ValueError("source prior must be over the real domain")
    if not 0 <= sigma_n2 < np.inf:  # NaN fails too
        raise ValueError(f"sigma_n2 must be finite and >= 0, got {sigma_n2!r}")
    blocks = np.asarray(H_est)
    blocks = blocks[None] if blocks.ndim == 2 else blocks
    Y_d = np.asarray(Y_d, dtype=np.complex128)
    if blocks.ndim != 3 or Y_d.ndim != 3 or Y_d.shape[:2] != blocks.shape[:2]:
        raise ValueError(f"Y_d of shape {Y_d.shape} must be (K, N_r, T_d) over the "
                         f"(K, N_r, N_t) channel blocks of shape {blocks.shape}")
    K, _, N_t = blocks.shape
    T_d, n = Y_d.shape[-1], enc.input_dim
    if enc.output_shape != (N_t * K, T_d):
        raise ValueError(f"encoder output {enc.output_shape} != (N_t*K, T_d) = "
                         f"{(N_t * K, T_d)} of the channel and data blocks")
    if enc.A.ndim == 3 and len(enc.A) != 1:
        raise ValueError(f"encoder A of shape {enc.A.shape} holds {len(enc.A)} matrices, "
                         "expected one, (m, n) or (1, m, n)")

    # ||H_k A_kt d - y_kt||^2 = ||R_k A_kt d - U_k^H y_kt||^2 + a constant
    U, R = np.linalg.qr(blocks)
    Wr = np.empty((2, K, R.shape[-2], T_d * n))  # [Re W; Im W]; W_k = R_k A_k, min(N_r, N_t) rows
    # W in products of at most 1 MiB or one block: a large W is never whole, and a
    # small one takes one call, as a call per block costs more than its product
    c = max(1, 2**20 // (2 * Wr[0, 0].nbytes))  # blocks per product
    for k in range(0, K, c):
        W = R[k:k + c] @ enc.A.reshape(K, N_t, T_d * n)[k:k + c]
        Wr[0, k:k + c], Wr[1, k:k + c] = W.real, W.imag
        del W  # before the next product is taken
    Wr = Wr.reshape(-1, n)
    z = (U.conj().swapaxes(-1, -2) @ Y_d).reshape(-1)
    mu = np.broadcast_to(np.asarray(prior.mean, dtype=np.float64), (n,)).copy()
    zr = np.concatenate([z.real, z.imag]) - Wr @ mu
    if sigma_n2 == 0:
        delta, *_ = np.linalg.lstsq(Wr, zr, rcond=None)
        return mu + delta
    lam = (sigma_n2 / 2.0) / prior.var0
    G, b = Wr.T @ Wr, Wr.T @ zr
    del Wr  # the solve holds the n x n Gram only
    G.flat[::n + 1] += lam  # + lam I, in place
    return mu + np.linalg.solve(G, b)
