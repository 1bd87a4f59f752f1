"""Block-fading MIMO channel generation and noisy transmission.

The link model is Y = sum_i H0_i X_i + N, where each per-user compound
channel H0 is block-diagonal with K independent N_r x N_t fading blocks,
X_i is the N_t*K x T transmitted signal of user i, and N is AWGN with
per-entry variance sigma_n2. Channels are stored block-wise (shape
(K, N_r, N_t)); the compound matrix is materialized only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MimoDims:
    """System dimensions of the link.

    N_r, N_t : receive / transmit antennas (per user)
    K, T     : transmission blocks / slots per block
    N_u      : number of users
    n        : source dimension (real scalars per user)
    P        : average transmit power constraint (linear)
    sigma_n2 : noise power sigma_n^2 (linear)
    """

    N_r: int
    N_t: int
    K: int
    T: int
    N_u: int = 1
    n: int = 1
    P: float = 1.0
    sigma_n2: float = 0.0

    def __post_init__(self):
        for name in ("N_r", "N_t", "K", "T", "N_u", "n"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.P <= 0:
            raise ValueError(f"P must be > 0, got {self.P!r}")
        if self.sigma_n2 < 0:
            raise ValueError(f"sigma_n2 must be >= 0, got {self.sigma_n2!r}")

    @property
    def signal_shape(self) -> tuple[int, int]:
        """Shape of one user's transmitted signal matrix."""
        return (self.N_t * self.K, self.T)

    @property
    def output_shape(self) -> tuple[int, int]:
        """Shape of the received signal matrix."""
        return (self.N_r * self.K, self.T)

    @property
    def channel_entries(self) -> int:
        """Free (non-structural) channel entries per user."""
        return self.N_r * self.N_t * self.K


@dataclass(frozen=True)
class BlockFadingChannel:
    """One user's channel: K per-block matrices, shape (K, N_r, N_t)."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 3:
            raise ValueError(f"blocks must be (K, N_r, N_t), got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("channel blocks contain non-finite entries")
        object.__setattr__(self, "blocks", b)

    @property
    def K(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Draw i.i.d. CN(0, var): real/imag parts independent N(0, var/2)."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(var / 2.0)


def draw_rayleigh(dims: MimoDims, rng: np.random.Generator) -> list[BlockFadingChannel]:
    """Draw independent Rayleigh-fading channels, one per user.

    Every entry of every block is an independent CN(0, 1) draw.
    """
    return [
        BlockFadingChannel(complex_normal(rng, (dims.K, dims.N_r, dims.N_t)))
        for _ in range(dims.N_u)
    ]


def hermitian_sqrt(R: np.ndarray, name: str) -> np.ndarray | None:
    """Hermitian PSD square root via eigendecomposition (None for the exact
    identity); raises ValueError naming `name` unless R is Hermitian PSD."""
    R = np.asarray(R, dtype=np.complex128)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"{name} must be square, got shape {R.shape}")
    if not np.allclose(R, R.conj().T, atol=1e-10):
        raise ValueError(f"{name} is not Hermitian")
    # Exact identity keeps output bit-identical to the uncorrelated draw.
    if np.array_equal(R, np.eye(R.shape[0], dtype=np.complex128)):
        return None
    w, U = np.linalg.eigh(R)
    if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
        raise ValueError(f"{name} is not positive semidefinite (min eigval {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)) @ U.conj().T


def draw_kronecker_correlated(
    dims: MimoDims,
    R_rx: np.ndarray,
    R_tx: np.ndarray,
    rng: np.random.Generator,
) -> list[BlockFadingChannel]:
    """Draw Kronecker-correlated channels H_k = R_rx^{1/2} G R_tx^{1/2}.

    G is i.i.d. CN(0, 1); R_rx (N_r x N_r) and R_tx (N_t x N_t) must be
    Hermitian positive semidefinite. Identity covariances reproduce
    draw_rayleigh bit-exactly under the same generator state.
    """
    S_rx = hermitian_sqrt(R_rx, "R_rx")
    S_tx = hermitian_sqrt(R_tx, "R_tx")
    if np.asarray(R_rx).shape[0] != dims.N_r:
        raise ValueError(f"R_rx must be {dims.N_r}x{dims.N_r}")
    if np.asarray(R_tx).shape[0] != dims.N_t:
        raise ValueError(f"R_tx must be {dims.N_t}x{dims.N_t}")
    out = []
    for _ in range(dims.N_u):
        G = complex_normal(rng, (dims.K, dims.N_r, dims.N_t))
        H = G
        if S_rx is not None:
            H = np.einsum("ab,kbt->kat", S_rx, H)
        if S_tx is not None:
            H = np.einsum("kab,bt->kat", H, S_tx)
        out.append(BlockFadingChannel(H))
    return out


def compound(ch: BlockFadingChannel) -> np.ndarray:
    """Materialize the block-diagonal compound channel (N_r*K x N_t*K)."""
    K, N_r, N_t = ch.blocks.shape
    H0 = np.zeros((N_r * K, N_t * K), dtype=np.complex128)
    for k in range(K):
        H0[k * N_r:(k + 1) * N_r, k * N_t:(k + 1) * N_t] = ch.blocks[k]
    return H0


def apply_channel(ch: BlockFadingChannel, X: np.ndarray) -> np.ndarray:
    """Noiseless H0 @ X computed block-wise; X is (N_t*K, T)."""
    K, N_r, N_t = ch.blocks.shape
    X = np.asarray(X)
    if X.shape[0] != N_t * K:
        raise ValueError(f"signal has {X.shape[0]} rows, channel expects {N_t * K}")
    Xb = X.reshape(K, N_t, X.shape[1])
    Yb = np.einsum("krt,ktc->krc", ch.blocks, Xb)
    return Yb.reshape(K * N_r, X.shape[1])


def transmit(
    channels: Sequence[BlockFadingChannel],
    signals: Sequence[np.ndarray],
    sigma_n2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Superpose all users through their channels and add CN(0, sigma_n2) noise.

    Y = sum_i H0_i X_i + N, shape (N_r*K, T). Block k of Y depends only on
    block k of each channel and the matching N_t rows of each signal.
    """
    if len(channels) != len(signals):
        raise ValueError(
            f"{len(channels)} channels vs {len(signals)} signals; counts must match"
        )
    if sigma_n2 < 0:
        raise ValueError("sigma_n2 must be >= 0")
    T = np.asarray(signals[0]).shape[1]
    for X in signals:
        if np.asarray(X).shape[1] != T:
            raise ValueError("all user signals must share the slot count T")
    Y = apply_channel(channels[0], signals[0])
    for ch, X in zip(channels[1:], signals[1:]):
        Y = Y + apply_channel(ch, X)
    if sigma_n2 > 0:
        Y = Y + complex_normal(rng, Y.shape, sigma_n2)
    return Y
