"""Block-fading MIMO channel generation and noisy transmission.

The link model is Y = sum_i H0_i X_i + N, where each per-user compound
channel H0 is block-diagonal with K independent N_r x N_t fading blocks,
X_i is the N_t*K x T transmitted signal of user i, and N is AWGN with
per-entry variance sigma_n2. A user's channel is stored block-wise as a
(K, N_r, N_t) array and all users' channels stack on axis 0; the compound
matrix is materialized only on demand.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

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
        # every bad field, in one ValueError of '; '-joined faults
        v = vars(self)
        faults = [f"{k} must be a positive integer, got {v[k]!r}"
                  for k in ("N_r", "N_t", "K", "T", "N_u", "n")
                  if not isinstance(v[k], numbers.Integral) or v[k] < 1]
        if not 0 < self.P < np.inf:  # NaN fails too
            faults.append(f"P must be {'> 0' if np.isfinite(self.P) else 'finite'}, got {self.P!r}")
        if not 0 <= self.sigma_n2 < np.inf:
            faults.append(f"sigma_n2 must be {'>= 0' if np.isfinite(self.sigma_n2) else 'finite'}, "
                          f"got {self.sigma_n2!r}")
        if faults:
            raise ValueError("; ".join(faults))

    @property
    def signal_shape(self) -> tuple[int, int]:
        """Shape of one user's transmitted signal matrix."""
        return (self.N_t * self.K, self.T)

    @property
    def output_shape(self) -> tuple[int, int]:
        """Shape of the received signal matrix."""
        return (self.N_r * self.K, self.T)


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Draw i.i.d. CN(0, var): real, then imaginary parts N(0, var/2), into one array."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(var / 2.0)
    return z


def _cn_users(dims: MimoDims, rng: np.random.Generator) -> np.ndarray:
    """All users' i.i.d. CN(0, 1) channel entries in one draw, in draw_rayleigh's order;
    shared so neither draw calls the other (the traced benchmark opens a cell per call)."""
    z = rng.standard_normal((dims.N_u, 2, dims.K, dims.N_r, dims.N_t))
    return (z[:, 0] + 1j * z[:, 1]) * np.sqrt(0.5)


def draw_rayleigh(dims: MimoDims, rng: np.random.Generator) -> np.ndarray:
    """Draw independent Rayleigh-fading channels, shape (N_u, K, N_r, N_t).

    Every entry of every block is an independent CN(0, 1) draw. One draw
    serves all users, in the order of one complex_normal call per user
    (its real parts, then its imaginary parts).
    """
    return _cn_users(dims, rng)


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
    S_rx: np.ndarray | None,
    S_tx: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw Kronecker-correlated channels H_k = S_rx G S_tx, shape
    (N_u, K, N_r, N_t), from one draw in draw_rayleigh's order.

    G is i.i.d. CN(0, 1); S_rx (N_r x N_r) and S_tx (N_t x N_t) are the
    square roots of the receive and transmit covariances as hermitian_sqrt
    returns them, None meaning identity. Two identity factors reproduce
    draw_rayleigh bit-exactly under the same generator state.
    """
    H = _cn_users(dims, rng)
    if S_rx is not None:
        H = np.einsum("ab,ukbt->ukat", S_rx, H)
    if S_tx is not None:
        H = np.einsum("ukab,bt->ukat", H, S_tx)
    return H


def compound(H: np.ndarray) -> np.ndarray:
    """Materialize one user's block-diagonal compound channel (N_r*K x N_t*K)
    from its (K, N_r, N_t) blocks."""
    K, N_r, N_t = H.shape
    H0 = np.zeros((N_r * K, N_t * K), dtype=np.complex128)
    for k in range(K):
        H0[k * N_r:(k + 1) * N_r, k * N_t:(k + 1) * N_t] = H[k]
    return H0


def block_product(blocks: np.ndarray, X: np.ndarray) -> np.ndarray:
    """H0 @ X from the (K, N_r, N_t) blocks of H0; X is (N_t*K, ...), its
    trailing axes flattened into columns. Blocks stacked on a leading axis
    (one channel per user) take X stacked the same way."""
    *lead, K, N_r, N_t = blocks.shape
    Yb = np.einsum("...krt,...ktc->...krc", blocks, X.reshape(*lead, K, N_t, -1))
    return Yb.reshape(*lead, K * N_r, *X.shape[len(lead) + 1:])


def block_adjoint(blocks: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """H0^H @ Y from the (K, N_r, N_t) blocks of H0, stacked on a leading axis
    like block_product's; Y is (N_r*K, T) and the result (..., N_t*K, T)."""
    *lead, K, N_r, N_t = blocks.shape
    Yb = Y.reshape(K, N_r, -1)
    return np.einsum("...krc,krt->...kct", blocks.conj(), Yb).reshape(*lead, K * N_t, -1)


def superpose(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_i H0_i X_i over the users' (N_u, K, N_r, N_t) channels and
    (N_u, N_t*K, T) signals, added in user order."""
    return np.add.accumulate(block_product(H, X))[-1]


def apply_channel(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Noiseless H0 @ X computed block-wise from one user's (K, N_r, N_t)
    blocks; X is (N_t*K, T)."""
    K, _, N_t = H.shape
    X = np.asarray(X)
    if X.shape[0] != N_t * K:
        raise ValueError(f"signal has {X.shape[0]} rows, channel expects {N_t * K}")
    return block_product(H, X)


def transmit(
    H: np.ndarray,
    X: np.ndarray,
    sigma_n2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Superpose all users through their channels and add CN(0, sigma_n2) noise.

    H holds the (N_u, K, N_r, N_t) channels and X the (N_u, N_t*K, T)
    signals. Y = sum_i H0_i X_i + N, shape (N_r*K, T). Block k of Y depends
    only on block k of each channel and the matching N_t rows of each signal.
    """
    H, X = np.asarray(H), np.asarray(X)
    if H.ndim != 4 or X.ndim != 3 or X.shape[:2] != (H.shape[0], H.shape[1] * H.shape[3]):
        raise ValueError(f"channels {H.shape} and signals {X.shape} must be "
                         "(N_u, K, N_r, N_t) and (N_u, N_t*K, T)")
    if not 0 <= sigma_n2 < np.inf:
        raise ValueError(f"sigma_n2 must be finite and >= 0, got {sigma_n2!r}")
    Y = superpose(H, X)
    if sigma_n2 > 0:
        Y = Y + complex_normal(rng, Y.shape, sigma_n2)
    return Y
