"""Pilot-based reference chain and the bandwidth cost of pilots.

DFT pilots -> per-block LMMSE channel estimate -> closed-form two-stage
source decode. The oracle variant uses the true transmitted signal as the
pilot: the bound any estimator faces on the same data. The channel
bandwidth ratio accounting shows what the pilot overhead costs.
"""

import numpy as np

from pvdmimo import (
    GaussianPrior,
    LinearEncoder,
    MimoDims,
    cbr,
    complex_normal,
    draw_kronecker_correlated,
    hermitian_sqrt,
    lmmse_channel,
    make_pilots,
    nmse_db,
    oracle_lmmse,
    two_stage_decode,
)

rng = np.random.default_rng(4)
dims = MimoDims(N_r=4, N_t=2, K=2, T=12, n=6, P=1.0)
N_p = 4
T_d = dims.T - N_p
sigma_n2 = 0.05

X_p = make_pilots(dims.N_t, N_p, dims.P)
orth = X_p @ X_p.conj().T
print(f"pilot rows: {X_p.shape}, X_p X_p^H = (N_p P) I? "
      f"max off-diagonal {np.max(np.abs(orth - N_p * dims.P * np.eye(dims.N_t))):.1e}")

# scene: pilots occupy the first N_p slots of each block
A = complex_normal(rng, (dims.N_t * dims.K * T_d, dims.n)) / np.sqrt(dims.n)
enc = LinearEncoder(A, (dims.N_t * dims.K, T_d))
d_true = rng.standard_normal(dims.n)
H = complex_normal(rng, (dims.K, dims.N_r, dims.N_t))
X = np.empty((dims.K, dims.N_t, dims.T), dtype=complex)
X[:, :, :N_p] = X_p
X[:, :, N_p:] = enc.encode(d_true).reshape(dims.K, dims.N_t, T_d)
Y = np.einsum("krc,kct->krt", H, X) + complex_normal(rng, (dims.K, dims.N_r, dims.T),
                                                     sigma_n2)

H_pilot = lmmse_channel(Y[:, :, :N_p], X_p, 1.0, sigma_n2)
H_oracle = oracle_lmmse(Y, X, 1.0, sigma_n2)
print(f"pilot LMMSE NMSE : {nmse_db([H], [H_pilot]):7.2f} dB  ({N_p} pilot slots)")
print(f"oracle LMMSE NMSE: {nmse_db([H], [H_oracle]):7.2f} dB  (all {dims.T} slots, "
      "true signal known)")

prior = GaussianPrior(np.zeros(dims.n), 1.0, "real")
d_hat = two_stage_decode(Y[:, :, N_p:], H_pilot, enc, prior, sigma_n2)
print(f"two-stage source MSE: {np.mean((d_hat - d_true) ** 2):.5f}")

# bandwidth accounting: pilots inflate the channel-use count per source scalar
blind = cbr(dims, dims.T)
piloted = cbr(dims, T_d)
print(f"CBR blind {blind:.4f} vs piloted {piloted:.4f} "
      f"(+{100 * (piloted / blind - 1):.0f}% channel uses for the same payload)")


def exp_corr(N, rho):
    """Exponential correlation rho^|i - j| across N antennas."""
    return rho ** np.abs(np.subtract.outer(np.arange(N), np.arange(N)))


# Kronecker-correlated channel. One call estimates all blocks; the covariance
# over the column-major vec(H_k) is R_tx^T kron R_rx. Same pilots, same
# received data, two priors.
R_rx, R_tx = exp_corr(dims.N_r, 0.9), exp_corr(dims.N_t, 0.6)
blocks = 400
H_c = draw_kronecker_correlated(MimoDims(N_r=dims.N_r, N_t=dims.N_t, K=blocks, T=N_p),
                                hermitian_sqrt(R_rx, "R_rx"), hermitian_sqrt(R_tx, "R_tx"),
                                rng)[0]
sigma_n2_c = 0.5
Y_c = H_c @ X_p + complex_normal(rng, (blocks, dims.N_r, N_p), sigma_n2_c)
H_iid = lmmse_channel(Y_c, X_p, 1.0, sigma_n2_c)
H_cov = lmmse_channel(Y_c, X_p, 1.0, sigma_n2_c, Sigma=np.kron(R_tx.T, R_rx))
print(f"Kronecker channel, {blocks} blocks at sigma_n2 = {sigma_n2_c}: "
      f"i.i.d. LMMSE {nmse_db(H_c[None], H_iid[None]):6.2f} dB, "
      f"covariance-aware LMMSE {nmse_db(H_c[None], H_cov[None]):6.2f} dB")
