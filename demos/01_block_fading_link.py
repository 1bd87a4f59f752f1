"""Block-fading MIMO link basics.

Draws a Rayleigh block-fading channel, inspects the compound block-diagonal
structure, and pushes a signal through the noisy link. Every quantity is
checked against what the model says it should be.
"""

import numpy as np

from pvdmimo import (
    MimoDims,
    complex_normal,
    compound,
    draw_kronecker_correlated,
    draw_rayleigh,
    hermitian_sqrt,
    transmit,
)

rng = np.random.default_rng(0)

dims = MimoDims(N_r=2, N_t=2, K=3, T=8, P=1.0)
print(f"link: {dims.N_r}x{dims.N_t} antennas, {dims.K} blocks of {dims.T} slots")

H = draw_rayleigh(dims, rng)
print(f"channels: {H.shape}  (N_u, K, N_r, N_t)")

H0 = compound(H[0])
off_block_power = np.sum(np.abs(H0) ** 2) - np.sum(np.abs(H[0]) ** 2)
print(f"compound H0: {H0.shape}, off-block power = {off_block_power:.1f} (structural zeros)")

# per-entry channel power is 1 by construction
big = draw_rayleigh(MimoDims(N_r=40, N_t=40, K=50, T=1), rng)
print(f"empirical per-entry channel power over {big.size} draws: "
      f"{np.mean(np.abs(big) ** 2):.4f} (expect 1.0)")

# noiseless transmission is exactly the block-diagonal product
X = complex_normal(rng, (dims.N_u,) + dims.signal_shape)
Y_clean = transmit(H, X, 0.0, rng)
print(f"noiseless ||Y - H0 X|| = {np.linalg.norm(Y_clean - H0 @ X[0]):.2e}")

# with noise, the per-entry deviation matches sigma_n2 (averaged over a
# long transmission so the estimate is tight)
sigma_n2 = 0.25
dims_long = MimoDims(N_r=2, N_t=2, K=3, T=4000, P=1.0)
X_long = complex_normal(rng, (dims_long.N_u,) + dims_long.signal_shape)
Y_long = transmit(H, X_long, sigma_n2, np.random.default_rng(1))
noise_power = np.mean(np.abs(Y_long - transmit(H, X_long, 0.0, rng)) ** 2)
print(f"measured noise power {noise_power:.4f} vs sigma_n2 = {sigma_n2}")

# correlated channels: transmit-side correlation shapes the row space
rho = 0.9
R_tx = np.array([[1.0, rho], [rho, 1.0]])
many = MimoDims(N_r=2, N_t=2, K=4000, T=1, P=1.0)
corr = draw_kronecker_correlated(many, None, hermitian_sqrt(R_tx, "R_tx"), rng)
rows = corr.reshape(-1, 2)
emp_corr = (rows.conj().T @ rows).real / rows.shape[0]
print(f"empirical transmit covariance under the Kronecker surrogate "
      f"(target off-diagonal {rho}):")
print(np.round(emp_corr, 3))
