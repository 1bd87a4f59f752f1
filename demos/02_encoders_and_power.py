"""Source encoders and their exact gradients.

The recovery engine needs two things from an encoder: the forward map and
an exact vector-Jacobian product. This script checks both against finite
differences, demonstrates the power constraint, compares the closed-form
Jacobian norms against the dense ones, and round-trips encoder parameters
through an .npz file.
"""

import os
import tempfile

import numpy as np

from pvdmimo import (
    LinearEncoder,
    MimoDims,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    complex_normal,
    compound,
    jacobian_frobenius2,
    load_encoder,
    save_encoder,
)

rng = np.random.default_rng(3)
dims = MimoDims(N_r=2, N_t=1, K=2, T=6, n=4, P=2.0)
m = dims.N_t * dims.K * dims.T

A = complex_normal(rng, (m, dims.n)) / np.sqrt(dims.n)
linear = LinearEncoder(A, dims.signal_shape)
saturating = SaturatingEncoder(A, gain=1.5, output_shape=dims.signal_shape)
normalized = PowerNormalizedEncoder(linear, dims.P)

d = rng.standard_normal(dims.n)
for name, enc in [("linear", linear), ("saturating", saturating),
                  ("power-normalized", normalized)]:
    X = enc.encode(d)
    X0 = complex_normal(rng, dims.signal_shape)
    cot = X - X0
    g = enc.vjp(d, cot)
    h = 1e-6
    fd = np.array([
        (np.linalg.norm(enc.encode(d + h * e) - X0) ** 2
         - np.linalg.norm(enc.encode(d - h * e) - X0) ** 2) / (2 * h)
        for e in np.eye(dims.n)
    ])
    print(f"{name:17s} vjp vs finite differences: max dev {np.max(np.abs(g - fd)):.2e}")

# the power-normalized encoder meets the budget with equality, every input,
# whatever power the linear encoder beneath it puts out
for scale in (0.1, 1.0, 30.0):
    d_in = scale * rng.standard_normal(dims.n)
    raw = np.linalg.norm(linear.encode(d_in)) ** 2 / m
    X = normalized.encode(d_in)
    print(f"  per-symbol power {raw:10.4f} -> {np.linalg.norm(X) ** 2 / m:.12f} "
          f"(budget P = {dims.P})")

# Jacobian energies ||J||_F^2 and ||H0 J||_F^2 weight the blind likelihood.
# They come in closed form, from Gram matrices of the encoder matrix and the
# tanh' factors of the point, without forming the Jacobian.
print(f"||J||_F^2 of the saturating encoder (n*m = {dims.n * m}): "
      f"{jacobian_frobenius2(saturating, d):.4f}")
big = MimoDims(N_r=4, N_t=4, K=4, T=32, n=160)
m_big = big.N_t * big.K * big.T
big_enc = SaturatingEncoder(complex_normal(rng, (m_big, big.n)) / np.sqrt(big.n), 1.5,
                            big.signal_shape)
H = complex_normal(rng, (big.K, big.N_r, big.N_t))
lin = big_enc.linearize(rng.standard_normal(big.n))
j2, hj2 = lin.frobenius2(H)
J = lin.jacobian()
print(f"n*m = {big.n * m_big} Jacobian entries:")
print(f"  ||J||_F^2    closed form {j2:12.6f}, dense {np.linalg.norm(J) ** 2:12.6f}")
print(f"  ||H0 J||_F^2 closed form {hj2:12.6f}, dense "
      f"{np.linalg.norm(compound(H) @ J.reshape(big.N_t * big.K, -1)) ** 2:12.6f}")

# parameters survive a file round trip
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "saturating.npz")
    save_encoder(saturating, path)
    back = load_encoder(path)
print(f"file round-trip max |A - A'| = {np.max(np.abs(back.A - saturating.A)):.1e}, "
      f"gain {back.gain}")
