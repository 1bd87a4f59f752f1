"""Source encoders and their exact gradients.

The recovery engine needs two things from an encoder: the forward map and
an exact vector-Jacobian product. This script checks both against finite
differences, demonstrates the power constraint, and round-trips encoder
parameters through the text file format.
"""

import tempfile

import numpy as np

from pvdmimo import (
    LinearEncoder,
    MimoDims,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    complex_normal,
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

# Jacobian energy: exact vs Hutchinson probes through the vjp
exact = jacobian_frobenius2(saturating, d)
est = jacobian_frobenius2(saturating, d, probes=2000,
                          rng=np.random.default_rng(5), exact_threshold=0)
print(f"||J||_F^2 exact {exact:.4f}, Hutchinson (2000 probes) {est:.4f}")

# parameters survive a file round trip
with tempfile.NamedTemporaryFile(suffix=".txt", mode="w", delete=False) as fh:
    path = fh.name
save_encoder(saturating, path)
back = load_encoder(path)
print(f"file round-trip max |A - A'| = {np.max(np.abs(back.A - saturating.A)):.1e}, "
      f"gain {back.gain}")
