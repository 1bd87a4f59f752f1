"""Reverse-diffusion recovery on a conjugate test bed.

With a near-delta channel prior (the channel is effectively known), a
linear encoder, and a Gaussian source prior, the exact posterior mean of
the source is closed-form. The diffusion engine should land on it; this
script runs a handful of trials and reports the relative gap, plus the
per-step residual trace of one run.
"""

import numpy as np

from pvdmimo import (
    GaussianPrior,
    LinearEncoder,
    MimoDims,
    NoiseSchedule,
    PvdConfig,
    complex_normal,
    run,
)


def conjugate_mmse(Y, H, A, var_d, sn2):
    cols = A.reshape(1, 1, Y.shape[1], A.shape[1])
    B = np.einsum("krc,kctn->krtn", H, cols).reshape(-1, A.shape[1])
    Br = np.vstack([B.real, B.imag])
    yr = np.concatenate([Y.ravel().real, Y.ravel().imag])
    return np.linalg.solve(Br.T @ Br + (sn2 / 2) / var_d * np.eye(A.shape[1]), Br.T @ yr)


config = PvdConfig(
    schedule_H=NoiseSchedule(1e-3, 10.0, 30),
    schedule_D=NoiseSchedule(0.01, 10.0, 30),
    J_in=20, L=1, zeta_H=0.06, zeta_D=0.06,
)

print("seed | rel gap to closed-form MMSE")
for seed in range(5):
    rng = np.random.default_rng(seed)
    H = complex_normal(rng, (1, 4, 1), 1.0)
    A = complex_normal(rng, (16, 8), 1.0) / np.sqrt(8)
    enc = LinearEncoder(A, (1, 16))
    d_true = rng.standard_normal(8)
    X = enc.encode(d_true)
    sig = np.einsum("krc,kct->krt", H, X.reshape(1, 1, 16)).reshape(4, 16)
    sn2 = np.linalg.norm(sig) ** 2 / (64 * 100)  # SNR 20 dB
    Y = sig + complex_normal(rng, (4, 16), sn2)
    dims = MimoDims(N_r=4, N_t=1, K=1, T=16, n=8, P=1.0, sigma_n2=sn2)

    result = run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
                 GaussianPrior(np.zeros(8), 1.0, "real"), dims, config, rng)
    d_mmse = conjugate_mmse(Y, H, A, 1.0, sn2)
    rel = np.linalg.norm(result.sources[0] - d_mmse) / np.linalg.norm(d_mmse)
    print(f"  {seed}  | {rel:.4f}")

print("\nper-step residual of the last run (sigma anneals down, fit tightens):")
for rec in result.diagnostics[::5] + [result.diagnostics[-1]]:
    print(f"  j={rec.j:2d}  sigma_D={rec.sigma_D:8.4f}  residual={rec.residual:10.4f}")
print(f"noise floor ||N||_F ~ {np.sqrt(sn2 * 64):.4f}")
