"""Fully blind joint recovery: neither channel nor source known.

The bilinear observation Y = H f(D) + N has a scale/phase ambiguity under
uninformative priors; a nonzero-mean channel prior and a bimodal source
prior break it. The run is compared against an exhaustive grid MAP with
the channel profiled in closed form at every grid point.
"""

import numpy as np

from pvdmimo import (
    GaussianMixturePrior,
    GaussianPrior,
    LinearEncoder,
    MimoDims,
    NoiseSchedule,
    PvdConfig,
    complex_normal,
    run,
)


def grid_map(Y, A, mu_H, var_H, sn2, means, mix_var, npts=200):
    g = np.linspace(-3.0, 3.0, npts)
    D1, D2 = np.meshgrid(g, g, indexing="ij")
    Dg = np.stack([D1.ravel(), D2.ravel()])
    Xg = A @ Dg
    xnorm2 = np.sum(np.abs(Xg) ** 2, axis=0)
    num = Y.conj() @ Xg
    Hstar = (var_H * num.conj() + sn2 * mu_H) / (var_H * xnorm2 + sn2)
    cross = np.real(np.sum(Hstar * num, axis=0))
    resid2 = np.sum(np.abs(Y) ** 2) - 2 * cross + np.sum(np.abs(Hstar) ** 2, axis=0) * xnorm2
    lp = -resid2 / sn2 - np.sum(np.abs(Hstar - mu_H) ** 2, axis=0) / var_H
    q1 = np.sum((Dg - means[0][:, None]) ** 2, axis=0) / (2 * mix_var)
    q2 = np.sum((Dg - means[1][:, None]) ** 2, axis=0) / (2 * mix_var)
    lp += np.logaddexp(-q1, -q2)
    best = int(np.argmax(lp))
    return Dg[:, best], Hstar[:, best]


mu_H, var_H, mix_var = 1.0 + 0.5j, 0.1, 0.25
means = np.array([[1.5, 1.5], [-1.5, -1.5]])
config = PvdConfig(
    schedule_H=NoiseSchedule(0.01, 10.0, 30),
    schedule_D=NoiseSchedule(0.01, 10.0, 30),
    J_in=20, L=1, zeta_H=0.06, zeta_D=0.06,
)

print("seed | true D          | blind D_hat      | grid-MAP D       | H gap")
for seed in range(5):
    rng = np.random.default_rng(seed)
    H = mu_H + complex_normal(rng, (1, 2, 1), var_H)
    A = complex_normal(rng, (8, 2), 1.0) / np.sqrt(2)
    enc = LinearEncoder(A, (1, 8))
    mix = GaussianMixturePrior(means, mix_var, [0.5, 0.5], "real")
    d_true = mix.sample(rng)
    X = enc.encode(d_true)
    sig = np.einsum("krc,kct->krt", H, X.reshape(1, 1, 8)).reshape(2, 8)
    sn2 = np.linalg.norm(sig) ** 2 / (16 * 10 ** 1.5)  # SNR 15 dB
    Y = sig + complex_normal(rng, (2, 8), sn2)
    dims = MimoDims(N_r=2, N_t=1, K=1, T=8, n=2, P=1.0, sigma_n2=sn2)

    result = run(Y, enc, GaussianPrior(np.full((1, 2, 1), mu_H), var_H, "complex"),
                 mix, dims, config, rng)
    d_map, h_map = grid_map(Y, A, mu_H, var_H, sn2, means, mix_var)
    h_gap = np.linalg.norm(result.channels[0].ravel() - h_map) / np.linalg.norm(h_map)
    fmt = lambda v: "[" + " ".join(f"{x:+.2f}" for x in v) + "]"
    print(f"  {seed}  | {fmt(d_true)} | {fmt(result.sources[0])} | {fmt(d_map)} | {h_gap:.3f}")

print("\nno pilots were transmitted; the channel prior mean anchors the phase.")
