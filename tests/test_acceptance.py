"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
Every tolerance is pinned here; the independent oracles (finite differences,
closed-form Gaussian posteriors, exhaustive grid search, analytic LMMSE
error) are implemented inside this module so they cannot drift with the
library code they check.
"""

import functools
import math
import time

import numpy as np
import pytest

from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import LinearEncoder
from pvdmimo.priors import GaussianMixturePrior, GaussianPrior
from pvdmimo.pvd import NoiseSchedule, PvdConfig, error_variances, run, tweedie
from pvdmimo.baselines import lmmse_channel, make_pilots, oracle_lmmse
from pvdmimo.metrics import cbr, nmse_db
from pvdmimo.harness import run_experiment


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {name} {detail}"


# -----------------------------------------------------------------------------
# 1. CBR exactness
# -----------------------------------------------------------------------------

def test_criterion_1_cbr_exactness():
    t0 = time.perf_counter()
    vals = [
        round(cbr(MimoDims(N_r=64, N_t=8, K=24, T=24, n=196_608), 24), 4),
        round(cbr(MimoDims(N_r=64, N_t=8, K=24, T=24, n=196_608), 8), 4),
        round(cbr(MimoDims(N_r=64, N_t=8, K=72, T=24, n=196_608), 8), 4),
    ]
    ok = vals == [0.0234, 0.0703, 0.2109]
    _report(1, "CBR reproduces 0.0234 / 0.0703 / 0.2109 exactly", ok,
            f"got {vals}, {time.perf_counter() - t0:.2f}s")


# -----------------------------------------------------------------------------
# 2. Score correctness (finite-difference oracle)
# -----------------------------------------------------------------------------

def _fd_gradient(prior, x, sigma, h=1e-5):
    if prior.domain == "complex":
        g = np.zeros_like(x, dtype=complex)
        for i in range(x.size):
            er = np.zeros_like(x); er.flat[i] = h
            ei = np.zeros_like(x); ei.flat[i] = 1j * h
            da = (prior.smoothed_log_density(x + er, sigma)
                  - prior.smoothed_log_density(x - er, sigma)) / (2 * h)
            db = (prior.smoothed_log_density(x + ei, sigma)
                  - prior.smoothed_log_density(x - ei, sigma)) / (2 * h)
            g.flat[i] = 0.5 * (da + 1j * db)
        return g
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x); e.flat[i] = h
        g.flat[i] = (prior.smoothed_log_density(x + e, sigma)
                     - prior.smoothed_log_density(x - e, sigma)) / (2 * h)
    return g


def _fd_trace(prior, x, sigma, h=1e-3):
    f0 = prior.smoothed_log_density(x, sigma)
    steps = (h,) if prior.domain == "real" else (h, 1j * h)
    total = 0.0
    for i in range(x.size):
        for step in steps:
            e = np.zeros_like(x, dtype=x.dtype)
            e.flat[i] = step
            total += (prior.smoothed_log_density(x + e, sigma) - 2 * f0
                      + prior.smoothed_log_density(x - e, sigma)) / h**2
    return total if prior.domain == "real" else 0.25 * total


def test_criterion_2_score_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    priors = [
        ("gauss-real", GaussianPrior(rng.normal(size=6), 0.8, "real"),
         lambda: rng.normal(size=6)),
        ("gauss-cplx", GaussianPrior(rng.normal(size=4) + 1j * rng.normal(size=4),
                                     1.2, "complex"),
         lambda: rng.normal(size=4) + 1j * rng.normal(size=4)),
        ("mix-real", GaussianMixturePrior(rng.normal(size=(3, 5)), 0.6,
                                          [0.2, 0.5, 0.3], "real"),
         lambda: rng.normal(size=5)),
        ("mix-cplx", GaussianMixturePrior(
            rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)), 0.9,
            [0.4, 0.6], "complex"),
         lambda: rng.normal(size=4) + 1j * rng.normal(size=4)),
    ]
    worst_g = worst_t = 0.0
    ok = True
    for sigma in (0.0, 0.1, 1.0, 10.0):
        for name, prior, draw in priors:
            for _ in range(3):
                x = draw()
                g = prior.first_order(x, sigma)
                g_fd = _fd_gradient(prior, x, sigma)
                rel_g = np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g_fd)))
                tr = prior.second_order_trace(x, sigma)
                tr_fd = _fd_trace(prior, x, sigma)
                rel_t = abs(tr - tr_fd) / (1.0 + abs(tr_fd))
                worst_g = max(worst_g, rel_g)
                worst_t = max(worst_t, rel_t)
                ok = ok and rel_g <= 1e-5 and rel_t <= 1e-4
    _report(2, "scores match finite differences (1e-5 / 1e-4)", ok,
            f"worst grad {worst_g:.2e}, worst trace {worst_t:.2e}, "
            f"{time.perf_counter() - t0:.2f}s")


# -----------------------------------------------------------------------------
# 3. Conjugate-Gaussian exactness
# -----------------------------------------------------------------------------

def test_criterion_3_conjugate_gaussian_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for var0 in (0.25, 1.0, 3.0):
        for sigma in (0.1, 1.0, 2.5):
            mean_c = complex_normal(rng, (1, 2, 2))
            mean_r = rng.normal(size=5)
            pH = GaussianPrior(mean_c, var0, "complex")
            pD = GaussianPrior(mean_r, var0, "real")
            H_j = complex_normal(rng, (1, 2, 2), 4.0)
            D_j = rng.normal(size=5) * 2.0
            H0, D0 = tweedie(pH, pD, H_j, D_j, sigma, sigma)
            shrink = var0 / (var0 + sigma**2)
            H_want = mean_c + shrink * (H_j - mean_c)
            D_want = mean_r + shrink * (D_j - mean_r)
            vH, vD = error_variances(pH, pD, H_j, D_j, sigma, sigma)
            v_want = var0 * sigma**2 / (var0 + sigma**2)
            errs = [np.max(np.abs(H0 - H_want)), np.max(np.abs(D0 - D_want)),
                    abs(vH - v_want), abs(vD - v_want)]
            worst = max(worst, max(errs))
            ok = ok and max(errs) <= 1e-10
    _report(3, "Tweedie mean and error variance match closed form (1e-10)", ok,
            f"worst {worst:.2e}, {time.perf_counter() - t0:.2f}s")


# -----------------------------------------------------------------------------
# 4. Known-channel recovery vs closed-form MMSE
# -----------------------------------------------------------------------------

def _conjugate_mmse(Y, H_blocks, A, var_d, sn2):
    K, N_r, N_t = H_blocks.shape
    T, n = Y.shape[1], A.shape[1]
    cols = A.reshape(K, N_t, T, n)
    B = np.einsum("krc,kctn->krtn", H_blocks, cols).reshape(K * N_r * T, n)
    Br = np.vstack([B.real, B.imag])
    yr = np.concatenate([Y.ravel().real, Y.ravel().imag])
    return np.linalg.solve(Br.T @ Br + (sn2 / 2.0) / var_d * np.eye(n), Br.T @ yr)


def _known_channel_trial(seed, snr_db=20.0):
    rng = np.random.default_rng(seed)
    H = complex_normal(rng, (1, 4, 1), 1.0)
    A = complex_normal(rng, (16, 8), 1.0) / math.sqrt(8)
    enc = LinearEncoder(A, (1, 16))
    d_true = rng.standard_normal(8)
    X = enc.encode(d_true)
    sig = np.einsum("krc,kct->krt", H, X.reshape(1, 1, 16)).reshape(4, 16)
    sn2 = np.linalg.norm(sig) ** 2 / (64 * 10 ** (snr_db / 10.0))
    Y = sig + complex_normal(rng, (4, 16), sn2)
    dims = MimoDims(N_r=4, N_t=1, K=1, T=16, n=8, P=1.0, sigma_n2=sn2)
    return rng, dims, H, A, enc, d_true, Y, sn2


_CRIT4_CFG = dict(J=30, J_in=20, zeta=0.06, s1_H=1e-3, s1_D=0.01, sJ=10.0)


def _crit4_pvd_config():
    c = _CRIT4_CFG
    return PvdConfig(schedule_H=NoiseSchedule(c["s1_H"], c["sJ"], c["J"]),
                     schedule_D=NoiseSchedule(c["s1_D"], c["sJ"], c["J"]),
                     J_in=c["J_in"], L=1, zeta_H=c["zeta"], zeta_D=c["zeta"])


def test_criterion_4_known_channel_recovery():
    t0 = time.perf_counter()
    hits = 0
    trials = 100
    for seed in range(trials):
        rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_trial(seed)
        res = run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
                  GaussianPrior(np.zeros(8), 1.0, "real"),
                  dims, _crit4_pvd_config(), rng)
        d_mmse = _conjugate_mmse(Y, H, A, 1.0, sn2)
        rel = np.linalg.norm(res.sources[0] - d_mmse) / np.linalg.norm(d_mmse)
        hits += rel < 0.05
    ok = hits >= 90
    _report(4, "PVD within 5% of closed-form MMSE in >= 90/100 trials", ok,
            f"{hits}/100 hits, {time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 5. Blind scalar identifiability vs brute-force grid MAP
# -----------------------------------------------------------------------------

def _grid_map(Y, A, mu_H, var_H, sn2, mix_means, mix_var, lo=-3.0, hi=3.0, npts=200):
    """Exhaustive 200x200 grid over the 2-D source; the channel is profiled
    in closed form at every grid point (quadratic maximization)."""
    g = np.linspace(lo, hi, npts)
    D1, D2 = np.meshgrid(g, g, indexing="ij")
    Dg = np.stack([D1.ravel(), D2.ravel()])              # (2, G)
    Xg = A @ Dg                                          # (T, G)
    xnorm2 = np.sum(np.abs(Xg) ** 2, axis=0)
    num = Y.conj() @ Xg                                  # (N_r, G): sum_t conj(y) x
    Hstar = (var_H * num.conj() + sn2 * mu_H) / (var_H * xnorm2 + sn2)
    cross = np.real(np.sum(Hstar * num, axis=0))
    resid2 = (np.sum(np.abs(Y) ** 2) - 2 * cross
              + np.sum(np.abs(Hstar) ** 2, axis=0) * xnorm2)
    lp = -resid2 / sn2 - np.sum(np.abs(Hstar - mu_H) ** 2, axis=0) / var_H
    # mixture log prior, vectorized over the grid
    q1 = np.sum((Dg - mix_means[0][:, None]) ** 2, axis=0) / (2 * mix_var)
    q2 = np.sum((Dg - mix_means[1][:, None]) ** 2, axis=0) / (2 * mix_var)
    lp += np.logaddexp(np.log(0.5) - q1, np.log(0.5) - q2)
    best = int(np.argmax(lp))
    return Dg[:, best], Hstar[:, best]


def test_criterion_5_blind_scalar_identifiability():
    t0 = time.perf_counter()
    mu_H = 1.0 + 0.5j
    var_H, mix_var, snr_db = 0.1, 0.25, 15.0
    means = np.array([[1.5, 1.5], [-1.5, -1.5]])
    cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 10.0, 30),
                    schedule_D=NoiseSchedule(0.01, 10.0, 30),
                    J_in=20, L=1, zeta_H=0.06, zeta_D=0.06)
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        H = mu_H + complex_normal(rng, (1, 2, 1), var_H)
        A = complex_normal(rng, (8, 2), 1.0) / math.sqrt(2)
        enc = LinearEncoder(A, (1, 8))
        mix = GaussianMixturePrior(means, mix_var, [0.5, 0.5], "real")
        d_true = mix.sample(rng)
        X = enc.encode(d_true)
        sig = np.einsum("krc,kct->krt", H, X.reshape(1, 1, 8)).reshape(2, 8)
        sn2 = np.linalg.norm(sig) ** 2 / (16 * 10 ** (snr_db / 10.0))
        Y = sig + complex_normal(rng, (2, 8), sn2)
        dims = MimoDims(N_r=2, N_t=1, K=1, T=8, n=2, P=1.0, sigma_n2=sn2)
        res = run(Y, enc, GaussianPrior(np.full((1, 2, 1), mu_H), var_H, "complex"),
                  mix, dims, cfg, rng)
        d_map, h_map = _grid_map(Y, A, mu_H, var_H, sn2, means, mix_var)
        relD = np.linalg.norm(res.sources[0] - d_map) / np.linalg.norm(d_map)
        relH = np.linalg.norm(res.channels[0].ravel() - h_map) / np.linalg.norm(h_map)
        hits += (relD < 0.10) and (relH < 0.10)
    ok = hits >= 80
    _report(5, "blind 2x1 recovery within 10% of grid MAP in >= 80/100 trials", ok,
            f"{hits}/100 hits, {time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 6. Oracle-gap: blind channel NMSE vs oracle LMMSE at SNR 10 dB
# -----------------------------------------------------------------------------

# A trial depends on its arguments alone (default_rng(seed)), so criterion 9's
# SNR-10 set reuses criterion 6's decodes when both run in one session.
@functools.cache
def _blind_channel_trial(seed, snr_db):
    rng = np.random.default_rng(seed)
    H = complex_normal(rng, (1, 4, 1), 1.0)
    A = complex_normal(rng, (16, 8), 1.0) / math.sqrt(8)
    enc = LinearEncoder(A, (1, 16))
    d_true = rng.standard_normal(8)
    X = enc.encode(d_true)
    sig = np.einsum("krc,kct->krt", H, X.reshape(1, 1, 16)).reshape(4, 16)
    sn2 = np.linalg.norm(sig) ** 2 / (64 * 10 ** (snr_db / 10.0))
    Y = sig + complex_normal(rng, (4, 16), sn2)
    dims = MimoDims(N_r=4, N_t=1, K=1, T=16, n=8, P=1.0, sigma_n2=sn2)
    cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 10.0, 30),
                    schedule_D=NoiseSchedule(0.01, 10.0, 30),
                    J_in=20, L=1, zeta_H=0.06, zeta_D=0.06)
    res = run(Y, enc, GaussianPrior(np.zeros((1, 4, 1), complex), 1.0, "complex"),
              GaussianPrior(d_true, 1e-4, "real"), dims, cfg, rng)
    pvd_nmse = nmse_db([H], [res.channels[0]])
    H_o = oracle_lmmse(Y.reshape(1, 4, 16), X.reshape(1, 1, 16), 1.0, sn2)
    return pvd_nmse, nmse_db([H], [H_o])


def test_criterion_6_oracle_gap():
    t0 = time.perf_counter()
    trials = 300
    pvd_vals, oracle_vals = [], []
    for seed in range(trials):
        p, o = _blind_channel_trial(seed, 10.0)
        pvd_vals.append(p)
        oracle_vals.append(o)
    gap = float(np.median(pvd_vals) - np.median(oracle_vals))
    ok = gap <= 3.0
    _report(6, "median blind-channel NMSE within 3 dB of oracle LMMSE", ok,
            f"gap {gap:.2f} dB over {trials} trials, {time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 7. Pilot-LMMSE analytics
# -----------------------------------------------------------------------------

def test_criterion_7_lmmse_analytics():
    # The empirical NMSE over 1000 trials has ~3.2% Monte Carlo standard
    # error; the pinned seed sits at the median of the seed distribution
    # (~1.9% deviation), comfortably inside the 5% gate.
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sigma_h2, sigma_n2, N_p, P = 1.0, 0.5, 4, 1.0
    pilot = make_pilots(1, N_p, P)
    err = 0.0
    trials = 1000
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), sigma_h2)
        Y_p = h @ pilot + complex_normal(rng, (1, N_p), sigma_n2)
        h_hat = lmmse_channel(Y_p, pilot, sigma_h2, sigma_n2)
        err += abs(h_hat[0, 0] - h[0, 0]) ** 2
    emp = err / trials
    analytic = sigma_h2 * sigma_n2 / (sigma_h2 * N_p * P + sigma_n2)
    rel = abs(emp - analytic) / analytic
    ok = rel <= 0.05
    _report(7, "pilot-LMMSE NMSE matches analytic error within 5% (1000 trials)",
            ok, f"rel dev {rel:.3f}, {time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 8. Multi-user degeneracy
# -----------------------------------------------------------------------------

def test_criterion_8_multi_user_degeneracy():
    t0 = time.perf_counter()
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_trial(11)
    pH = GaussianPrior(H, 1e-6, "complex")
    pD = GaussianPrior(np.zeros(8), 1.0, "real")
    cfg = _crit4_pvd_config()
    res_single = run(Y, enc, pH, pD, dims, cfg, np.random.default_rng(123))
    res_multi = run(Y, [enc], [pH], [pD], dims, cfg, np.random.default_rng(123))
    ok = (np.array_equal(res_single.channels[0], res_multi.channels[0])
          and np.array_equal(res_single.sources[0], res_multi.sources[0])
          and res_single.residual == res_multi.residual)
    _report(8, "N_u=1 multi-user path bit-identical to single-user path", ok,
            f"{time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 9. Monotonic SNR trend
# -----------------------------------------------------------------------------

def test_criterion_9_monotonic_snr_trend():
    t0 = time.perf_counter()
    trials = 300
    medians = []
    for snr in (0.0, 10.0, 20.0):
        vals = [_blind_channel_trial(seed, snr)[0] for seed in range(trials)]
        medians.append(float(np.median(vals)))
    ok = medians[0] > medians[1] > medians[2]
    _report(9, "median PVD NMSE strictly decreases over SNR {0, 10, 20} dB", ok,
            f"medians {[round(m, 2) for m in medians]} dB, "
            f"{time.perf_counter() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 10. Determinism and robustness
# -----------------------------------------------------------------------------

def test_criterion_10_determinism_and_robustness(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "dims": {"N_r": 2, "N_t": 1, "K": 1, "T": 8, "N_u": 1, "n": 3, "P": 1.0},
        "prior_channel": {"type": "gaussian", "mean": "truth", "var": 1e-6},
        "pvd": {"enabled": True, "J": 10, "J_in": 5,
                "sigma1_H": 1e-3, "sigmaJ_H": 10.0,
                "sigma1_D": 0.01, "sigmaJ_D": 10.0,
                "zeta_H": 0.06, "zeta_D": 0.06},
        "baselines": {"lmmse": False, "oracle_lmmse": False, "N_p": 2},
        "snr_db": [10.0, 20.0],
        "trials": 4,
        "seed": 31337,
    }
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(dict(cfg), out=p1)
    run_experiment(dict(cfg), out=p2)
    identical = p1.read_bytes() == p2.read_bytes()

    p3 = tmp_path / "forced.csv"
    run_experiment(dict(cfg, force_error_trials=[[1, 2]]), out=p3)
    base_lines = p1.read_text().splitlines()
    forced_lines = p3.read_text().splitlines()
    same_count = len(base_lines) == len(forced_lines)
    flagged, others_same = 0, True
    for b, f in zip(base_lines[1:], forced_lines[1:]):
        if f != b:
            # must be the forced trial's row, carrying a non-empty error field
            flagged += 1
            others_same = others_same and "forced divergent trial" in f
    ok = identical and same_count and flagged == 1 and others_same
    _report(10, "byte-identical CSV; forced-divergent trial isolated to one "
                "error-flagged row", ok,
            f"flagged rows {flagged}, {time.perf_counter() - t0:.1f}s")
