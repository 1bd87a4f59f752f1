"""Pilot pipeline: pilot construction, LMMSE estimates, two-stage decoding."""

import math

import numpy as np
import pytest

from pvdmimo.channel import MimoDims, complex_normal, draw_rayleigh
from pvdmimo.baselines import (
    lmmse_channel,
    make_pilots,
    oracle_lmmse,
    two_stage_decode,
)
from pvdmimo.encoder import LinearEncoder, SaturatingEncoder
from pvdmimo.priors import GaussianPrior


# --- pilots -------------------------------------------------------------------

def test_pilot_scalar():
    p = make_pilots(1, 1, 1.0)
    assert p.X_p.shape == (1, 1)
    assert abs(abs(p.X_p[0, 0]) - 1.0) < 1e-12


def test_pilot_dft_orthogonality():
    p = make_pilots(2, 2, 1.0)
    G = p.X_p @ p.X_p.conj().T
    assert np.allclose(G, 2.0 * np.eye(2), atol=1e-12)


def test_pilot_orthogonality_general():
    for N_t, N_p, P in [(2, 4, 1.0), (3, 8, 2.5), (4, 4, 0.5)]:
        p = make_pilots(N_t, N_p, P)
        assert np.allclose(p.X_p @ p.X_p.conj().T, N_p * P * np.eye(N_t), atol=1e-10)


def test_pilot_underdetermined_full_power():
    p = make_pilots(4, 2, 2.0)
    assert p.X_p.shape == (4, 2)
    assert np.allclose(np.abs(p.X_p) ** 2, 2.0)


def test_pilot_validation():
    with pytest.raises(ValueError):
        make_pilots(1, 0, 1.0)
    with pytest.raises(ValueError):
        make_pilots(1, 1, 0.0)


# --- LMMSE channel estimation ---------------------------------------------------

def test_lmmse_scalar_hand():
    # sigma_h2 = 1, x_p = 1, sigma_n2 = 1, y_p = 1 -> h = 0.5
    Y_p = np.array([[1.0 + 0j]])
    X_p = np.array([[1.0 + 0j]])
    H = lmmse_channel(Y_p, X_p, 1.0, 1.0)
    assert np.allclose(H, [[0.5]])


def test_lmmse_noiseless_exact():
    rng = np.random.default_rng(0)
    H_true = complex_normal(rng, (2, 3))
    p = make_pilots(3, 4, 1.0)
    Y_p = H_true @ p.X_p
    H = lmmse_channel(Y_p, p.X_p, 1.0, 0.0)
    assert np.allclose(H, H_true, atol=1e-10)


def test_lmmse_matches_analytic_nmse():
    # scalar case over 1000 trials: NMSE matches
    # sigma_h2 sigma_n2 / (sigma_h2 N_p P + sigma_n2) within 5%
    rng = np.random.default_rng(1)
    sigma_h2, sigma_n2, N_p, P = 1.0, 0.5, 4, 1.0
    p = make_pilots(1, N_p, P)
    err = 0.0
    trials = 1000
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), sigma_h2)
        Y_p = h @ p.X_p + complex_normal(rng, (1, N_p), sigma_n2)
        h_hat = lmmse_channel(Y_p, p.X_p, sigma_h2, sigma_n2)
        err += abs(h_hat[0, 0] - h[0, 0]) ** 2
    emp = err / trials
    analytic = sigma_h2 * sigma_n2 / (sigma_h2 * N_p * P + sigma_n2)
    assert abs(emp - analytic) <= 0.05 * analytic


def test_lmmse_block_stack():
    rng = np.random.default_rng(2)
    p = make_pilots(2, 4, 1.0)
    H_true = complex_normal(rng, (3, 2, 2))
    Y_p = np.einsum("krc,ct->krt", H_true, p.X_p)
    H = lmmse_channel(Y_p, p.X_p, 1.0, 0.0)
    assert H.shape == (3, 2, 2)
    assert np.allclose(H, H_true, atol=1e-10)


def test_lmmse_covariance_reduces_to_iid():
    rng = np.random.default_rng(3)
    p = make_pilots(2, 3, 1.0)
    H_true = complex_normal(rng, (2, 2))
    Y_p = H_true @ p.X_p + complex_normal(rng, (2, 3), 0.2)
    plain = lmmse_channel(Y_p, p.X_p, 1.0, 0.2)
    general = lmmse_channel(Y_p, p.X_p, 1.0, 0.2, Sigma=np.eye(4))
    assert np.allclose(plain, general, atol=1e-10)


# --- oracle LMMSE ------------------------------------------------------------------

def test_oracle_noiseless_exact():
    rng = np.random.default_rng(4)
    H_true = complex_normal(rng, (1, 2, 2))
    X = complex_normal(rng, (1, 2, 6))
    Y = np.einsum("krc,kct->krt", H_true, X)
    H = oracle_lmmse(Y, X, 1.0, 0.0)
    assert np.allclose(H, H_true, atol=1e-9)


def test_oracle_scalar_analytic_nmse():
    # 4000 trials keep the Monte Carlo standard error near 2% against the
    # 5% assertion band
    rng = np.random.default_rng(5)
    sigma_h2, sigma_n2, T, P = 1.0, 0.5, 8, 1.0
    err = 0.0
    trials = 4000
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), sigma_h2)
        x = np.sqrt(P) * np.exp(2j * np.pi * rng.random((1, T)))  # |x_t|^2 = P
        Y = h @ x + complex_normal(rng, (1, T), sigma_n2)
        h_hat = oracle_lmmse(Y, x, sigma_h2, sigma_n2)
        err += abs(h_hat[0, 0] - h[0, 0]) ** 2
    emp = err / trials
    analytic = sigma_h2 * sigma_n2 / (sigma_h2 * T * P + sigma_n2)
    assert abs(emp - analytic) <= 0.05 * analytic


def test_oracle_beats_pilot_on_same_trial():
    # N_p < T: the oracle sees more (and the actual) symbols
    rng = np.random.default_rng(6)
    sigma_n2, N_p, T = 0.3, 2, 10
    p = make_pilots(1, N_p, 1.0)
    wins = 0
    trials = 300
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), 1.0)
        x_d = complex_normal(rng, (1, T), 1.0)
        Y_p = h @ p.X_p + complex_normal(rng, (1, N_p), sigma_n2)
        Y_d = h @ x_d + complex_normal(rng, (1, T), sigma_n2)
        h_pilot = lmmse_channel(Y_p, p.X_p, 1.0, sigma_n2)
        h_orac = oracle_lmmse(Y_d, x_d, 1.0, sigma_n2)
        wins += (abs(h_orac[0, 0] - h[0, 0]) <= abs(h_pilot[0, 0] - h[0, 0]))
    assert wins / trials > 0.75


def test_oracle_covariance_matches_stacked_lmmse_channel():
    # per-block X with a full covariance: the stacked one-block pilot estimates, bit for bit
    rng = np.random.default_rng(8)
    K, N_r, N_t, T, s2 = 3, 2, 2, 5, 0.3
    R = np.array([[1.0, 0.4], [0.4, 1.0]])
    Sigma = np.kron(R.T, np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.0]]))
    X = complex_normal(rng, (K, N_t, T))
    Y = np.einsum("krc,kct->krt", complex_normal(rng, (K, N_r, N_t)), X) \
        + complex_normal(rng, (K, N_r, T), s2)
    stacked = np.stack([lmmse_channel(Y[k], X[k], 1, s2, Sigma=Sigma) for k in range(K)])
    assert np.array_equal(oracle_lmmse(Y, X, 1, s2, Sigma), stacked)


# --- two-stage decode ------------------------------------------------------------

def _linear_scene(rng, N_r=3, K=2, T=5, n=4):
    dims = MimoDims(N_r=N_r, N_t=1, K=K, T=T, n=n, P=1.0)
    A = complex_normal(rng, (K * T, n)) / math.sqrt(n)
    enc = LinearEncoder(A, (K, T))
    H = complex_normal(rng, (K, N_r, 1))
    d = rng.standard_normal(n)
    X = enc.encode(d).reshape(K, 1, T)
    Y = np.einsum("krc,kct->krt", H, X)
    return dims, enc, H, d, Y


def test_two_stage_exact_recovery():
    rng = np.random.default_rng(7)
    dims, enc, H, d, Y = _linear_scene(rng)
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    d_hat = two_stage_decode(Y, H, enc, prior, 0.0)
    assert np.allclose(d_hat, d, atol=1e-8)


def test_two_stage_zero_channel_returns_prior_mean():
    rng = np.random.default_rng(8)
    dims, enc, H, d, Y = _linear_scene(rng)
    prior = GaussianPrior(np.full(4, 0.7), 1.0, "real")
    d_hat = two_stage_decode(np.zeros_like(Y), np.zeros_like(H), enc, prior, 0.5)
    assert np.allclose(d_hat, 0.7)


def test_two_stage_matches_normal_equations_oracle():
    # independent oracle: build the composite map column by column through
    # encode, then solve the regularized normal equations directly
    rng = np.random.default_rng(9)
    dims, enc, H, d, Y = _linear_scene(rng, N_r=2, K=1, T=4, n=2)
    sn2 = 0.3
    Yn = Y + complex_normal(rng, Y.shape, sn2)
    prior = GaussianPrior(np.array([0.2, -0.4]), 1.5, "real")
    got = two_stage_decode(Yn, H, enc, prior, sn2)

    cols = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        Xi = enc.encode(e).reshape(1, 1, 4)
        cols.append(np.einsum("krc,kct->krt", H, Xi).ravel())
    B = np.stack(cols, axis=1)
    Br = np.vstack([B.real, B.imag])
    yr = np.concatenate([Yn.ravel().real, Yn.ravel().imag])
    mu = prior.mean
    lhs = Br.T @ Br + (sn2 / 2.0) / prior.var0 * np.eye(2)
    want = mu + np.linalg.solve(lhs, Br.T @ (yr - Br @ mu))
    assert np.max(np.abs(got - want)) < 1e-8


def test_two_stage_rejects_nonlinear_encoder():
    rng = np.random.default_rng(10)
    enc = SaturatingEncoder(complex_normal(rng, (10, 4)), 1.0, (2, 5))
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    with pytest.raises(TypeError):
        two_stage_decode(np.zeros((2, 5), complex), np.zeros((1, 2, 2), complex),
                         enc, prior, 0.1)


# --- estimator comparison invariant ----------------------------------------------

def test_lmmse_beats_ls_and_zero_under_matched_prior():
    rng = np.random.default_rng(11)
    sigma_h2, sigma_n2, N_p = 1.0, 1.0, 3
    p = make_pilots(2, N_p, 1.0)
    se = {"lmmse": 0.0, "ls": 0.0, "zero": 0.0}
    trials = 400
    for _ in range(trials):
        H = complex_normal(rng, (2, 2), sigma_h2)
        Y_p = H @ p.X_p + complex_normal(rng, (2, N_p), sigma_n2)
        H_lmmse = lmmse_channel(Y_p, p.X_p, sigma_h2, sigma_n2)
        H_ls = Y_p @ p.X_p.conj().T @ np.linalg.inv(p.X_p @ p.X_p.conj().T)
        se["lmmse"] += np.linalg.norm(H_lmmse - H) ** 2
        se["ls"] += np.linalg.norm(H_ls - H) ** 2
        se["zero"] += np.linalg.norm(H) ** 2
    assert se["lmmse"] < se["ls"]
    assert se["lmmse"] < se["zero"]
