"""Pilot pipeline: pilot construction, LMMSE estimates, two-stage decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    X_p = make_pilots(1, 1, 1.0)
    assert X_p.shape == (1, 1)
    assert abs(abs(X_p[0, 0]) - 1.0) < 1e-12


def test_pilot_dft_orthogonality():
    X_p = make_pilots(2, 2, 1.0)
    G = X_p @ X_p.conj().T
    assert np.allclose(G, 2.0 * np.eye(2), atol=1e-12)


def test_pilot_orthogonality_general():
    for N_t, N_p, P in [(2, 4, 1.0), (3, 8, 2.5), (4, 4, 0.5)]:
        X_p = make_pilots(N_t, N_p, P)
        assert np.allclose(X_p @ X_p.conj().T, N_p * P * np.eye(N_t), atol=1e-10)


def test_pilot_underdetermined_full_power():
    X_p = make_pilots(4, 2, 2.0)
    assert X_p.shape == (4, 2)
    assert np.allclose(np.abs(X_p) ** 2, 2.0)


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
    X_p = make_pilots(3, 4, 1.0)
    Y_p = H_true @ X_p
    H = lmmse_channel(Y_p, X_p, 1.0, 0.0)
    assert np.allclose(H, H_true, atol=1e-10)


def test_lmmse_matches_analytic_nmse():
    # scalar case over 1000 trials: NMSE matches
    # sigma_h2 sigma_n2 / (sigma_h2 N_p P + sigma_n2) within 5%
    rng = np.random.default_rng(1)
    sigma_h2, sigma_n2, N_p, P = 1.0, 0.5, 4, 1.0
    X_p = make_pilots(1, N_p, P)
    err = 0.0
    trials = 1000
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), sigma_h2)
        Y_p = h @ X_p + complex_normal(rng, (1, N_p), sigma_n2)
        h_hat = lmmse_channel(Y_p, X_p, sigma_h2, sigma_n2)
        err += abs(h_hat[0, 0] - h[0, 0]) ** 2
    emp = err / trials
    analytic = sigma_h2 * sigma_n2 / (sigma_h2 * N_p * P + sigma_n2)
    assert abs(emp - analytic) <= 0.05 * analytic


def test_lmmse_block_stack():
    rng = np.random.default_rng(2)
    X_p = make_pilots(2, 4, 1.0)
    H_true = complex_normal(rng, (3, 2, 2))
    Y_p = np.einsum("krc,ct->krt", H_true, X_p)
    H = lmmse_channel(Y_p, X_p, 1.0, 0.0)
    assert H.shape == (3, 2, 2)
    assert np.allclose(H, H_true, atol=1e-10)


def test_lmmse_covariance_reduces_to_iid():
    rng = np.random.default_rng(3)
    X_p = make_pilots(2, 3, 1.0)
    H_true = complex_normal(rng, (2, 2))
    Y_p = H_true @ X_p + complex_normal(rng, (2, 3), 0.2)
    plain = lmmse_channel(Y_p, X_p, 1.0, 0.2)
    general = lmmse_channel(Y_p, X_p, 1.0, 0.2, Sigma=np.eye(4))
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
    X_p = make_pilots(1, N_p, 1.0)
    wins = 0
    trials = 300
    for _ in range(trials):
        h = complex_normal(rng, (1, 1), 1.0)
        x_d = complex_normal(rng, (1, T), 1.0)
        Y_p = h @ X_p + complex_normal(rng, (1, N_p), sigma_n2)
        Y_d = h @ x_d + complex_normal(rng, (1, T), sigma_n2)
        h_pilot = lmmse_channel(Y_p, X_p, 1.0, sigma_n2)
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


def _dense_lmmse(Y, X, Sigma, sigma_n2):
    """One block by the (N_r L)-sized formula Sigma A^H (A Sigma A^H + sigma_n2 I)^-1 vec(Y),
    A = X^T kron I_{N_r} over the column-major vec(H)."""
    N_r, N_t = Y.shape[0], X.shape[0]
    A = np.kron(X.T, np.eye(N_r))
    C = A @ Sigma @ A.conj().T + sigma_n2 * np.eye(A.shape[0])
    h = Sigma @ A.conj().T @ np.linalg.solve(C, Y.reshape(-1, order="F"))
    return h.reshape(N_r, N_t, order="F")


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 4), N_r=st.integers(1, 4), N_t=st.integers(1, 3), L=st.integers(1, 6),
       sigma_n2=st.floats(0.05, 2.0), sigma_h2=st.floats(0.5, 2.0),
       prior=st.sampled_from(["iid", "pd", "psd"]),
       form=st.sampled_from(["one-block", "shared-X", "per-block-X"]),
       seed=st.integers(0, 2**32 - 1))
def test_lmmse_matches_dense_formula_over_shapes(K, N_r, N_t, L, sigma_n2, sigma_h2, prior,
                                                 form, seed):
    rng = np.random.default_rng(seed)
    m = N_r * N_t
    if prior == "iid":
        Sigma, Sigma_dense = None, sigma_h2 * np.eye(m)
    else:  # PD, or PSD of rank m - 1 (zero at m = 1)
        B = complex_normal(rng, (m, m if prior == "pd" else m - 1))
        Sigma = Sigma_dense = B @ B.conj().T / m
    if form == "one-block":
        K = 1
    X = complex_normal(rng, (K, N_t, L))
    if form != "per-block-X":
        X[:] = X[0]
    Y = complex_normal(rng, (K, N_r, L))
    want = np.stack([_dense_lmmse(Yk, Xk, Sigma_dense, sigma_n2) for Yk, Xk in zip(Y, X)])
    if form == "one-block":
        got = lmmse_channel(Y[0], X[0], sigma_h2, sigma_n2, Sigma=Sigma)[None]
        # one (N_r, L) block is the stacked (1, N_r, L) call with no block axis
        assert np.array_equal(got, lmmse_channel(Y, X[0], sigma_h2, sigma_n2, Sigma=Sigma))
    elif form == "shared-X":
        got = lmmse_channel(Y, X[0], sigma_h2, sigma_n2, Sigma=Sigma)
        # a shared (N_t, L) X is the per-block X with every block equal
        assert np.array_equal(got, oracle_lmmse(Y, X, sigma_h2, sigma_n2, Sigma))
    else:
        got = oracle_lmmse(Y, X, sigma_h2, sigma_n2, Sigma)
    assert got.shape == (K, N_r, N_t)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_lmmse_rejects_wrong_shape_covariance():
    X_p = make_pilots(2, 3, 1.0)
    Y_p = np.zeros((4, 2, 3), complex)
    for bad in (np.eye(2), np.eye(4)[:, :3], np.eye(8)):  # N_r N_t = 4
        with pytest.raises(ValueError, match="Sigma must be 4x4"):
            lmmse_channel(Y_p, X_p, 1.0, 0.1, Sigma=bad)


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


def _two_stage_peak(sigma_n2):
    """tracemalloc peak of one decode at the medium workload's pilot shape, over
    the bytes of the pilot matrix A."""
    import tracemalloc
    rng = np.random.default_rng(0)
    K, N_r, N_t, T_d, n = 8, 16, 4, 20, 512
    enc = LinearEncoder(complex_normal(rng, (N_t * K * T_d, n)), (N_t * K, T_d))
    H, Y = complex_normal(rng, (K, N_r, N_t)), complex_normal(rng, (K, N_r, T_d))
    prior = GaussianPrior(np.zeros(n), 1.0, "real")
    tracemalloc.start()
    try:
        two_stage_decode(Y, H, enc, prior, sigma_n2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / enc.A.nbytes


def test_two_stage_holds_one_full_size_array_at_its_peak():
    # It used to peak at 2.00x the pilot matrix: the complex W = R_k A_kt beside
    # its real stack Wr (1x each), then Wr beside the Gram. Now Wr is filled one
    # channel block at a time at this shape and dropped before the solve (1.41x).
    assert _two_stage_peak(0.1) <= 1.6


def test_two_stage_least_squares_holds_one_full_size_array_at_its_peak():
    # sigma_n2 = 0 solves by lstsq on the same Wr (2.00x before, 1.13x now)
    assert _two_stage_peak(0.0) <= 1.3


def _two_stage_whole_w(Y_d, H_est, enc, prior, sigma_n2):
    """two_stage_decode's earlier body: the complex W whole, then its real stack."""
    blocks = np.asarray(H_est)
    blocks = blocks[None] if blocks.ndim == 2 else blocks
    Y_d = np.asarray(Y_d, dtype=np.complex128)
    K, _, N_t = blocks.shape
    T_d, n = Y_d.shape[-1], enc.input_dim
    U, R = np.linalg.qr(blocks)
    W = (R @ enc.A.reshape(K, N_t, T_d * n)).reshape(-1, n)
    z = (U.conj().swapaxes(-1, -2) @ Y_d).reshape(-1)
    Wr = np.concatenate([W.real, W.imag])
    mu = np.broadcast_to(np.asarray(prior.mean, dtype=np.float64), (n,)).copy()
    zr = np.concatenate([z.real, z.imag]) - Wr @ mu
    if sigma_n2 == 0:
        return mu + np.linalg.lstsq(Wr, zr, rcond=None)[0]
    G = Wr.T @ Wr
    G.flat[::n + 1] += (sigma_n2 / 2.0) / prior.var0
    return mu + np.linalg.solve(G, Wr.T @ zr)


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 3), N_r=st.integers(1, 4), N_t=st.integers(1, 4),
       T_d=st.integers(1, 4), n=st.integers(1, 8),
       sn2=st.one_of(st.sampled_from([0.0, 1e-3, 0.5]), st.floats(0.01, 10.0)),
       var0=st.floats(0.25, 4.0), stacked=st.booleans(), one_block=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_two_stage_small_w_is_bit_identical_to_the_whole_w_form(K, N_r, N_t, T_d, n, sn2,
                                                                var0, stacked, one_block, seed):
    # N_r < N_t included (each QR factor then has N_r rows), and one 2-D block;
    # at these sizes W is taken in one product
    rng = np.random.default_rng(seed)
    K = 1 if one_block else K
    A = complex_normal(rng, (K * N_t * T_d, n)) / math.sqrt(n)
    enc = LinearEncoder(A[None] if stacked else A, (N_t * K, T_d))
    H = complex_normal(rng, (N_r, N_t) if one_block else (K, N_r, N_t))
    Y = complex_normal(rng, (K, N_r, T_d))
    prior = GaussianPrior(rng.standard_normal(n), var0, "real")
    got = two_stage_decode(Y, H, enc, prior, sn2)
    assert got.tobytes() == _two_stage_whole_w(Y, H, enc, prior, sn2).tobytes()


@pytest.mark.parametrize("K, N_r, N_t, T_d, n", [
    (5, 2, 2, 25, 512),  # 0.4 MiB blocks: products of 2, 2 and 1 blocks
    (3, 4, 4, 20, 512),  # 0.6 MiB blocks: one block per product
    (2, 2, 4, 80, 512),  # N_r < N_t, 1.25 MiB blocks
])
@pytest.mark.parametrize("sn2", [0.0, 0.1])
def test_two_stage_products_of_w_are_bit_identical_to_the_whole_w_form(K, N_r, N_t, T_d, n,
                                                                        sn2):
    rng = np.random.default_rng(K * N_r)
    enc = LinearEncoder(complex_normal(rng, (K * N_t * T_d, n)) / math.sqrt(n), (N_t * K, T_d))
    H, Y = complex_normal(rng, (K, N_r, N_t)), complex_normal(rng, (K, N_r, T_d))
    prior = GaussianPrior(rng.standard_normal(n), 0.8, "real")
    got = two_stage_decode(Y, H, enc, prior, sn2)
    assert got.tobytes() == _two_stage_whole_w(Y, H, enc, prior, sn2).tobytes()


def _normal_equations_oracle(Y, H, enc, prior, sn2):
    """Independent oracle: build the composite map column by column through
    encode, then solve the regularized normal equations directly (least
    squares at sn2 = 0). Also returns the stacked real map Br and data yr."""
    K, _, N_t = H.shape
    n = enc.input_dim
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        Xi = enc.encode(e).reshape(K, N_t, -1)
        cols.append(np.einsum("krc,kct->krt", H, Xi).ravel())
    B = np.stack(cols, axis=1)
    Br = np.vstack([B.real, B.imag])
    yr = np.concatenate([Y.ravel().real, Y.ravel().imag])
    mu = np.broadcast_to(prior.mean, (n,))
    if sn2 == 0:
        return mu + np.linalg.lstsq(Br, yr - Br @ mu, rcond=None)[0], Br, yr
    lhs = Br.T @ Br + (sn2 / 2.0) / prior.var0 * np.eye(n)
    return mu + np.linalg.solve(lhs, Br.T @ (yr - Br @ mu)), Br, yr


def test_two_stage_matches_normal_equations_oracle():
    rng = np.random.default_rng(9)
    dims, enc, H, d, Y = _linear_scene(rng, N_r=2, K=1, T=4, n=2)
    sn2 = 0.3
    Yn = Y + complex_normal(rng, Y.shape, sn2)
    prior = GaussianPrior(np.array([0.2, -0.4]), 1.5, "real")
    got = two_stage_decode(Yn, H, enc, prior, sn2)
    want, _, _ = _normal_equations_oracle(Yn, H, enc, prior, sn2)
    assert np.max(np.abs(got - want)) < 1e-8


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 3), N_r=st.integers(1, 4), N_t=st.integers(1, 4),
       T_d=st.integers(1, 4), n=st.integers(1, 8), sn2=st.floats(0.05, 2.0),
       var0=st.floats(0.25, 4.0), stacked=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_two_stage_matches_the_oracle_over_shapes(K, N_r, N_t, T_d, n, sn2, var0, stacked,
                                                  seed):
    # N_t > N_r included: each channel block's QR factor then has N_r rows
    rng = np.random.default_rng(seed)
    A = complex_normal(rng, (K * N_t * T_d, n)) / math.sqrt(n)
    enc = LinearEncoder(A[None] if stacked else A, (N_t * K, T_d))
    H = complex_normal(rng, (K, N_r, N_t))
    Y = complex_normal(rng, (K, N_r, T_d))
    prior = GaussianPrior(rng.standard_normal(n), var0, "real")
    got = two_stage_decode(Y, H, enc, prior, sn2)
    want, _, _ = _normal_equations_oracle(Y, H, enc, prior, sn2)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_two_stage_noiseless_underdetermined_is_minimum_norm_least_squares():
    # n = 12 unknowns against 2 K N_r T_d = 8 real equations, N_t > N_r
    rng = np.random.default_rng(12)
    K, N_r, N_t, T_d, n = 1, 2, 3, 2, 12
    enc = LinearEncoder(complex_normal(rng, (K * N_t * T_d, n)), (N_t * K, T_d))
    H = complex_normal(rng, (K, N_r, N_t))
    Y = complex_normal(rng, (K, N_r, T_d))
    prior = GaussianPrior(np.full(n, 0.3), 1.0, "real")
    got = two_stage_decode(Y, H, enc, prior, 0.0)
    want, Br, yr = _normal_equations_oracle(Y, H, enc, prior, 0.0)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    assert np.allclose(Br @ got, yr, atol=1e-9)  # consistent: the residual is zero


def test_two_stage_rejects_data_blocks_that_do_not_match_the_channel():
    rng = np.random.default_rng(13)
    dims, enc, H, d, Y = _linear_scene(rng)  # Y (2, 3, 5), H (2, 3, 1)
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    for bad in (Y.reshape(6, 5), Y[:1], Y[:, :2]):
        with pytest.raises(ValueError, match=rf"Y_d of shape \({bad.shape[0]}, .* must be "
                                             r"\(K, N_r, T_d\) .* \(2, 3, 1\)"):
            two_stage_decode(bad, H, enc, prior, 0.1)


def test_two_stage_rejects_an_encoder_of_another_output_shape():
    rng = np.random.default_rng(14)
    dims, enc, H, d, Y = _linear_scene(rng)  # encoder output (2, 5)
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    with pytest.raises(ValueError, match=r"encoder output \(2, 5\) != \(N_t\*K, T_d\) = \(2, 4\)"):
        two_stage_decode(Y[:, :, :4], H, enc, prior, 0.1)


def test_two_stage_rejects_an_encoder_with_one_matrix_per_user():
    rng = np.random.default_rng(15)
    dims, enc, H, d, Y = _linear_scene(rng)
    two = LinearEncoder(np.stack([enc.A, enc.A]), enc.output_shape)
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    with pytest.raises(ValueError, match=r"encoder A of shape \(2, 10, 4\) holds 2 matrices"):
        two_stage_decode(Y, H, two, prior, 0.1)


def test_two_stage_rejects_nonlinear_encoder():
    rng = np.random.default_rng(10)
    enc = SaturatingEncoder(complex_normal(rng, (10, 4)), 1.0, (2, 5))
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    with pytest.raises(TypeError):
        two_stage_decode(np.zeros((2, 5), complex), np.zeros((1, 2, 2), complex),
                         enc, prior, 0.1)


@pytest.mark.parametrize("sigma_n2", [math.nan, math.inf, -1.0])
def test_two_stage_rejects_a_noise_power_that_is_not_finite_and_nonnegative(sigma_n2):
    # nan and inf used to return NaN sources, -1.0 to solve with lam < 0
    rng = np.random.default_rng(16)
    dims, enc, H, d, Y = _linear_scene(rng)
    prior = GaussianPrior(np.zeros(4), 1.0, "real")
    with pytest.raises(ValueError, match=rf"sigma_n2 must be finite and >= 0, got {sigma_n2!r}"):
        two_stage_decode(Y, H, enc, prior, sigma_n2)


# --- estimator comparison invariant ----------------------------------------------

def test_lmmse_beats_ls_and_zero_under_matched_prior():
    rng = np.random.default_rng(11)
    sigma_h2, sigma_n2, N_p = 1.0, 1.0, 3
    X_p = make_pilots(2, N_p, 1.0)
    se = {"lmmse": 0.0, "ls": 0.0, "zero": 0.0}
    trials = 400
    for _ in range(trials):
        H = complex_normal(rng, (2, 2), sigma_h2)
        Y_p = H @ X_p + complex_normal(rng, (2, N_p), sigma_n2)
        H_lmmse = lmmse_channel(Y_p, X_p, sigma_h2, sigma_n2)
        H_ls = Y_p @ X_p.conj().T @ np.linalg.inv(X_p @ X_p.conj().T)
        se["lmmse"] += np.linalg.norm(H_lmmse - H) ** 2
        se["ls"] += np.linalg.norm(H_ls - H) ** 2
        se["zero"] += np.linalg.norm(H) ** 2
    assert se["lmmse"] < se["ls"]
    assert se["lmmse"] < se["zero"]
