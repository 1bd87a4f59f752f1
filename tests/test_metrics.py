"""Scoring metrics: NMSE, SNR, CBR, source MSE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.metrics import cbr, nmse_db, snr_db, source_mse


def test_nmse_exact_recovery_sentinel():
    H = [np.ones((1, 2, 2), dtype=complex)]
    assert nmse_db(H, [H[0].copy()]) == float("-inf")


def test_nmse_zero_estimate_is_zero_db():
    H = [complex_normal(np.random.default_rng(0), (2, 2, 2))]
    assert nmse_db(H, [np.zeros_like(H[0])]) == pytest.approx(0.0, abs=1e-12)


def test_nmse_scalar_hand():
    H = [np.full((1, 1, 1), 1.0 + 0j)]
    E = [np.full((1, 1, 1), 1.1 + 0j)]
    assert nmse_db(H, E) == pytest.approx(-20.0, abs=1e-9)


def test_nmse_zero_norm_error():
    with pytest.raises(ValueError):
        nmse_db([np.zeros((1, 1, 1), complex)], [np.ones((1, 1, 1), complex)])


def test_nmse_unitary_invariance():
    rng = np.random.default_rng(1)
    H = complex_normal(rng, (1, 3, 3))
    E = complex_normal(rng, (1, 3, 3))
    # a common unitary rotation of both leaves the value unchanged
    G = np.linalg.qr(complex_normal(rng, (3, 3)))[0]
    H_rot = np.einsum("ab,kbc->kac", G, H)
    E_rot = np.einsum("ab,kbc->kac", G, E)
    assert nmse_db([H], [E]) == pytest.approx(nmse_db([H_rot], [E_rot]), rel=1e-12)


def test_nmse_multi_user_average():
    H1 = [np.full((1, 1, 1), 1.0 + 0j), np.full((1, 1, 1), 2.0 + 0j)]
    E1 = [np.full((1, 1, 1), 1.1 + 0j), np.full((1, 1, 1), 2.0 + 0j)]
    # sum_i |H_i - E_i|^2/(2 |H_i|^2) = 0.01/2 + 0 = 0.005
    assert nmse_db(H1, E1) == pytest.approx(10 * math.log10(0.005), abs=1e-9)


def test_nmse_rejects_one_users_blocks():
    # one user's (K, N_r, N_t) blocks would be scored as K users of one block
    # blocks of norm^2 2, 8 and 18; block 1 off by 0.2 in both entries
    H = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1) * np.ones((1, 3, 2, 1), complex)
    E = H.copy()
    E[0, 1] *= 1.1
    assert nmse_db(H, E) == pytest.approx(10 * math.log10(0.08 / 28), abs=1e-9)
    with pytest.raises(ValueError, match=r"\(N_u, K, N_r, N_t\)"):
        nmse_db(H[0], E[0])
    with pytest.raises(ValueError, match="equal shape"):
        nmse_db(H, E[:, :2])


def test_snr_equal_norms():
    S = np.ones((2, 2), dtype=complex)
    assert snr_db(S, S) == pytest.approx(0.0)


def test_snr_hand():
    S = np.full((1, 1), 10.0 + 0j)
    N = np.full((1, 1), 1.0 + 0j)
    assert snr_db(S, N) == pytest.approx(20.0)


def test_snr_scale_invariance_and_homogeneity():
    rng = np.random.default_rng(2)
    S = complex_normal(rng, (3, 4))
    N = complex_normal(rng, (3, 4))
    base = snr_db(S, N)
    assert snr_db(3.0 * S, 3.0 * N) == pytest.approx(base, rel=1e-12)
    assert snr_db(10.0 * S, N) == pytest.approx(base + 20.0, rel=1e-9)


def test_snr_zero_noise_error():
    with pytest.raises(ValueError):
        snr_db(np.ones((1, 1)), np.zeros((1, 1)))


def test_cbr_blind_reference_values():
    dims = MimoDims(N_r=64, N_t=8, K=24, T=24, n=196_608)
    assert cbr(dims, 24) == pytest.approx(0.0234375, abs=0)
    assert round(cbr(dims, 24), 4) == 0.0234


def test_cbr_pilot_equivalent_values():
    # payload held fixed, block count re-derived from the reduced slot count
    dims = MimoDims(N_r=64, N_t=8, K=24, T=24, n=196_608)
    assert cbr(dims, 24 - 16) == pytest.approx(0.0703125, abs=0)
    assert round(cbr(dims, 8), 4) == 0.0703
    dims3 = MimoDims(N_r=64, N_t=8, K=72, T=24, n=196_608)
    assert round(cbr(dims3, 8), 4) == 0.2109


def test_cbr_single_antenna_case():
    dims = MimoDims(N_r=4, N_t=1, K=192, T=24, n=196_608)
    assert round(cbr(dims, 24), 3) == 0.023


def test_cbr_exact_rational():
    # 8 * 24 * 24 / 196608 = 4608/196608 = 3/128 exactly
    dims = MimoDims(N_r=64, N_t=8, K=24, T=24, n=196_608)
    assert cbr(dims, 24) == 3.0 / 128.0


def test_source_mse_basics():
    assert source_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert source_mse(np.zeros(2), np.ones(2)) == 1.0
    d = np.random.default_rng(3).standard_normal(5)
    assert source_mse(d, d + 0.3) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        source_mse(np.zeros(2), np.zeros(3))


def _loop_nmse_db(H_true, H_est):
    # reference: the per-user loop, users added in order
    total = 0.0
    for t, e in zip(H_true, H_est):
        total += float(np.sum(np.abs(t - e) ** 2)) / (len(H_true) * float(np.sum(np.abs(t) ** 2)))
    return float("-inf") if total == 0.0 else float(10.0 * np.log10(total))


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 10), st.integers(1, 4), st.integers(1, 5),
                       st.integers(1, 3), st.integers(1, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_array_scores_equal_the_per_user_loops(shape, seed):
    n_u, K, N_r, N_t, n = shape
    rng = np.random.default_rng(seed)
    H = complex_normal(rng, (n_u, K, N_r, N_t))
    E = H + complex_normal(rng, H.shape, 0.1)
    assert nmse_db(H, E) == _loop_nmse_db(H, E)
    D, D_hat = rng.standard_normal((2, n_u, n))
    assert source_mse(D, D_hat) == float(np.mean([np.mean((d - e) ** 2)
                                                  for d, e in zip(D, D_hat)]))
