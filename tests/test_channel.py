"""Channel generation and transmission contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import (
    MimoDims,
    apply_channel,
    block_adjoint,
    block_product,
    complex_normal,
    compound,
    draw_kronecker_correlated,
    draw_rayleigh,
    hermitian_sqrt,
    transmit,
)


def test_dims_validation():
    with pytest.raises(ValueError):
        MimoDims(N_r=0, N_t=1, K=1, T=1)
    with pytest.raises(ValueError):
        MimoDims(N_r=1, N_t=1, K=1, T=1, P=0.0)
    with pytest.raises(ValueError):
        MimoDims(N_r=1, N_t=1, K=1, T=1, sigma_n2=-1.0)
    with pytest.raises(ValueError, match="^N_r must be a positive integer, got 0; "
                                         "n must be a positive integer, got 0; P must be > 0"):
        MimoDims(N_r=0, N_t=1, K=1, T=1, n=0, P=0.0)  # every fault, not the first
    d = MimoDims(N_r=2, N_t=3, K=4, T=5, N_u=2, n=7)
    assert d.signal_shape == (12, 5)
    assert d.output_shape == (8, 5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dims_rejects_non_finite_power_and_noise(bad):
    # NaN used to pass both checks (P <= 0 and sigma_n2 < 0 are false for NaN)
    with pytest.raises(ValueError, match=rf"^N_r must be a positive integer, got 0; "
                                         rf"P must be finite, got {bad!r}; "
                                         rf"sigma_n2 must be finite, got {bad!r}$"):
        MimoDims(N_r=0, N_t=1, K=1, T=1, P=bad, sigma_n2=bad)  # every fault, not the first


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_transmit_rejects_a_bad_noise_power(bad):
    # transmit(H, X, nan, rng) used to return the noiseless signal
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="sigma_n2 must be finite and >= 0"):
        transmit(np.ones((1, 1, 1, 1), complex), np.ones((1, 1, 2), complex), bad, rng)
    assert rng.bit_generator.state == state


def test_rayleigh_shapes():
    dims = MimoDims(N_r=2, N_t=1, K=2, T=4)
    chans = draw_rayleigh(dims, np.random.default_rng(0))
    assert chans.shape == (1, 2, 2, 1) and chans.dtype == np.complex128


def test_rayleigh_determinism():
    dims = MimoDims(N_r=3, N_t=2, K=2, T=4, N_u=2)
    a = draw_rayleigh(dims, np.random.default_rng(42))
    b = draw_rayleigh(dims, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_rayleigh_unit_variance():
    # 10^5 CN(0,1) samples: per-entry variance within 1.0 +- 0.02
    dims = MimoDims(N_r=10, N_t=10, K=10, T=1)
    chans = draw_rayleigh(MimoDims(N_r=10, N_t=10, K=100, T=1), np.random.default_rng(7))
    samples = chans[0].ravel()
    assert samples.size == 10_000
    more = draw_rayleigh(dims, np.random.default_rng(8))[0].ravel()
    all_samples = np.concatenate([samples] + [
        draw_rayleigh(dims, np.random.default_rng(9 + k))[0].ravel()
        for k in range(89)
    ] + [more])
    assert all_samples.size >= 100_000
    var = np.mean(np.abs(all_samples) ** 2)
    assert abs(var - 1.0) < 0.02
    # circular symmetry: real/imag each close to 1/2
    assert abs(np.var(all_samples.real) - 0.5) < 0.02


def test_kronecker_identity_matches_rayleigh():
    dims = MimoDims(N_r=3, N_t=2, K=2, T=4)
    S_rx, S_tx = hermitian_sqrt(np.eye(3), "R_rx"), hermitian_sqrt(np.eye(2), "R_tx")
    assert S_rx is None and S_tx is None
    a = draw_rayleigh(dims, np.random.default_rng(5))
    b = draw_kronecker_correlated(dims, S_rx, S_tx, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_kronecker_zero_covariance():
    dims = MimoDims(N_r=2, N_t=2, K=3, T=4)
    chans = draw_kronecker_correlated(dims, hermitian_sqrt(np.zeros((2, 2)), "R_rx"), None,
                                      np.random.default_rng(0))
    assert chans.shape == (1, 3, 2, 2) and np.all(chans == 0)


def test_kronecker_rank1_columns_align():
    # rank-1 R_tx: every sampled channel column space lies along the eigenvector
    dims = MimoDims(N_r=2, N_t=2, K=1, T=1)
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    R_tx = np.outer(v, v.conj())
    S_tx = hermitian_sqrt(R_tx, "R_tx")
    rng = np.random.default_rng(11)
    for _ in range(1000):
        H = draw_kronecker_correlated(dims, None, S_tx, rng)[0, 0]
        # H = G R_tx^{1/2}: rows proportional to v^H, i.e. H @ (I - vv^H) = 0
        proj = H @ (np.eye(2) - np.outer(v, v.conj()))
        assert np.linalg.norm(proj) < 1e-10 * max(1.0, np.linalg.norm(H))


def test_kronecker_rejects_bad_covariance():
    with pytest.raises(ValueError, match="R_rx is not Hermitian"):
        hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]), "R_rx")
    with pytest.raises(ValueError, match="R_rx is not positive semidefinite"):
        hermitian_sqrt(np.diag([1.0, -0.5]), "R_rx")
    with pytest.raises(ValueError, match="R_tx must be square"):
        hermitian_sqrt(np.ones((2, 3)), "R_tx")


def test_compound_single_block():
    H = np.arange(6, dtype=complex).reshape(1, 2, 3)
    assert np.array_equal(compound(H), H[0])


def test_compound_scalar_blocks():
    H = np.array([[[2.0]], [[3.0]]], dtype=complex)
    assert np.array_equal(compound(H), np.diag([2.0 + 0j, 3.0 + 0j]))


def test_compound_structural_zeros():
    rng = np.random.default_rng(3)
    H = complex_normal(rng, (3, 2, 2))
    H0 = compound(H)
    assert H0.shape == (6, 6)
    mask = np.ones((6, 6), dtype=bool)
    for k in range(3):
        mask[2 * k:2 * k + 2, 2 * k:2 * k + 2] = False
    assert np.all(H0[mask] == 0)


def test_transmit_identity_noiseless():
    H = np.stack([np.eye(2, dtype=complex)] * 3)[None]
    X = complex_normal(np.random.default_rng(0), (6, 5))
    Y = transmit(H, X[None], 0.0, np.random.default_rng(1))
    assert np.allclose(Y, X)


def test_transmit_scalar():
    H = np.array([[[[2.0]]]], dtype=complex)
    Y = transmit(H, np.array([[[3.0 + 0j]]]), 0.0, np.random.default_rng(0))
    assert Y.shape == (1, 1) and Y[0, 0] == 6.0


def test_transmit_two_user_superposition():
    H = np.array([[[[1.0]]], [[[2.0]]]], dtype=complex)
    X = np.ones((2, 1, 1), dtype=complex)
    Y = transmit(H, X, 0.0, np.random.default_rng(0))
    assert Y[0, 0] == 3.0


def test_transmit_shape_errors():
    H = np.ones((1, 1, 2, 2), dtype=complex)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):  # 3 signal rows for N_t*K = 2
        transmit(H, np.ones((1, 3, 4), dtype=complex), 0.0, rng)
    with pytest.raises(ValueError):  # 2 channels, 1 signal
        transmit(np.concatenate([H, H]), np.ones((1, 2, 4), dtype=complex), 0.0, rng)
    with pytest.raises(ValueError):  # one user's blocks, not the stacked channels
        transmit(H[0], np.ones((1, 2, 4), dtype=complex), 0.0, rng)


def test_block_locality():
    # zeroing signal rows outside block k leaves Y rows outside block k unchanged
    rng = np.random.default_rng(9)
    dims = MimoDims(N_r=2, N_t=2, K=3, T=4)
    H = draw_rayleigh(dims, rng)
    X = complex_normal(rng, (1,) + dims.signal_shape)
    Y_full = transmit(H, X, 0.0, np.random.default_rng(0))
    X_k = np.zeros_like(X)
    X_k[:, 2:4] = X[:, 2:4]  # block k=1 only
    Y_k = transmit(H, X_k, 0.0, np.random.default_rng(0))
    assert np.allclose(Y_k[2:4], Y_full[2:4])
    assert np.all(Y_k[:2] == 0) and np.all(Y_k[4:] == 0)


def test_transmit_linearity():
    rng = np.random.default_rng(10)
    dims = MimoDims(N_r=2, N_t=1, K=2, T=3)
    H = draw_rayleigh(dims, rng)
    X1 = complex_normal(rng, (1,) + dims.signal_shape)
    X2 = complex_normal(rng, (1,) + dims.signal_shape)
    a, b = 2.0 - 1.0j, 0.5 + 0.25j
    lhs = transmit(H, a * X1 + b * X2, 0.0, np.random.default_rng(0))
    rhs = (a * transmit(H, X1, 0.0, np.random.default_rng(0))
           + b * transmit(H, X2, 0.0, np.random.default_rng(0)))
    assert np.allclose(lhs, rhs)


def test_noise_statistics():
    # X = 0: per-entry variance of Y equals sigma_n2 within 3% over 1e5 samples
    dims = MimoDims(N_r=10, N_t=1, K=10, T=1000)
    H = np.zeros((1, 10, 10, 1), dtype=complex)
    Y = transmit(H, np.zeros((1,) + dims.signal_shape, dtype=complex), 0.7,
                 np.random.default_rng(123))
    assert Y.size == 100_000
    assert abs(np.mean(np.abs(Y) ** 2) - 0.7) < 0.03 * 0.7


def test_transmit_determinism():
    dims = MimoDims(N_r=2, N_t=1, K=2, T=3)
    H = draw_rayleigh(dims, np.random.default_rng(1))
    X = complex_normal(np.random.default_rng(2), (1,) + dims.signal_shape)
    Y1 = transmit(H, X, 0.5, np.random.default_rng(77))
    Y2 = transmit(H, X, 0.5, np.random.default_rng(77))
    assert np.array_equal(Y1, Y2)


# --- properties over random (N_u, K, N_r, N_t, T) ------------------------------

def _links(min_users=1):
    return st.builds(lambda N_u, K, N_r, N_t, T: MimoDims(N_r=N_r, N_t=N_t, K=K, T=T, N_u=N_u),
                     N_u=st.integers(min_users, 4), K=st.integers(1, 4), N_r=st.integers(1, 4),
                     N_t=st.integers(1, 3), T=st.integers(1, 5))


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(dims=_links(), seed=seeds)
def test_transmit_is_the_sum_of_compound_products(dims, seed):
    rng = np.random.default_rng(seed)
    H = draw_rayleigh(dims, rng)
    X = complex_normal(rng, (dims.N_u,) + dims.signal_shape)
    Y = transmit(H, X, 0.0, rng)
    ref = sum(compound(H[u]) @ X[u] for u in range(dims.N_u))
    assert Y.shape == dims.output_shape
    assert np.allclose(Y, ref, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(dims=_links(), seed=seeds)
def test_transmit_adds_the_users_in_order_bit_for_bit(dims, seed):
    # the per-user loop of one apply_channel per user, summed left to right
    rng = np.random.default_rng(seed)
    H = draw_rayleigh(dims, rng)
    X = complex_normal(rng, (dims.N_u,) + dims.signal_shape)
    ref = apply_channel(H[0], X[0])
    for H_i, X_i in zip(H[1:], X[1:]):
        ref = ref + apply_channel(H_i, X_i)
    assert np.array_equal(transmit(H, X, 0.0, rng), ref)


@settings(max_examples=60, deadline=None)
@given(dims=_links(), seed=seeds, data=st.data())
def test_block_k_of_y_sees_only_block_k_of_every_user(dims, seed, data):
    k = data.draw(st.integers(0, dims.K - 1), label="k")
    rng = np.random.default_rng(seed)
    H = draw_rayleigh(dims, rng)
    X = complex_normal(rng, (dims.N_u,) + dims.signal_shape)
    Y = transmit(H, X, 0.0, rng)
    rows_t = slice(k * dims.N_t, (k + 1) * dims.N_t)
    rows_r = slice(k * dims.N_r, (k + 1) * dims.N_r)
    X_k = np.zeros_like(X)
    X_k[:, rows_t] = X[:, rows_t]
    Y_k = transmit(H, X_k, 0.0, rng)
    assert np.array_equal(Y_k[rows_r], Y[rows_r])
    Y_k[rows_r] = 0
    assert np.all(Y_k == 0)


def _psd_root(rng, size):
    G = complex_normal(rng, (size, size))
    return G @ G.conj().T / size  # Hermitian PSD, as hermitian_sqrt returns roots


@settings(max_examples=40, deadline=None)
@given(dims=_links(min_users=2), seed=seeds,
       model=st.sampled_from(["rayleigh", "kronecker", "kronecker-rx", "kronecker-tx"]))
def test_draw_rayleigh_stacks_the_per_user_draws(dims, seed, model):
    # reference: one draw per user, in user order, each correlated by its own einsums
    root_rng = np.random.default_rng([seed, 1])
    S_rx = _psd_root(root_rng, dims.N_r) if model in ("kronecker", "kronecker-rx") else None
    S_tx = _psd_root(root_rng, dims.N_t) if model in ("kronecker", "kronecker-tx") else None
    ref_rng = np.random.default_rng(seed)
    per_user = []
    for _ in range(dims.N_u):
        H_u = complex_normal(ref_rng, (dims.K, dims.N_r, dims.N_t))
        if S_rx is not None:
            H_u = np.einsum("ab,kbt->kat", S_rx, H_u)
        if S_tx is not None:
            H_u = np.einsum("kab,bt->kat", H_u, S_tx)
        per_user.append(H_u)
    rng = np.random.default_rng(seed)
    H = (draw_rayleigh(dims, rng) if model == "rayleigh"
         else draw_kronecker_correlated(dims, S_rx, S_tx, rng))
    assert H.shape == (dims.N_u, dims.K, dims.N_r, dims.N_t)
    for u in range(dims.N_u):
        assert np.array_equal(H[u], per_user[u])


@settings(max_examples=60, deadline=None)
@given(dims=_links(), seed=seeds)
def test_block_adjoint_is_the_compound_adjoint(dims, seed):
    # H0^H Y block-wise, and Re<H0 X, Y> = Re<X, H0^H Y>
    rng = np.random.default_rng(seed)
    H = draw_rayleigh(dims, rng)[0]
    X = complex_normal(rng, dims.signal_shape)
    Y = complex_normal(rng, dims.output_shape)
    HY = block_adjoint(H, Y)
    assert HY.shape == dims.signal_shape
    assert np.allclose(HY, compound(H).conj().T @ Y, rtol=0.0, atol=1e-12)
    lhs = np.vdot(block_product(H, X), Y).real
    rhs = np.vdot(X, HY).real
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(H) * np.linalg.norm(X) * np.linalg.norm(Y)


# --- complex_normal: one complex array, drawn and scaled in place ----------------

def _complex_normal_two_temporaries(rng, shape, var=1.0):
    """complex_normal's earlier body, which summed its two real draws into a new array."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(var / 2.0)


@settings(max_examples=80, deadline=None)
@given(shape=st.one_of(st.integers(0, 6), st.lists(st.integers(0, 5), max_size=3).map(tuple)),
       var=st.one_of(st.sampled_from([1.0, 0.5, 1e-12, 3.7, 1e300]),
                     st.floats(1e-6, 1e6)),
       seed=seeds)
def test_complex_normal_is_bit_identical_to_its_two_temporary_form(shape, var, seed):
    z = complex_normal(np.random.default_rng(seed), shape, var)
    ref = _complex_normal_two_temporaries(np.random.default_rng(seed), shape, var)
    assert z.dtype == ref.dtype and z.shape == ref.shape
    assert z.tobytes() == ref.tobytes()


def test_complex_normal_holds_its_output_and_one_real_draw_at_its_peak():
    # The two-temporary form peaked at about twice its output.
    import tracemalloc
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        z = complex_normal(rng, (640, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * z.nbytes
