"""Encoder maps, exact adjoints, power normalization, Jacobian norms, files."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import (
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    jacobian_frobenius2,
    load_encoder,
    save_encoder,
)


def random_linear(rng, n=5, shape=(2, 4)):
    m = shape[0] * shape[1]
    A = complex_normal(rng, (m, n)) / np.sqrt(n)
    return LinearEncoder(A, shape)


def fd_loss_gradient(enc, d, X0, h=1e-6):
    """Central finite differences of L(d) = ||encode(d) - X0||_F^2."""
    g = np.zeros_like(d)
    for i in range(d.size):
        e = np.zeros_like(d)
        e[i] = h
        Lp = np.linalg.norm(enc.encode(d + e) - X0) ** 2
        Lm = np.linalg.norm(enc.encode(d - e) - X0) ** 2
        g[i] = (Lp - Lm) / (2 * h)
    return g


# --- encode -----------------------------------------------------------------

def test_identity_encode_row_major():
    n = 6
    enc = LinearEncoder(np.eye(n, dtype=complex), (2, 3))
    d = np.arange(1.0, 7.0)
    X = enc.encode(d)
    assert np.array_equal(X, d.reshape(2, 3))


def test_saturating_zero_input():
    rng = np.random.default_rng(0)
    enc = SaturatingEncoder(complex_normal(rng, (8, 3)), 2.0, (2, 4))
    assert np.all(enc.encode(np.zeros(3)) == 0)


def test_linear_scalar():
    enc = LinearEncoder(np.array([[3.0 + 0j]]), (1, 1))
    assert enc.encode(np.array([2.0]))[0, 0] == 6.0


def test_encode_length_mismatch():
    enc = random_linear(np.random.default_rng(0))
    with pytest.raises(ValueError):
        enc.encode(np.zeros(4))


def test_saturating_bounded_and_smooth():
    rng = np.random.default_rng(1)
    enc = SaturatingEncoder(complex_normal(rng, (8, 3)), 10.0, (2, 4))
    X = enc.encode(100.0 * rng.standard_normal(3))
    assert np.all(np.abs(X) <= np.sqrt(2.0) + 1e-12)


# --- vjp --------------------------------------------------------------------

def test_vjp_zero_cotangent():
    enc = random_linear(np.random.default_rng(2))
    out = enc.vjp(np.ones(5), np.zeros((2, 4), dtype=complex))
    assert np.array_equal(out, np.zeros(5))


def test_vjp_scalar_hand_value():
    # a = 3 real, d = 1, L = |x|^2 so cotangent = x: vjp = 2 a^2 d = 18
    enc = LinearEncoder(np.array([[3.0 + 0j]]), (1, 1))
    d = np.array([1.0])
    c = enc.encode(d)
    assert np.allclose(enc.vjp(d, c), [18.0])


@pytest.mark.parametrize("kind", ["linear", "saturating", "pnorm_linear", "pnorm_sat"])
def test_vjp_matches_finite_differences(kind):
    rng = np.random.default_rng(3)
    lin = random_linear(rng)
    enc = {
        "linear": lin,
        "saturating": SaturatingEncoder(lin.A, 1.7, lin.output_shape),
        "pnorm_linear": PowerNormalizedEncoder(lin, 2.0),
        "pnorm_sat": PowerNormalizedEncoder(
            SaturatingEncoder(lin.A, 1.7, lin.output_shape), 2.0),
    }[kind]
    for trial in range(3):
        d = rng.standard_normal(5)
        X0 = complex_normal(rng, (2, 4))
        c = enc.encode(d) - X0
        g = enc.vjp(d, c)
        fd = fd_loss_gradient(enc, d, X0)
        assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))


def test_vjp_cotangent_shape_error():
    enc = random_linear(np.random.default_rng(4))
    with pytest.raises(ValueError):
        enc.vjp(np.zeros(5), np.zeros((3, 3), dtype=complex))


def test_linear_encoder_is_linear():
    rng = np.random.default_rng(5)
    enc = random_linear(rng)
    d1, d2 = rng.standard_normal(5), rng.standard_normal(5)
    a, b = 1.7, -0.3
    assert np.allclose(enc.encode(a * d1 + b * d2),
                       a * enc.encode(d1) + b * enc.encode(d2))


def pullback_jacobian(enc, d):
    """Dense Jacobian recovered from pullbacks alone, the adjointness oracle.

    Row k of J comes from two pullbacks of one-hot cotangents:
    Re J_k = pull(e_k)/2 and Im J_k = pull(i e_k)/2.
    """
    pull = enc.linearize(d)
    m = enc.output_shape[0] * enc.output_shape[1]
    J = np.empty((m, enc.input_dim), dtype=np.complex128)
    e = np.zeros(enc.output_shape, dtype=np.complex128)
    flat = e.ravel()
    for k in range(m):
        flat[k] = 1.0
        re = pull(e)
        flat[k] = 1.0j
        im = pull(e)
        flat[k] = 0.0
        J[k] = 0.5 * (re + 1j * im)
    return J


def test_generic_jacobian_matches_analytic():
    rng = np.random.default_rng(6)
    lin = random_linear(rng)
    sat = SaturatingEncoder(lin.A, 1.3, lin.output_shape)
    d = rng.standard_normal(5)
    assert np.allclose(pullback_jacobian(sat, d), sat.jacobian(d))
    assert np.allclose(pullback_jacobian(lin, d), lin.A)
    for base in (lin, sat):
        pn = PowerNormalizedEncoder(base, 2.0)
        assert np.allclose(pullback_jacobian(pn, d), pn.jacobian(d))


# --- power normalization ----------------------------------------------------
# PowerNormalizedEncoder scales its base output to the power budget P per
# symbol: ||f(d)||_F^2 / (N_t K T) == P.

def test_normalize_power_fixed_point():
    # power already P = 1 per symbol: the output is the base output unchanged
    enc = PowerNormalizedEncoder(LinearEncoder(np.eye(4, dtype=complex), (2, 2)), 1.0)
    assert np.array_equal(enc.encode(np.ones(4)), np.ones((2, 2)))


def test_normalize_power_scalar():
    enc = PowerNormalizedEncoder(LinearEncoder(np.array([[1.0 + 0j]]), (1, 1)), 1.0)
    assert np.array_equal(enc.encode(np.array([2.0])), np.array([[1.0]]))


@settings(max_examples=40, deadline=None)
@given(N_t=st.integers(1, 3), K=st.integers(1, 3), T=st.integers(1, 4), n=st.integers(1, 5),
       P=st.floats(0.01, 100.0), log_scale=st.floats(-6.0, 6.0),
       saturating=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_normalize_power_exact_and_idempotent(N_t, K, T, n, P, log_scale, saturating, seed):
    # ||f(d)||_F^2 / (N_t K T) == P to 1e-12 for any input, and normalizing
    # an output already at the budget leaves it in place
    rng = np.random.default_rng(seed)
    A = complex_normal(rng, (N_t * K * T, n))
    shape = (N_t * K, T)
    base = SaturatingEncoder(A, 0.7, shape) if saturating else LinearEncoder(A, shape)
    enc = PowerNormalizedEncoder(base, P)
    d = 10.0**log_scale * rng.standard_normal(n)
    X = enc.encode(d)
    assert abs(np.linalg.norm(X) ** 2 / X.size - P) <= 1e-12 * P
    again = PowerNormalizedEncoder(enc, P).encode(d)
    assert np.allclose(again, X, rtol=0, atol=1e-15 * np.sqrt(P))


def test_normalize_power_zero_error():
    # a zero base output has no direction to scale: it raises
    enc = PowerNormalizedEncoder(LinearEncoder(np.zeros((2, 3), dtype=complex), (1, 2)), 1.0)
    with pytest.raises(ValueError, match="zero"):
        enc.encode(np.ones(3))


@pytest.mark.parametrize("saturating", [False, True])
def test_power_normalized_encode_takes_no_pullback(saturating):
    # encode used to linearize, which pulls the output back along itself (the
    # radial term) eagerly; a pullback plus frobenius2 at one point take it once
    rng = np.random.default_rng(4)
    A = complex_normal(rng, (2, 8, 5))  # two users
    base = SaturatingEncoder(A, 0.7, (2, 4)) if saturating else LinearEncoder(A, (2, 4))
    pulled, linearize = [], base.linearize

    def counted(d):
        lin = linearize(d)
        pull = lin._pull
        lin._pull = lambda c: pulled.append(c) or pull(c)
        return lin

    base.linearize = counted
    enc = PowerNormalizedEncoder(base, 2.0)
    d = rng.standard_normal((2, 5))
    X = enc.encode(d)
    assert pulled == []
    lin = enc.linearize(d)
    assert np.array_equal(lin.value, X)
    lin(complex_normal(rng, X.shape))
    lin.frobenius2(complex_normal(rng, (2, 2, 3, 1)))  # K = 2 blocks of N_t = 1
    F = base.encode(d)
    assert len(pulled) == 3 and sum(np.array_equal(c, F) for c in pulled) == 1


# --- jacobian_frobenius2 ----------------------------------------------------

def test_frobenius2_identity():
    enc = LinearEncoder(np.eye(8, dtype=complex), (2, 4))
    assert jacobian_frobenius2(enc, np.zeros(8)) == pytest.approx(8.0)


def test_frobenius2_scalar():
    enc = LinearEncoder(np.array([[3.0 + 0j]]), (1, 1))
    assert jacobian_frobenius2(enc, np.zeros(1)) == pytest.approx(9.0)


def test_frobenius2_saturating_at_zero():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((8, 3)).astype(complex)  # real A
    g = 2.0
    enc = SaturatingEncoder(A, g, (2, 4))
    expect = g**2 * np.linalg.norm(A) ** 2
    assert jacobian_frobenius2(enc, np.zeros(3)) == pytest.approx(expect)


# --- parameter files --------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    lin = random_linear(rng)
    sat = SaturatingEncoder(lin.A, 1.25, lin.output_shape)
    for enc in (lin, sat):
        path = tmp_path / f"{type(enc).__name__}.npz"
        save_encoder(enc, path)
        back = load_encoder(path)
        assert type(back) is type(enc)
        assert np.array_equal(back.A, enc.A)
        d = rng.standard_normal(5)
        assert np.array_equal(back.encode(d), enc.encode(d))
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an encoder\n")
        load_encoder(bad)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), n=st.integers(1, 5),
       gain=st.one_of(st.none(), st.floats(0.0, 1e300, exclude_min=True)),
       seed=st.integers(0, 2**32 - 1))
def test_save_load_roundtrip_is_bit_exact_over_shapes(rows, cols, n, gain, seed):
    rng = np.random.default_rng(seed)
    A = complex_normal(rng, (rows * cols, n))
    enc = (LinearEncoder(A, (rows, cols)) if gain is None
           else SaturatingEncoder(A, gain, (rows, cols)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "enc.npz")
        save_encoder(enc, path)
        back = load_encoder(path)
    assert type(back) is type(enc) and back.output_shape == (rows, cols)
    assert back.A.dtype == A.dtype and back.A.tobytes() == A.tobytes()
    if gain is not None:
        assert np.float64(back.gain).tobytes() == np.float64(gain).tobytes()
    d = rng.standard_normal(n)
    assert back.encode(d).tobytes() == enc.encode(d).tobytes()


def _unpickled():
    raise AssertionError("load_encoder unpickled an object array")


class _Trap:
    def __reduce__(self):
        return _unpickled, ()


def test_load_refuses_an_object_array_without_unpickling_it(tmp_path):
    path = tmp_path / "enc.npz"
    np.savez(path, A=np.array([_Trap()], dtype=object), output_shape=np.array([1, 1]))
    with pytest.raises(ValueError, match="not an .npz archive of plain arrays"):
        load_encoder(path)


# --- the block Grams, one (user, block) at a time ------------------------------

def _gram_from_one_stack(enc, A, N_t):
    """_MatrixEncoder._gram's earlier body: one real stack of all of A."""
    K, T, n = enc.output_shape[0] // N_t, enc.output_shape[1], enc.input_dim
    A4 = A.reshape(A.shape[:-2] + (K, N_t, T, n)).swapaxes(-3, -2)
    S = np.concatenate([A4.real, A4.imag], axis=-2)
    G = (S @ S.swapaxes(-1, -2)).reshape(S.shape[:-2] + (2, N_t, 2, N_t))
    return G * np.array([[1, -1j], [1j, 1]])[:, None, :, None]


@settings(max_examples=80, deadline=None)
@given(users=st.sampled_from([None, 1, 2, 3]), K=st.integers(1, 3), N_t=st.integers(1, 3),
       T=st.integers(1, 4), n=st.integers(1, 6), one_source=st.booleans(),
       saturating=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gram_per_block_is_bit_identical_to_the_one_stack_form(users, K, N_t, T, n, one_source,
                                                                 saturating, seed):
    rng = np.random.default_rng(seed)
    A = complex_normal(rng, (() if users is None else (users,)) + (N_t * K * T, n))
    enc = (SaturatingEncoder(A, 0.7, (N_t * K, T)) if saturating
           else LinearEncoder(A, (N_t * K, T)))
    A = enc.A[0] if one_source and users == 1 else enc.A  # as _check_input serves one source
    G = enc._gram(A, N_t)
    ref = _gram_from_one_stack(enc, A, N_t)
    assert G.shape == ref.shape and G.tobytes() == ref.tobytes()


def test_first_frobenius2_holds_under_a_third_of_the_matrix():
    # At the medium workload's shape. The one real stack of all of A, the size
    # of A itself, used to set this call's peak at 1.09x A.
    import tracemalloc
    rng = np.random.default_rng(0)
    K, N_r, N_t, T, n = 8, 16, 4, 24, 512
    enc = LinearEncoder(complex_normal(rng, (N_t * K * T, n)) / np.sqrt(n), (N_t * K, T))
    H, d = complex_normal(rng, (K, N_r, N_t)), rng.standard_normal(n)
    tracemalloc.start()
    try:
        enc.linearize(d).frobenius2(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= enc.A.nbytes / 3
