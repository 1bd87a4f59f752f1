"""Encoder maps, exact adjoints, power normalization, Jacobian norms."""

import numpy as np
import pytest

from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import (
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    jacobian_frobenius2,
    load_encoder,
    normalize_power,
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


# --- normalize_power --------------------------------------------------------

def test_normalize_power_fixed_point():
    dims = MimoDims(N_r=1, N_t=2, K=1, T=2, P=1.0)
    X = np.full((2, 2), 1.0 + 0j)  # power already 1 per symbol
    out = normalize_power(X, dims)
    assert out is X


def test_normalize_power_scalar():
    dims = MimoDims(N_r=1, N_t=1, K=1, T=1, P=1.0)
    out = normalize_power(np.array([[2.0 + 0j]]), dims)
    assert np.allclose(out, [[1.0]])


def test_normalize_power_exact_and_idempotent():
    rng = np.random.default_rng(7)
    dims = MimoDims(N_r=1, N_t=3, K=2, T=4, P=2.5)
    X = complex_normal(rng, dims.signal_shape, 7.0)
    out = normalize_power(X, dims)
    power = np.linalg.norm(out) ** 2 / (dims.N_t * dims.K * dims.T)
    assert abs(power - dims.P) <= 1e-12 * dims.P
    again = normalize_power(out, dims)
    assert np.allclose(out, again, rtol=0, atol=1e-15)


def test_normalize_power_zero_error():
    dims = MimoDims(N_r=1, N_t=1, K=1, T=2, P=1.0)
    with pytest.raises(ValueError):
        normalize_power(np.zeros((1, 2), dtype=complex), dims)


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


def test_hutchinson_unbiased():
    rng = np.random.default_rng(9)
    enc = random_linear(rng, n=4, shape=(2, 3))
    exact = jacobian_frobenius2(enc, np.zeros(4))
    ests = [
        jacobian_frobenius2(enc, np.zeros(4), probes=1,
                            rng=np.random.default_rng(1000 + k), exact_threshold=0)
        for k in range(10_000)
    ]
    assert abs(np.mean(ests) - exact) <= 0.02 * exact


def test_frobenius2_probe_validation():
    enc = random_linear(np.random.default_rng(10))
    with pytest.raises(ValueError):
        jacobian_frobenius2(enc, np.zeros(5), probes=0)


# --- parameter files --------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    lin = random_linear(rng)
    sat = SaturatingEncoder(lin.A, 1.25, lin.output_shape)
    for enc in (lin, sat):
        path = tmp_path / f"{type(enc).__name__}.txt"
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
