"""Encoder.linearize: the cached pullback against the per-call vjp, encode
and Jacobian formulas it replaced (bitwise), the closed-form Jacobian norms
against loops of reference pullbacks, and its properties over random shapes,
the closed-form norms against the dense Jacobian among them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import MimoDims, block_adjoint, complex_normal, compound
from pvdmimo.encoder import (
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    jacobian_frobenius2,
)
from pvdmimo.pvd import aggregated_noise_variance

KINDS = ("linear", "saturating", "pn-linear", "pn-saturating")


def make_encoder(kind, rng, N_t, K, T, n):
    A = complex_normal(rng, (N_t * K * T, n)) / np.sqrt(n)
    shape = (N_t * K, T)
    base = (SaturatingEncoder(A, 0.7, shape) if kind.endswith("saturating")
            else LinearEncoder(A, shape))
    return PowerNormalizedEncoder(base, 1.0) if kind.startswith("pn-") else base


# --- reference: the per-call vjp, encode and Jacobian before linearize ------

def reference_vjp(enc, d, c):
    if isinstance(enc, PowerNormalizedEncoder):
        F = reference_encode(enc.base, d)
        nrm = np.linalg.norm(F)
        scale = enc._target / nrm
        base_part = scale * reference_vjp(enc.base, d, c)
        w = float(np.sum((c.conj() * F).real))
        radial = reference_vjp(enc.base, d, F)
        return base_part - (scale * w / nrm**2) * radial
    c = c.ravel()
    if isinstance(enc, SaturatingEncoder):
        z = enc.gain * (enc.A @ d)
        dr = 1.0 - np.tanh(z.real) ** 2
        di = 1.0 - np.tanh(z.imag) ** 2
        out = enc.A.real.T @ (dr * c.real) + enc.A.imag.T @ (di * c.imag)
        return 2.0 * enc.gain * out
    return 2.0 * (enc.A.conj().T @ c).real


def reference_encode(enc, d):
    if isinstance(enc, PowerNormalizedEncoder):
        F = reference_encode(enc.base, d)
        return (enc._target / np.linalg.norm(F)) * F
    z = enc.A @ d
    if isinstance(enc, SaturatingEncoder):
        z = enc.gain * z
        return (np.tanh(z.real) + 1j * np.tanh(z.imag)).reshape(enc.output_shape)
    return z.reshape(enc.output_shape)


def reference_jacobian(enc, d):
    if isinstance(enc, PowerNormalizedEncoder):
        F = reference_encode(enc.base, d).ravel()
        nrm = np.linalg.norm(F)
        scale = enc._target / nrm
        J = reference_jacobian(enc.base, d)
        grad_c = -(scale / nrm**2) * (J.conj().T @ F).real
        return scale * J + np.outer(F, grad_c)
    if isinstance(enc, SaturatingEncoder):
        z = enc.gain * (enc.A @ d)
        dr = 1.0 - np.tanh(z.real) ** 2
        di = 1.0 - np.tanh(z.imag) ** 2
        return enc.gain * (dr[:, None] * enc.A.real + 1j * di[:, None] * enc.A.imag)
    return enc.A


def reference_frobenius2(enc, d, to_cotangent, shape):
    """||G J||_F^2 as a loop over the unit cotangents e_m of `shape`, with
    to_cotangent(e_m) = G^H e_m: 0.25 (|vjp(c)|^2 + |vjp(ic)|^2) = |(G J)^H e_m|^2."""
    acc = 0.0
    for m in range(int(np.prod(shape))):
        e = np.zeros(shape, dtype=np.complex128)
        e.flat[m] = 1.0
        c = to_cotangent(e)
        g_re = reference_vjp(enc, d, c)
        g_im = reference_vjp(enc, d, 1j * c)
        acc += 0.25 * (np.dot(g_re, g_re) + np.dot(g_im, g_im))
    return float(acc)


def reference_aggregated_noise_variance(enc, H0j, D0j, var_H, var_D, dims):
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = reference_encode(enc, D0j)
    total = var_H * N_r * float(np.sum((F * F.conj()).real))
    j_frob2 = reference_frobenius2(enc, D0j, lambda e: e, enc.output_shape)
    hj_frob2 = reference_frobenius2(
        enc, D0j, lambda e: block_adjoint(H0j, e), (N_r * K, T))
    total += var_D * hj_frob2 + var_H * var_D * N_r * j_frob2
    return total / (N_r * K * T)


@pytest.fixture
def scene():
    rng = np.random.default_rng(11)
    dims = MimoDims(N_r=3, N_t=2, K=2, T=5, n=7, P=1.0)
    H = complex_normal(rng, (dims.K, dims.N_r, dims.N_t))
    d = rng.standard_normal(dims.n)
    return rng, dims, H, d


@pytest.mark.parametrize("kind", KINDS)
def test_pullback_matches_reference_vjp(kind, scene):
    rng, dims, _, d = scene
    enc = make_encoder(kind, rng, dims.N_t, dims.K, dims.T, dims.n)
    pull = enc.linearize(d)
    for _ in range(3):
        c = complex_normal(rng, enc.output_shape)
        assert np.array_equal(pull(c), reference_vjp(enc, d, c))


@pytest.mark.parametrize("kind", KINDS)
def test_jacobian_frobenius2_matches_reference_loop(kind, scene):
    rng, dims, _, d = scene
    enc = make_encoder(kind, rng, dims.N_t, dims.K, dims.T, dims.n)
    ref = reference_frobenius2(enc, d, lambda e: e, enc.output_shape)
    assert jacobian_frobenius2(enc, d) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_aggregated_noise_variance_matches_reference_loop(kind, scene):
    rng, dims, H, d = scene
    enc = make_encoder(kind, rng, dims.N_t, dims.K, dims.T, dims.n)
    new = aggregated_noise_variance(enc.linearize(d), H, 0.3, 0.2, dims)
    ref = reference_aggregated_noise_variance(enc, H, d, 0.3, 0.2, dims)
    assert new == pytest.approx(ref, rel=1e-10)


# --- properties over random shapes ------------------------------------------

shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 6))
seeds = st.integers(0, 2**32 - 1)


def point(kind, shape, seed):
    rng = np.random.default_rng(seed)
    enc = make_encoder(kind, rng, *shape)
    return rng, enc, rng.standard_normal(enc.input_dim)


def jacobian_size(enc, d):
    """Frobenius size of the terms J is made of. Power normalization
    subtracts a radial term from scale * J_base, and the two cancel exactly
    when the map is locally constant (a linear base with n = 1)."""
    if isinstance(enc, PowerNormalizedEncoder):
        scale = enc._target / np.linalg.norm(enc.base.encode(d))
        return scale * np.linalg.norm(enc.base.jacobian(d))
    return np.linalg.norm(enc.jacobian(d))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), shape=shapes, seed=seeds)
def test_linearize_equals_vjp(kind, shape, seed):
    rng, enc, d = point(kind, shape, seed)
    pull = enc.linearize(d)
    for _ in range(3):
        c = complex_normal(rng, enc.output_shape)
        assert np.array_equal(pull(c), enc.vjp(d, c))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), shape=shapes, seed=seeds)
def test_linearization_equals_views_and_reference(kind, shape, seed):
    rng, enc, d = point(kind, shape, seed)
    lin = enc.linearize(d)
    c = complex_normal(rng, enc.output_shape)
    assert np.array_equal(lin.value, enc.encode(d))
    assert np.array_equal(lin.value, reference_encode(enc, d))
    assert np.array_equal(lin(c), enc.vjp(d, c))
    assert np.array_equal(lin(c), reference_vjp(enc, d, c))
    assert np.array_equal(lin.jacobian(), enc.jacobian(d))
    assert np.array_equal(lin.jacobian(), reference_jacobian(enc, d))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), shape=shapes, seed=seeds)
def test_pullback_adjoint_to_dense_jacobian(kind, shape, seed):
    # v . pullback(c) = 2 Re <c, J v> for every real v
    rng, enc, d = point(kind, shape, seed)
    J = enc.jacobian(d)
    c = complex_normal(rng, enc.output_shape)
    v = rng.standard_normal(enc.input_dim)
    lhs = np.dot(v, enc.linearize(d)(c))
    rhs = 2.0 * np.vdot(c.ravel(), J @ v).real
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(c) * np.linalg.norm(v) * jacobian_size(enc, d)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("linear", "saturating")), shape=shapes, seed=seeds,
       pulls=st.integers(0, 5))
def test_power_normalized_linearize_encodes_base_once(kind, shape, seed, pulls):
    rng, base, d = point(kind, shape, seed)
    calls = []
    linearize = base.linearize
    base.linearize = lambda x: calls.append(1) or linearize(x)
    pull = PowerNormalizedEncoder(base, 1.0).linearize(d)
    for _ in range(pulls):
        pull(complex_normal(rng, base.output_shape))
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), shape=shapes, N_r=st.integers(1, 3), seed=seeds)
def test_frobenius2_exact_path_is_the_dense_norms(kind, shape, N_r, seed):
    # Against the dense Jacobian. Power normalization subtracts a radial term
    # that cancels scale * J_base exactly where the map is locally constant,
    # so there the absolute error is held to the size of the terms instead.
    rng, enc, d = point(kind, shape, seed)
    N_t, K, T, n = shape
    H = complex_normal(rng, (K, N_r, N_t))
    lin = enc.linearize(d)
    J = lin.jacobian()
    HJ = compound(H) @ J.reshape(N_t * K, T * n)
    floor = 1e-12 * jacobian_size(enc, d) ** 2 if kind.startswith("pn-") else 0.0
    j2, hj2 = lin.frobenius2(H)
    assert j2 == pytest.approx(np.linalg.norm(J) ** 2, rel=1e-10, abs=floor)
    assert hj2 == pytest.approx(np.linalg.norm(HJ) ** 2, rel=1e-10, abs=floor)
    j2_alone, none = lin.frobenius2()
    assert none is None
    assert j2_alone == pytest.approx(np.linalg.norm(J) ** 2, rel=1e-10, abs=floor)


def test_frobenius2_nonnegative_where_power_normalized_jacobian_vanishes():
    # With n = 1 and a linear base, f(d) = sqrt(P m) sign(d) A / ||A|| is
    # locally constant: J_PN = 0, and both closed forms are pure cancellation
    # of terms of size s^2 ||A||^2 (times ||H0||^2 for the second).
    rng = np.random.default_rng(2)
    N_t, K, T, N_r = 2, 3, 4, 3
    A = complex_normal(rng, (N_t * K * T, 1))
    enc = PowerNormalizedEncoder(LinearEncoder(A, (N_t * K, T)), 1.0)
    H = complex_normal(rng, (K, N_r, N_t))
    h2 = np.linalg.norm(compound(H), 2) ** 2
    for d in (-1e3, -0.3, 0.7, 2.5, 1e3):
        j2, hj2 = enc.linearize(np.array([d])).frobenius2(H)
        size = enc._target ** 2 / d**2  # s^2 ||A||^2
        assert 0.0 <= j2 <= 1e-12 * size
        assert 0.0 <= hj2 <= 1e-12 * size * h2


@settings(max_examples=30, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3), shape=shapes,
       N_r=st.integers(1, 3), seed=seeds)
def test_per_user_vjp_adjoint_to_jacobian(kinds, shape, N_r, seed):
    # Each user's pullback of its likelihood cotangent c_i = H0_i^H R, over
    # N_u = len(kinds) users of mixed encoder types:
    # v . vjp_i(d_i, c_i) = 2 Re <c_i, J_i v> for every real v.
    rng = np.random.default_rng(seed)
    N_t, K, T, n = shape
    R = complex_normal(rng, (N_r * K, T))
    for kind in kinds:
        enc = make_encoder(kind, rng, N_t, K, T, n)
        d, v = rng.standard_normal(n), rng.standard_normal(n)
        c = block_adjoint(complex_normal(rng, (K, N_r, N_t)), R)
        lhs = np.dot(enc.vjp(d, c), v)
        rhs = 2.0 * np.vdot(c.ravel(), enc.jacobian(d) @ v).real
        assert abs(lhs - rhs) <= (1e-10 * np.linalg.norm(c) * np.linalg.norm(v)
                                  * jacobian_size(enc, d))
