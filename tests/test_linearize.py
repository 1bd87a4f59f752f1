"""Encoder.linearize: the cached pullback against the per-probe vjp loops it
replaced and the per-call encode and Jacobian formulas (bitwise), and its
properties over random shapes."""

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
)
from pvdmimo.pvd import _blocks_adjoint, aggregated_noise_variance

KINDS = ("linear", "saturating", "pn-linear", "pn-saturating")


def make_encoder(kind, rng, N_t, K, T, n):
    A = complex_normal(rng, (N_t * K * T, n)) / np.sqrt(n)
    shape = (N_t * K, T)
    base = (SaturatingEncoder(A, 0.7, shape) if kind.endswith("saturating")
            else LinearEncoder(A, shape))
    return PowerNormalizedEncoder(base, 1.0) if kind.startswith("pn-") else base


# --- reference: the per-call vjp and per-probe loops before linearize -------

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


def reference_jacobian_frobenius2(enc, d, probes, rng):
    acc = 0.0
    for _ in range(probes):
        V = rng.integers(0, 2, size=enc.output_shape) * 2.0 - 1.0
        g_re = reference_vjp(enc, d, V.astype(np.complex128))
        g_im = reference_vjp(enc, d, 1j * V)
        acc += 0.25 * (np.dot(g_re, g_re) + np.dot(g_im, g_im))
    return float(acc / probes)


def reference_aggregated_noise_variance(enc, H0j, D0j, var_H, var_D, dims, probes, rng):
    """The Hutchinson branch (var_D > 0, above the exact threshold)."""
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = enc.encode(D0j)
    total = var_H * N_r * float(np.sum((F * F.conj()).real))
    j_frob2 = reference_jacobian_frobenius2(enc, D0j, probes, rng)
    acc = 0.0
    for _ in range(probes):
        V = rng.integers(0, 2, size=(N_r * K, T)) * 2.0 - 1.0
        W = _blocks_adjoint(H0j, V.astype(np.complex128))
        g_re = reference_vjp(enc, D0j, W)
        g_im = reference_vjp(enc, D0j, 1j * W)
        acc += 0.25 * (np.dot(g_re, g_re) + np.dot(g_im, g_im))
    hj_frob2 = acc / probes
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
    r_new, r_ref = np.random.default_rng(5), np.random.default_rng(5)
    new = jacobian_frobenius2(enc, d, probes=8, rng=r_new, exact_threshold=0)
    ref = reference_jacobian_frobenius2(enc, d, 8, r_ref)
    assert new == ref
    assert r_new.random() == r_ref.random()


@pytest.mark.parametrize("kind", KINDS)
def test_aggregated_noise_variance_matches_reference_loop(kind, scene):
    rng, dims, H, d = scene
    enc = make_encoder(kind, rng, dims.N_t, dims.K, dims.T, dims.n)
    r_new, r_ref = np.random.default_rng(5), np.random.default_rng(5)
    new = aggregated_noise_variance(enc.linearize(d), H, 0.3, 0.2, dims, probes=8, rng=r_new,
                                    exact_threshold=0)
    ref = reference_aggregated_noise_variance(enc, H, d, 0.3, 0.2, dims, 8, r_ref)
    assert new == ref
    assert r_new.random() == r_ref.random()


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
