"""Reverse-process operations against hand values, closed forms, and FD/MC oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import MimoDims, block_adjoint, complex_normal
from pvdmimo.encoder import LinearEncoder, PowerNormalizedEncoder, SaturatingEncoder
from pvdmimo.priors import GaussianMixturePrior, GaussianPrior
from pvdmimo.pvd import (
    NoiseSchedule,
    PvdConfig,
    PvdDivergenceError,
    ReverseStep,
    aggregated_noise_variance,
    error_variances,
    likelihood_scores,
    run,
    sample_variational,
    transition_scores,
    tweedie,
    update_means,
)


# --- noise schedule -----------------------------------------------------------

def test_schedule_endpoint():
    s = NoiseSchedule(0.01, 100.0, 30)
    assert s.value(30) == pytest.approx(100.0)
    assert s.value(0) == 0.0


def test_schedule_geometric_midpoint():
    s = NoiseSchedule(0.01, 100.0, 30)
    assert s.value(15) == pytest.approx(1.0)


def test_schedule_j1_value():
    # independent evaluation: 0.01 * (100/0.01)^(1/30)
    s = NoiseSchedule(0.01, 100.0, 30)
    expect = 0.01 * math.exp(math.log(100.0 / 0.01) / 30.0)
    assert s.value(1) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.013594, abs=1e-6)


def test_schedule_monotone_and_range_errors():
    s = NoiseSchedule(0.05, 20.0, 12)
    vals = [s.value(j) for j in range(13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        s.value(-1)
    with pytest.raises(ValueError):
        s.value(13)
    with pytest.raises(ValueError):
        NoiseSchedule(1.0, 0.5, 10)


# --- step table ---------------------------------------------------------------

def _row(sched, j, zeta=0.06):
    """The step-table row of reverse step j for one schedule in both domains."""
    return next(r for r in PvdConfig(schedule_H=sched, schedule_D=sched, zeta_H=zeta,
                                     zeta_D=zeta).steps() if r.j == j)


def test_precisions_hand_value():
    # per-step ratio 2 with sigma_1 = 0.5 gives exact levels (1, 2) at j = (1, 2):
    # Lambda_1 = 4 / (1 * (4 - 1)) = 4/3, gap 3, eps = 0.5 * 3
    s = NoiseSchedule(0.5, 4.0, 3)
    row = _row(s, 1, zeta=0.5)
    assert row.sigma_H == pytest.approx(1.0)
    assert row.lambda_H == pytest.approx(4.0 / 3.0)
    assert row.gap_H == pytest.approx(3.0)
    assert row.eps_H == pytest.approx(1.5)
    assert (row.sigma_D, row.lambda_D, row.gap_D, row.eps_D) == (
        row.sigma_H, row.lambda_H, row.gap_H, row.eps_H)


def test_precisions_infinite_at_j0():
    # sampling at the last reverse step is deterministic in both domains
    row = _row(NoiseSchedule(0.01, 100.0, 30), 0)
    assert math.isinf(row.lambda_H) and math.isinf(row.lambda_D)


def test_precisions_range():
    # the table holds a row for each j = J-1, ..., 0 and none outside it
    s = NoiseSchedule(0.01, 100.0, 30)
    steps = PvdConfig(schedule_H=s, schedule_D=s).steps()
    assert [r.j for r in steps] == list(range(29, -1, -1))


def test_precisions_positive_over_whole_schedule():
    steps = PvdConfig(schedule_H=NoiseSchedule(0.01, 100.0, 30),
                      schedule_D=NoiseSchedule(0.05, 10.0, 30)).steps()
    for r in steps:
        if r.j > 0:
            assert r.lambda_H > 0 and math.isfinite(r.lambda_H)
            assert r.lambda_D > 0 and math.isfinite(r.lambda_D)


def _scalar_row(sched, zeta, j):
    """(sigma, Lambda, gap, eps) of step j by the scalar formulas on NoiseSchedule.value."""
    s_j, s_next = sched.value(j), sched.value(j + 1)
    v_j, v_next = s_j * s_j, s_next * s_next
    lam = math.inf if v_j == 0.0 else v_next / (v_j * (v_next - v_j))
    return s_j, lam, v_next - v_j, zeta * (v_next - v_j)


schedules = st.tuples(st.floats(1e-3, 10.0), st.floats(1.5, 1e5), st.floats(1e-3, 10.0))


@settings(max_examples=60, deadline=None)
@given(J=st.integers(1, 60), H=schedules, D=schedules)
def test_steps_equal_scalar_formulas(J, H, D):
    (s1_H, ratio_H, zeta_H), (s1_D, ratio_D, zeta_D) = H, D
    sched_H = NoiseSchedule(s1_H, s1_H * ratio_H, J)
    sched_D = NoiseSchedule(s1_D, s1_D * ratio_D, J)
    steps = PvdConfig(schedule_H=sched_H, schedule_D=sched_D,
                      zeta_H=zeta_H, zeta_D=zeta_D).steps()
    assert [r.j for r in steps] == list(range(J - 1, -1, -1))
    for r in steps:
        assert (r.sigma_H, r.lambda_H, r.gap_H, r.eps_H) == _scalar_row(sched_H, zeta_H, r.j)
        assert (r.sigma_D, r.lambda_D, r.gap_D, r.eps_D) == _scalar_row(sched_D, zeta_D, r.j)
        assert math.isinf(r.lambda_H) == math.isinf(r.lambda_D) == (r.j == 0)
        assert min(r.lambda_H, r.lambda_D, r.gap_H, r.gap_D, r.eps_H, r.eps_D) > 0


@pytest.mark.parametrize("sigma_1, sigma_J", [
    (1.0, 1.0 + 2.0**-52),  # neighbouring levels round to one value
    (1e-170, 1e-160),  # the variances underflow to 0
], ids=["flat", "underflow"])
def test_steps_reject_a_schedule_that_rounds_to_zero(sigma_1, sigma_J):
    # 0 < sigma_1 < sigma_J holds; the run used to fail on these only at its
    # first reverse step
    sched = NoiseSchedule(sigma_1, sigma_J, 30)
    with pytest.raises(ValueError, match=r"step size is not positive at j=\d+"):
        PvdConfig(schedule_H=sched, schedule_D=sched)


def test_config_is_frozen():
    # a field set after construction would skip the checks of __post_init__
    cfg = PvdConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.J_in = 0
    assert cfg.J_in == 20


# --- variational sampling -------------------------------------------------------

def _step(lam_H=1.0, lam_D=1.0):
    return ReverseStep(j=1, sigma_H=1.0, sigma_D=1.0, lambda_H=lam_H, lambda_D=lam_D,
                       gap_H=1.0, gap_D=1.0, eps_H=0.1, eps_D=0.1)


def _sample(H_mean, D_mean, step, rng):
    """One sample per user around the means: the step draw of one inner
    iteration and one sample."""
    noise = sample_variational(np.shape(H_mean), np.shape(D_mean), step, rng, 1, 1)
    return ((H_mean, D_mean) if noise is None else
            (H_mean + noise[0][0, 0], D_mean + noise[1][0, 0]))


def _reference_sample(H_mean, D_mean, step, rng):
    """The per-sample draw of one inner iteration, one generator call per
    sample: the loop body the step draw replaced, kept as its oracle."""
    if math.isinf(step.lambda_H):
        return H_mean, D_mean
    h = H_mean[0].size
    z = rng.standard_normal((len(D_mean), 2 * h + D_mean.shape[1]))
    noise_H = (z[:, :h] + 1j * z[:, h:2 * h]) * math.sqrt(1.0 / step.lambda_H / 2.0)
    return (H_mean + noise_H.reshape(H_mean.shape),
            D_mean + z[:, 2 * h:] / math.sqrt(step.lambda_D))


def test_sampling_deterministic_at_infinite_precision():
    H_mean = [np.full((1, 2, 1), 1.0 + 2.0j)]
    D_mean = [np.full(3, -0.5)]
    H_s, D_s = _sample(H_mean, D_mean, _step(math.inf, math.inf), np.random.default_rng(0))
    assert np.array_equal(H_s[0], H_mean[0])
    assert np.array_equal(D_s[0], D_mean[0])


def test_sampling_variance():
    H_mean = np.zeros((1, 1, 100, 100), dtype=complex)
    D_mean = np.zeros((1, 10_000))
    rng = np.random.default_rng(1)
    noise_H, noise_D = sample_variational(H_mean.shape, D_mean.shape, _step(), rng, 10, 1)
    H_all, D_all = [], []
    for it in range(10):
        H_s, D_s = H_mean + noise_H[it, 0], D_mean + noise_D[it, 0]
        H_all.append(H_s[0].ravel())
        D_all.append(D_s[0])
    H = np.concatenate(H_all)
    D = np.concatenate(D_all)
    assert H.size >= 100_000 and D.size >= 100_000
    assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.03
    assert abs(np.var(D) - 1.0) < 0.03


def test_sampling_reproducible():
    means = (np.zeros((1, 1, 2, 1), dtype=complex), np.zeros((1, 3)))
    a = _sample(*means, _step(), np.random.default_rng(5))
    b = _sample(*means, _step(), np.random.default_rng(5))
    assert np.array_equal(a[0][0], b[0][0]) and np.array_equal(a[1][0], b[1][0])


precisions = st.one_of(st.floats(1e-6, 1e6), st.just(math.inf))


@settings(max_examples=80, deadline=None)
@given(J_in=st.integers(1, 4), L=st.integers(1, 3), N_u=st.integers(1, 3),
       K=st.integers(1, 3), N_r=st.integers(1, 3), N_t=st.integers(1, 2),
       n=st.integers(1, 5), lam_H=precisions, lam_D=st.floats(1e-6, 1e6),
       seed=st.integers(0, 2**16))
def test_step_draw_equals_per_sample_draws(J_in, L, N_u, K, N_r, N_t, n, lam_H, lam_D, seed):
    # one draw for the step fills the noise in the order of J_in x L per-sample
    # draws, so every sample is bit-identical and the generator ends in the same
    # state; at infinite precision (j = 0) neither draws anything
    step = _step(lam_H, math.inf if math.isinf(lam_H) else lam_D)
    means = np.random.default_rng(seed + 1)
    shape_H, shape_D = (N_u, K, N_r, N_t), (N_u, n)
    rng_step, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    state = rng_step.bit_generator.state
    noise = sample_variational(shape_H, shape_D, step, rng_step, J_in, L)
    if math.isinf(lam_H):
        assert noise is None and rng_step.bit_generator.state == state
        return
    noise_H, noise_D = noise
    assert noise_H.shape == (J_in, L) + shape_H and noise_D.shape == (J_in, L) + shape_D
    for it in range(J_in):
        for sample in range(L):
            H_mean = complex_normal(means, shape_H)
            D_mean = means.standard_normal(shape_D)
            H_ref, D_ref = _reference_sample(H_mean, D_mean, step, rng_ref)
            assert (H_mean + noise_H[it, sample]).tobytes() == H_ref.tobytes()
            assert (D_mean + noise_D[it, sample]).tobytes() == D_ref.tobytes()
    assert rng_step.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("N_u, L", [(1, 1), (2, 3)])
def test_run_draws_one_block_of_normals_per_noisy_step(N_u, L):
    # a run draws the start (latent and mean per user) and then J_in x L samples
    # per step above j = 0, and nothing else: its generator ends where a fresh
    # one does after that many normals
    dims = MimoDims(N_r=2, N_t=1, K=2, T=4, N_u=N_u, n=3, P=1.0, sigma_n2=0.1)
    scene = np.random.default_rng(21)
    enc = LinearEncoder(complex_normal(scene, (N_u, 8, 3)) / math.sqrt(3), dims.signal_shape)
    Y = complex_normal(scene, dims.output_shape)
    sched = NoiseSchedule(0.05, 5.0, 6)
    cfg = PvdConfig(schedule_H=sched, schedule_D=sched, J_in=3, L=L)
    rng = np.random.default_rng(4)
    run(Y, enc, GaussianPrior(np.zeros((2, 2, 1), complex), 1.0, "complex"),
        GaussianPrior(np.zeros(3), 1.0, "real"), dims, cfg, rng)
    per_user = 2 * dims.K * dims.N_r * dims.N_t + dims.n
    fresh = np.random.default_rng(4)
    fresh.standard_normal(N_u * per_user * (2 + (cfg.J - 1) * cfg.J_in * cfg.L))
    assert rng.bit_generator.state == fresh.bit_generator.state


# --- tweedie and error variances -------------------------------------------------

def test_tweedie_sigma_zero_identity():
    pH = GaussianPrior(np.zeros((1, 2, 1), complex), 1.0, "complex")
    pD = GaussianPrior(np.zeros(3), 1.0, "real")
    H = np.full((1, 2, 1), 1.0 + 1.0j)
    D = np.arange(3.0)
    H0, D0 = tweedie(pH, pD, H, D, 0.0, 0.0)
    assert np.array_equal(H0, H) and np.array_equal(D0, D)


def test_tweedie_gaussian_shrinkage():
    pH = GaussianPrior(np.zeros((1, 1, 1), complex), 1.0, "complex")
    pD = GaussianPrior(np.zeros(1), 1.0, "real")
    H0, D0 = tweedie(pH, pD, np.full((1, 1, 1), 2.0 + 0j), np.array([2.0]), 1.0, 1.0)
    assert np.allclose(H0, 1.0)  # shrinkage factor 1/2
    assert np.allclose(D0, 1.0)


def test_tweedie_delta_prior_limit():
    M = np.full((1, 1, 1), 3.0 - 1.0j)
    pH = GaussianPrior(M, 1e-12, "complex")
    pD = GaussianPrior(np.zeros(1), 1.0, "real")
    H0, _ = tweedie(pH, pD, np.zeros((1, 1, 1), complex), np.zeros(1), 1.0, 1.0)
    assert np.allclose(H0, M, atol=1e-9)


def test_error_variances_conjugate_gaussian():
    pH = GaussianPrior(np.zeros((1, 2, 2), complex), 1.0, "complex")
    pD = GaussianPrior(np.zeros(4), 1.0, "real")
    vH, vD = error_variances(pH, pD, np.zeros((1, 2, 2), complex), np.zeros(4), 1.0, 1.0)
    assert vH == pytest.approx(0.5, abs=1e-12)
    assert vD == pytest.approx(0.5, abs=1e-12)


def test_error_variances_zero_noise():
    pH = GaussianPrior(np.zeros((1, 1, 1), complex), 1.0, "complex")
    pD = GaussianPrior(np.zeros(2), 1.0, "real")
    assert error_variances(pH, pD, np.zeros((1, 1, 1), complex), np.zeros(2), 0.0, 0.0) \
        == (0.0, 0.0)


def test_error_variances_divide_by_one_users_entries():
    # three stacked users: each gets the one-user variance, not one diluted
    # by the entry count of all three
    rng = np.random.default_rng(4)
    pH = GaussianPrior(np.zeros((1, 2, 2), complex), 1.0, "complex")
    mix = GaussianMixturePrior(rng.normal(size=(3, 4)), 0.2, [0.4, 0.3, 0.3], "real")
    H, D = np.zeros((3, 1, 2, 2), complex), rng.normal(size=(3, 4)) * 2
    vH, vD = error_variances(pH, mix, H, D, 1.0, 0.7)
    assert vH == pytest.approx(0.5, abs=1e-12)
    for i in range(3):
        assert vD[i] == error_variances(pH, mix, H[i], D[i], 1.0, 0.7)[1]


def test_error_variances_clamped():
    rng = np.random.default_rng(2)
    mix = GaussianMixturePrior(rng.normal(size=(3, 4)), 0.2, [0.4, 0.3, 0.3], "real")
    pH = GaussianPrior(np.zeros((1, 2, 2), complex), 1.0, "complex")
    for _ in range(25):
        x = rng.normal(size=4) * 3
        s = float(rng.uniform(0.05, 5.0))
        _, vD = error_variances(pH, mix, np.zeros((1, 2, 2), complex), x, s, s)
        assert 0.0 <= vD <= s * s


# --- aggregated noise variance ----------------------------------------------------

def _small_scene(rng, N_r=2, K=1, T=5, n=3):
    dims = MimoDims(N_r=N_r, N_t=1, K=K, T=T, n=n, P=1.0)
    A = complex_normal(rng, (K * T, n)) / math.sqrt(n)
    enc = LinearEncoder(A, (K, T))
    H = complex_normal(rng, (K, N_r, 1))
    D = rng.standard_normal(n)
    return dims, enc, H, D


def test_aggregated_noise_zero_variances():
    rng = np.random.default_rng(3)
    dims, enc, H, D = _small_scene(rng)
    assert aggregated_noise_variance(enc.linearize(D), H, 0.0, 0.0, dims) == 0.0


def test_aggregated_noise_first_term_hand():
    # var_H = 0.1, var_D = 0, ||f(D)||^2 = 10, N_r = 2, K = 1, T = 5 -> 0.2
    dims = MimoDims(N_r=2, N_t=1, K=1, T=5, n=1, P=1.0)
    A = np.full((5, 1), math.sqrt(2.0), dtype=complex)  # f(1) has norm^2 = 10
    enc = LinearEncoder(A, (1, 5))
    D = np.array([1.0])
    assert np.linalg.norm(enc.encode(D)) ** 2 == pytest.approx(10.0)
    H = np.ones((1, 2, 1), dtype=complex)
    out = aggregated_noise_variance(enc.linearize(D), H, 0.1, 0.0, dims)
    assert out == pytest.approx(0.2)


def test_aggregated_noise_monte_carlo_oracle():
    # formula vs E||dH f + H J dD + dH J dD||^2/(N_r K T) over 1e4 draws
    rng = np.random.default_rng(4)
    dims, enc, H, D = _small_scene(rng)
    var_H, var_D = 0.3, 0.2
    got = aggregated_noise_variance(enc.linearize(D), H, var_H, var_D, dims)
    F = enc.encode(D).reshape(dims.K, dims.N_t, dims.T)
    J = enc.jacobian(D)
    mc = 0.0
    draws = 10_000
    for _ in range(draws):
        dH = complex_normal(rng, H.shape, var_H)
        dD = rng.standard_normal(dims.n) * math.sqrt(var_D)
        JdD = (J @ dD).reshape(dims.K, dims.N_t, dims.T)
        dN = (np.einsum("krc,kct->krt", dH, F)
              + np.einsum("krc,kct->krt", H, JdD)
              + np.einsum("krc,kct->krt", dH, JdD))
        mc += np.linalg.norm(dN) ** 2
    mc /= draws * dims.N_r * dims.K * dims.T
    assert abs(got - mc) <= 0.03 * mc


def test_aggregated_noise_hutchinson_close_to_exact():
    # The closed forms against an independent Hutchinson estimate: Rademacher
    # probes V pulled back through the linearization give
    # E 0.25 (|pull(V)|^2 + |pull(iV)|^2) = ||J||_F^2, and ||H0 J||_F^2 with
    # the probes taken through H0^H first.
    rng = np.random.default_rng(5)
    dims, enc, H, D = _small_scene(rng, N_r=3, T=6, n=4)
    var_H, var_D = 0.2, 0.4
    lin = enc.linearize(D)
    exact = aggregated_noise_variance(lin, H, var_H, var_D, dims)
    probe_rng = np.random.default_rng(6)

    def hutchinson(shape, to_cotangent, probes=600):
        acc = 0.0
        for _ in range(probes):
            V = (probe_rng.integers(0, 2, size=shape) * 2.0 - 1.0).astype(complex)
            g_re, g_im = lin(to_cotangent(V)), lin(1j * to_cotangent(V))
            acc += 0.25 * (np.dot(g_re, g_re) + np.dot(g_im, g_im))
        return acc / probes

    N_r, K, T = dims.N_r, dims.K, dims.T
    j2 = hutchinson(enc.output_shape, lambda V: V)
    hj2 = hutchinson((N_r * K, T), lambda V: block_adjoint(H, V))
    F = lin.value
    est = (var_H * N_r * float(np.sum((F * F.conj()).real))
           + var_D * hj2 + var_H * var_D * N_r * j2) / (N_r * K * T)
    assert abs(est - exact) < 0.1 * exact


# --- likelihood scores --------------------------------------------------------------

def _at_sigma_zero(H, D):
    """Prior evaluations and noise levels at sigma = 0, where the Tweedie maps
    are the identity: the likelihood gradients come out unchained."""
    return (GaussianPrior(np.zeros_like(H), 1.0, "complex").at(H[None], 0.0),
            GaussianPrior(np.zeros_like(D), 1.0, "real").at(D[None], 0.0), 0.0, 0.0)


def test_likelihood_scores_zero_residual():
    rng = np.random.default_rng(7)
    dims, enc, H, D = _small_scene(rng)
    Y = np.einsum("krc,kct->krt", H, enc.encode(D).reshape(1, 1, 5)).reshape(2, 5)
    gH, gD = likelihood_scores(Y, enc.linearize(D[None]), H[None], 0.0, 1.0,
                               *_at_sigma_zero(H, D))
    assert np.allclose(gH[0], 0.0, atol=1e-12)
    assert np.allclose(gD[0], 0.0, atol=1e-12)


def test_likelihood_scores_scalar_hand():
    # Y = 2, H = 1, f(D) = 1, s2 = 1: grad_H = R conj(f) = 1
    enc = LinearEncoder(np.array([[1.0 + 0j]]), (1, 1))
    Y = np.array([[2.0 + 0j]])
    H = np.ones((1, 1, 1), dtype=complex)
    D = np.array([1.0])
    gH, gD = likelihood_scores(Y, enc.linearize(D[None]), H[None], 0.0, 1.0,
                               *_at_sigma_zero(H, D))
    assert np.allclose(gH[0], 1.0)
    # grad_D = vjp(H^H R / s2) = 2 Re(conj(1) * 1) = 2
    assert np.allclose(gD[0], 2.0)


@pytest.mark.parametrize("s_H, s_D", [(0.0, 0.0), (0.6, 0.8)],
                         ids=["sigma-zero", "sigma-positive"])
def test_likelihood_scores_match_fd(s_H, s_D):
    # central differences of -||Y - H0j(H) f(D0j(D))||^2/s2 on a 2x2 instance,
    # differentiating through the Tweedie maps (the identity at sigma = 0, so
    # that case checks the raw gradient)
    rng = np.random.default_rng(8)
    dims = MimoDims(N_r=2, N_t=2, K=1, T=4, n=3, P=1.0)
    A = complex_normal(rng, (8, 3)) / math.sqrt(3)
    enc = SaturatingEncoder(A, 1.2, (2, 4))
    pH = GaussianMixturePrior(
        complex_normal(rng, (2, 1, 2, 2)), 0.8, [0.5, 0.5], "complex")
    pD = GaussianMixturePrior(rng.normal(size=(2, 3)), 0.7, [0.4, 0.6], "real")
    H_j = complex_normal(rng, (1, 2, 2))
    D_j = rng.standard_normal(3)
    Y = complex_normal(rng, (2, 4))
    var_dn, sn2 = 0.05, 0.2
    s2 = var_dn + sn2

    def objective(Hj, Dj):
        H0, D0 = tweedie(pH, pD, Hj, Dj, s_H, s_D)
        F = enc.encode(D0)
        R = Y - np.einsum("krc,kct->krt", H0, F.reshape(1, 2, 4)).reshape(2, 4)
        return -np.linalg.norm(R) ** 2 / s2

    H0, D0 = tweedie(pH, pD, H_j, D_j, s_H, s_D)
    gH, gD = likelihood_scores(Y, enc.linearize(D0[None]), H0[None], var_dn, sn2,
                               pH.at(H_j[None], s_H), pD.at(D_j[None], s_D), s_H, s_D)

    h = 1e-5
    fdH = np.zeros_like(H_j)
    for idx in np.ndindex(H_j.shape):
        for step, weight in ((h, 1.0), (1j * h, 1.0j)):
            e = np.zeros_like(H_j); e[idx] = step
            d = (objective(H_j + e, D_j) - objective(H_j - e, D_j)) / (2 * h)
            fdH[idx] += 0.5 * weight * d
    fdD = np.zeros_like(D_j)
    for i in range(D_j.size):
        e = np.zeros_like(D_j); e[i] = h
        fdD[i] = (objective(H_j, D_j + e) - objective(H_j, D_j - e)) / (2 * h)

    assert np.max(np.abs(gH[0] - fdH)) <= 1e-5 * (1 + np.max(np.abs(fdH)))
    assert np.max(np.abs(gD[0] - fdD)) <= 1e-5 * (1 + np.max(np.abs(fdD)))


@settings(max_examples=30, deadline=None)
@given(n_u=st.integers(1, 3),
       shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2),
                       st.integers(1, 3), st.integers(1, 4)),
       kind=st.sampled_from(("linear", "saturating", "pn-linear", "pn-saturating")),
       sigma_zero=st.tuples(st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
def test_likelihood_scores_match_fd_over_shapes(n_u, shape, kind, sigma_zero, seed):
    # every user's gradients against central differences of
    # -||Y - sum_i H0j_i f_i(D0j_i)||^2 / s2 through the Tweedie maps
    K, N_r, N_t, T, n = shape
    rng = np.random.default_rng(seed)
    s_H, s_D = (0.0 if zero else float(rng.uniform(0.2, 1.5)) for zero in sigma_zero)

    def encoder(A):
        base = (SaturatingEncoder(A, 0.7, (N_t * K, T)) if kind.endswith("saturating")
                else LinearEncoder(A, (N_t * K, T)))
        return PowerNormalizedEncoder(base, 1.0) if kind.startswith("pn-") else base

    # one encoder with the users' matrices on axis 0 and one prior per domain
    # for all users; the objective evaluates them user by user
    A = complex_normal(rng, (n_u, N_t * K * T, n)) / math.sqrt(n)
    enc, encs = encoder(A), [encoder(A_i) for A_i in A]
    pH = GaussianMixturePrior(complex_normal(rng, (2, K, N_r, N_t)), 0.8, [0.5, 0.5], "complex")
    pD = GaussianMixturePrior(rng.normal(size=(2, n)), 0.7, [0.4, 0.6], "real")
    H_j = [complex_normal(rng, (K, N_r, N_t)) for _ in range(n_u)]
    D_j = [rng.standard_normal(n) for _ in range(n_u)]
    Y = complex_normal(rng, (N_r * K, T))
    var_dn, sn2 = 0.05, 0.2

    def objective(Hs, Ds):
        fit = 0
        for enc_i, Hj, Dj in zip(encs, Hs, Ds):
            H0, D0 = tweedie(pH, pD, Hj, Dj, s_H, s_D)
            fit = fit + np.einsum("krc,kct->krt", H0,
                                  enc_i.encode(D0).reshape(K, N_t, T)).reshape(N_r * K, T)
        return -np.linalg.norm(Y - fit) ** 2 / (var_dn + sn2)

    pt_H, pt_D = pH.at(np.stack(H_j), s_H), pD.at(np.stack(D_j), s_D)
    H0 = np.stack(H_j) if s_H == 0 else np.stack(H_j) + s_H**2 * pt_H.score
    D0 = np.stack(D_j) if s_D == 0 else np.stack(D_j) + s_D**2 * pt_D.score
    lin = enc.linearize(D0)
    gH, gD = likelihood_scores(Y, lin, H0, var_dn, sn2, pt_H, pt_D, s_H, s_D)

    def shifted(latents, i, e):
        return [x + e if u == i else x for u, x in enumerate(latents)]

    h = 1e-6
    for i in range(n_u):
        fdH = np.zeros((K, N_r, N_t), dtype=complex)
        for idx in np.ndindex(fdH.shape):
            for step in (h, 1j * h):
                e = np.zeros_like(fdH); e[idx] = step
                d = (objective(shifted(H_j, i, e), D_j)
                     - objective(shifted(H_j, i, -e), D_j)) / (2 * h)
                fdH[idx] += 0.5 * (step / h) * d
        fdD = np.array([(objective(H_j, shifted(D_j, i, h * e))
                         - objective(H_j, shifted(D_j, i, -h * e))) / (2 * h)
                        for e in np.eye(n)])
        for got, fd in ((gH[i], fdH), (gD[i], fdD)):
            assert np.max(np.abs(got - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))


# --- transition scores ----------------------------------------------------------

def test_transition_zero_displacement():
    s = NoiseSchedule(0.5, 8.0, 4)
    H = np.ones((1, 1, 1), dtype=complex)
    D = np.ones(2)
    gH, gD = transition_scores(H, H, D, D, _row(s, 2))
    assert np.all(gH == 0) and np.all(gD == 0)


def test_transition_hand_value():
    # displacement 3 over variance gap 3 -> score 1; sigma_1 value sqrt(3)
    # arises from ratio 2 per step with sigma_1 = sqrt(3)/2
    sched = NoiseSchedule(math.sqrt(3.0) / 2.0, 2.0 * math.sqrt(3.0), 2)
    row = _row(sched, 0)
    assert row.gap_H == pytest.approx(3.0)
    H1 = np.full((1, 1, 1), 3.0 + 0j)
    H0 = np.zeros((1, 1, 1), dtype=complex)
    gH, gD = transition_scores(H1, H0, np.array([3.0]), np.array([0.0]), row)
    assert np.allclose(gH, 1.0) and np.allclose(gD, 1.0)


def test_transition_linear_in_displacement():
    s = NoiseSchedule(0.5, 8.0, 4)
    rng = np.random.default_rng(9)
    H1 = complex_normal(rng, (1, 2, 1))
    D1 = rng.standard_normal(3)
    z_H = np.zeros_like(H1)
    z_D = np.zeros_like(D1)
    row = _row(s, 1)
    g1 = transition_scores(H1, z_H, D1, z_D, row)
    g2 = transition_scores(2 * H1, z_H, 2 * D1, z_D, row)
    assert np.allclose(g2[0], 2 * g1[0]) and np.allclose(g2[1], 2 * g1[1])


# --- mean updates -----------------------------------------------------------------

def test_update_means_zero_score():
    m = np.array([1.0, -2.0])
    assert np.array_equal(update_means(m, np.zeros(2), 0.5), m)


def test_update_means_hand_value():
    out = update_means(np.array([0.0]), np.array([2.0]), 0.5)
    assert np.allclose(out, [1.0])


def test_update_means_converges_to_prior_mean():
    # 1-D quadratic target: prior-score-only ascent reaches the prior mean
    # within 1e-3 in <= 200 inner steps (closed-form fixed point). Pins the
    # ascent sign: the descent variant diverges.
    prior = GaussianPrior(np.array([2.0]), 1.0, "real")
    H_mean, D_mean = [np.zeros((1, 1, 1), complex)], [np.zeros(1)]
    eps = 0.5
    rng = np.random.default_rng(0)
    for step in range(200):
        _, D_s = _sample(H_mean, D_mean, _step(math.inf, math.inf), rng)
        score = prior.first_order(D_s[0], 0.0)
        D_mean[0] = update_means(D_mean[0], score, eps)
        if abs(D_mean[0][0] - 2.0) < 1e-3:
            break
    assert abs(D_mean[0][0] - 2.0) < 1e-3
    assert step < 200


# --- full runs --------------------------------------------------------------------

def _known_channel_scene(seed, snr_db=20.0):
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


def _conjugate_mmse(Y, H, A, var_d, sn2):
    cols = A.reshape(1, 1, Y.shape[1], A.shape[1])
    B = np.einsum("krc,kctn->krtn", H, cols).reshape(-1, A.shape[1])
    Br = np.vstack([B.real, B.imag])
    yr = np.concatenate([Y.ravel().real, Y.ravel().imag])
    return np.linalg.solve(Br.T @ Br + (sn2 / 2.0) / var_d * np.eye(A.shape[1]),
                           Br.T @ yr)


def _tuned_cfg(s1_H=1e-3, s1_D=0.01, sJ=10.0, J=30, J_in=20, zeta=0.06):
    return PvdConfig(schedule_H=NoiseSchedule(s1_H, sJ, J),
                     schedule_D=NoiseSchedule(s1_D, sJ, J),
                     J_in=J_in, L=1, zeta_H=zeta, zeta_D=zeta)


def test_run_known_channel_tracks_mmse():
    hits = 0
    for seed in range(10):
        rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(seed)
        res = run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
                  GaussianPrior(np.zeros(8), 1.0, "real"), dims, _tuned_cfg(), rng)
        d_mmse = _conjugate_mmse(Y, H, A, 1.0, sn2)
        rel = np.linalg.norm(res.sources[0] - d_mmse) / np.linalg.norm(d_mmse)
        hits += rel < 0.05
    assert hits >= 9


def test_run_uninformative_observation_shrinks_to_prior():
    # Huge noise, zero-mean unit priors: the estimate collapses toward the
    # prior mean, median ||D_hat|| <= 0.1 * prior std over seeds. The output
    # is stochastic (gradient steps on sampled scores), so the bound is on
    # the median; a deep schedule makes the reverse pass forget its
    # initialization (init scale / (1 + sigma_J^2) is negligible).
    cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 1000.0, 60),
                    schedule_D=NoiseSchedule(0.01, 1000.0, 60),
                    J_in=20, L=16, zeta_H=0.1, zeta_D=0.1)
    d_norms, h_norms = [], []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dims = MimoDims(N_r=2, N_t=1, K=1, T=8, n=1, P=1.0, sigma_n2=1e6)
        enc = LinearEncoder(complex_normal(rng, (8, 1)), (1, 8))
        Y = complex_normal(rng, (2, 8), 1e6)
        res = run(Y, enc, GaussianPrior(np.zeros((1, 2, 1), complex), 1.0, "complex"),
                  GaussianPrior(np.zeros(1), 1.0, "real"), dims, cfg, rng)
        d_norms.append(np.linalg.norm(res.sources[0]))
        h_norms.append(np.linalg.norm(res.channels[0]))
    assert np.median(d_norms) <= 0.1
    assert np.median(h_norms) <= 0.1 * math.sqrt(2)


def test_run_single_user_bitwise_equals_n_u_1_lists():
    rng_a = np.random.default_rng(55)
    rng_b = np.random.default_rng(55)
    _, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(3)
    pH = GaussianPrior(H, 1e-6, "complex")
    pD = GaussianPrior(np.zeros(8), 1.0, "real")
    cfg = _tuned_cfg(J=10, J_in=5)
    res_scalar = run(Y, enc, pH, pD, dims, cfg, rng_a)
    res_list = run(Y, [enc], [pH], [pD], dims, cfg, rng_b)
    assert np.array_equal(res_scalar.channels[0], res_list.channels[0])
    assert np.array_equal(res_scalar.sources[0], res_list.sources[0])


def test_run_refuses_per_user_sequences_before_any_draw():
    # one object stacked on axis 0 is the only multi-user form (a channel
    # prior list: test_run_checks_its_inputs_at_entry[second-user])
    rng = np.random.default_rng(8)
    dims = MimoDims(N_r=2, N_t=1, K=1, T=4, N_u=2, n=3, P=1.0, sigma_n2=0.1)
    A = complex_normal(rng, (2, 4, 3))
    enc = LinearEncoder(A, dims.signal_shape)
    enc_a, enc_b = (LinearEncoder(A_i, dims.signal_shape) for A_i in A)
    pH = GaussianPrior(np.zeros((1, 2, 1), complex), 1.0, "complex")
    pD = GaussianPrior(np.zeros(3), 1.0, "real")
    Y = complex_normal(rng, dims.output_shape)
    state = rng.bit_generator.state
    for args, what in ((([enc_a, enc_b], pH, pD), "encoder"),
                       ((enc, pH, (pD, pD)), "source prior")):
        with pytest.raises(ValueError, match=f"pass one {what} for all users, stacked on "
                                             "axis 0, not a sequence of 2"):
            run(Y, *args, dims, PvdConfig(), rng)
    assert rng.bit_generator.state == state


def test_run_residual_decrease_known_channel():
    # median final residual over 30 seeded trials <= 0.5x initialization residual
    ratios = []
    for seed in range(30):
        rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(seed, snr_db=20.0)
        res = run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
                  GaussianPrior(np.zeros(8), 1.0, "real"), dims,
                  _tuned_cfg(J=30, J_in=20), rng)
        first = res.diagnostics[0].residual
        ratios.append(res.residual / first)
    assert np.median(ratios) <= 0.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_guard_carries_step_index():
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(0)
    cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 100.0, 10),
                    schedule_D=NoiseSchedule(0.01, 100.0, 10),
                    J_in=10, L=1, zeta_H=1e6, zeta_D=1e6)
    with pytest.raises(PvdDivergenceError) as exc_info:
        run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
            GaussianPrior(np.zeros(8), 1.0, "real"), dims, cfg, rng)
    assert 0 <= exc_info.value.step <= 9


class _PoisonedPrior(GaussianPrior):
    """A Gaussian prior one of whose evaluations is NaN at one smoothing level."""

    def __init__(self, mean, var0, domain, sigma, part):
        super().__init__(mean, var0, domain)
        self.bad_sigma, self.part = sigma, part

    def at(self, x, sigma):
        pt = super().at(x, sigma)
        if sigma != self.bad_sigma:
            return pt
        if self.part == "score":
            return pt._replace(score=np.full_like(pt.score, np.nan))
        if self.part == "trace":
            return pt._replace(trace=math.nan)
        return pt._replace(chain_vjp=lambda c: np.full_like(c, np.nan))


@pytest.mark.parametrize("side, part, j, what", [
    ("H", "trace", 3, "aggregated noise variance"),
    ("D", "chain_vjp", 3, "likelihood score"),
    ("H", "score", 0, "prior score"),
    # used to surface as the encoder's "source vector contains non-finite entries"
    ("D", "score", 3, "Tweedie source estimate"),
])
def test_run_divergence_names_the_quantity(side, part, j, what):
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(0)
    cfg = _tuned_cfg(J=6, J_in=3)
    sched = cfg.schedule_H if side == "H" else cfg.schedule_D
    pH = GaussianPrior(H, 1e-6, "complex")
    pD = GaussianPrior(np.zeros(8), 1.0, "real")
    if side == "H":
        pH = _PoisonedPrior(H, 1e-6, "complex", sched.value(j), part)
    else:
        pD = _PoisonedPrior(np.zeros(8), 1.0, "real", sched.value(j), part)
    with pytest.raises(PvdDivergenceError, match=f"non-finite {what} at reverse step j={j}, "
                       "inner iteration 0"):
        run(Y, enc, pH, pD, dims, cfg, rng)


class _LoudEncoder(LinearEncoder):
    """A linear encoder whose `encode`, which run calls only for each step's
    residual, is 1e300 times too loud; the reverse loop itself stays finite."""

    def encode(self, d):
        return 1e300 * super().encode(d)


def test_run_names_a_residual_norm_that_overflows():
    # The means stay finite, but the residual's norm overflows: a divergence named
    # at the step, not a numpy warning and an inf in the trace.
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PvdDivergenceError,
                           match="^non-finite residual at reverse step j=3, inner iteration 1, "
                                 "user 0$"):
            run(Y, _LoudEncoder(A, (1, 16)), GaussianPrior(H, 1e-6, "complex"),
                GaussianPrior(np.zeros(8), 1.0, "real"), dims, _tuned_cfg(J=4, J_in=2), rng)


def test_run_reads_the_schedule_once_per_run(monkeypatch):
    # the reverse loop reads its step constants from the table, so the
    # schedule is evaluated as often for J_in = 5, L = 2 as for J_in = 2, L = 1
    calls = []
    value = NoiseSchedule.value

    def counting(self, j):
        calls.append(j)
        return value(self, j)

    monkeypatch.setattr(NoiseSchedule, "value", counting)
    counts = []
    for J_in, L in ((2, 1), (2, 2), (5, 2)):
        rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(4)
        cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 1.0, 3),
                        schedule_D=NoiseSchedule(0.01, 1.0, 3), J_in=J_in, L=L,
                        zeta_H=1e-3, zeta_D=1e-3)
        calls.clear()
        run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
            GaussianPrior(np.zeros(8), 1.0, "real"), dims, cfg, rng)
        counts.append(len(calls))
    assert counts[0] > 0 and len(set(counts)) == 1


def test_run_shape_validation():
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(1)
    with pytest.raises(ValueError):
        run(Y[:2], enc, GaussianPrior(H, 1e-6, "complex"),
            GaussianPrior(np.zeros(8), 1.0, "real"), dims, _tuned_cfg(), rng)


def _entry_scene():
    rng = np.random.default_rng(12)
    dims = MimoDims(N_r=4, N_t=1, K=2, T=4, n=3, P=1.0, sigma_n2=0.1)
    enc = LinearEncoder(complex_normal(rng, (8, 3)), dims.signal_shape)
    return dims, enc, complex_normal(rng, dims.output_shape)


_GOOD_H = GaussianPrior(np.zeros((2, 4, 1), complex), 1.0, "complex")
_GOOD_D = GaussianPrior(np.zeros(3), 1.0, "real")


@pytest.mark.parametrize("noise, pH, pD, message", [
    (0.0, _GOOD_H, _GOOD_D, "dims.sigma_n2 must be > 0"),
    # a broadcastable mean would divide the Tweedie trace by the wrong entry count
    (0.1, GaussianPrior(np.zeros((1, 1, 1), complex), 1.0, "complex"), _GOOD_D,
     "channel prior must be complex with 8 entries, got complex with 1"),
    # a real channel prior would drop the imaginary parts
    (0.1, GaussianPrior(np.zeros((2, 4, 1)), 1.0, "real"), _GOOD_D,
     "channel prior must be complex with 8 entries, got real with 8"),
    (0.1, _GOOD_H, GaussianPrior(np.zeros(3, complex), 1.0, "complex"),
     "source prior must be real with 3 entries, got complex with 3"),
    (0.1, _GOOD_H, GaussianMixturePrior(np.array([[1.0], [-1.0]]), 0.25, [0.5, 0.5]),
     "source prior must be real with 3 entries, got real with 1"),
    # per-user lists are refused whole, however their second entries look
    (0.1, [_GOOD_H, _GOOD_H], [_GOOD_D, GaussianPrior(np.zeros(2), 1.0, "real")],
     "pass one channel prior for all users, stacked on axis 0, not a sequence of 2"),
], ids=["noiseless", "broadcast-channel-mean", "real-channel", "complex-source",
        "short-source-mixture", "second-user"])
def test_run_checks_its_inputs_at_entry(noise, pH, pD, message):
    dims, enc, Y = _entry_scene()
    n_u = len(pH) if isinstance(pH, list) else 1
    dims = dataclasses.replace(dims, sigma_n2=noise, N_u=n_u)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run(Y, enc, pH, pD, dims, _tuned_cfg(J=3, J_in=2), rng)
    assert rng.bit_generator.state == state  # nothing was drawn: no step ran


@pytest.mark.parametrize("bad, message", [
    ("Y", "Y contains non-finite entries"),
    ("encoder", r"encoder output \(4, 2\) != signal shape \(2, 4\)"),
], ids=["non-finite-Y", "encoder-shape"])
def test_run_refuses_a_bad_observation_or_encoder(bad, message):
    dims, enc, Y = _entry_scene()
    if bad == "Y":
        Y = Y.copy()
        Y[1, 2] = np.nan
    else:  # as many outputs, in the transposed shape
        enc = LinearEncoder(enc.A, (4, 2))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run(Y, enc, _GOOD_H, _GOOD_D, dims, _tuned_cfg(J=3, J_in=2), rng)
    assert rng.bit_generator.state == state


def test_pvd_config_refuses_schedules_of_different_lengths():
    with pytest.raises(ValueError, match="^channel and source schedules must share J$"):
        PvdConfig(schedule_H=NoiseSchedule(0.01, 10.0, 5),
                  schedule_D=NoiseSchedule(0.01, 10.0, 6))


def test_counts_must_be_integers():
    for make, message in [
        (lambda: MimoDims(N_r=2.0, N_t=1, K=1, T=1), "N_r must be a positive integer"),
        (lambda: NoiseSchedule(0.01, 1.0, 3.0), "J must be a positive integer"),
        (lambda: PvdConfig(J_in=3.0), "J_in must be a positive integer"),
        (lambda: PvdConfig(L=1.0), "L must be a positive integer"),
    ]:
        with pytest.raises(ValueError, match=message):
            make()
    # numpy integers are integers
    dims = MimoDims(N_r=np.int64(2), N_t=np.int32(1), K=1, T=np.int64(3))
    assert dims.output_shape == (2, 3)
    sched = NoiseSchedule(0.01, 1.0, np.int64(3))
    cfg = PvdConfig(schedule_H=sched, schedule_D=sched, J_in=np.int64(3), L=np.int32(2))
    assert len(cfg.steps()) == 3


def test_pvd_config_reports_every_bad_field():
    with pytest.raises(ValueError, match=r"^J_in must be a positive integer, got 0; "
                                         r"L must be a positive integer, got 2\.0; "
                                         r"zeta_H must be > 0, got 0\.0; "
                                         r"zeta_D must be > 0, got nan$"):
        PvdConfig(J_in=0, L=2.0, zeta_H=0.0, zeta_D=float("nan"))


def test_run_returns_diagnostics():
    rng, dims, H, A, enc, d_true, Y, sn2 = _known_channel_scene(2)
    res = run(Y, enc, GaussianPrior(H, 1e-6, "complex"),
              GaussianPrior(np.zeros(8), 1.0, "real"), dims,
              _tuned_cfg(J=10, J_in=5), rng)
    assert len(res.diagnostics) == 10
