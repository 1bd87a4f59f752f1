"""One evaluation per sample point: ScorePrior.at against the pre-change
per-call prior formulas, and pvd.run against the pre-change inner loop that
evaluated every stage separately and recomputed every step constant from the
schedules (both kept here as the references, and required to agree bitwise)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import LinearEncoder, PowerNormalizedEncoder, SaturatingEncoder
from pvdmimo.priors import GaussianMixturePrior, GaussianPrior
from pvdmimo.pvd import NoiseSchedule, PvdConfig, run


def _apply_blocks(H_blocks, X):
    """Block-diagonal product: (K,N_r,N_t) blocks times (N_t*K, T) signal."""
    K, N_r, N_t = H_blocks.shape
    return np.einsum("krc,kct->krt", H_blocks, X.reshape(K, N_t, -1)).reshape(K * N_r, -1)


def _blocks_adjoint(H_blocks, Y):
    """Adjoint block product: H^H Y, returning signal shape (N_t*K, T)."""
    K, N_r, N_t = H_blocks.shape
    return np.einsum("krc,krt->kct", H_blocks.conj(), Y.reshape(K, N_r, -1)).reshape(K * N_t, -1)


# --- reference: the per-call prior formulas before ScorePrior.at -------------

def _abs2(x):
    return (x * x.conj()).real if np.iscomplexobj(x) else x * x


def _ref_mixture(prior, x, sigma):
    s2 = prior.var0 + sigma * sigma
    diffs = prior.means - x[None, ...]
    q = np.array([float(np.sum(_abs2(d))) for d in diffs])
    expo = -q / s2 if prior.domain == "complex" else -q / (2.0 * s2)
    logits = np.log(prior.weights) + expo
    m = np.max(logits)
    logz = m + np.log(np.sum(np.exp(logits - m)))
    return np.exp(logits - logz), diffs, s2


def _ref_stack(prior, a):
    if prior.domain == "complex":
        return np.concatenate([a.real.ravel(), a.imag.ravel()])
    return a.ravel().astype(np.float64)


def reference_first_order(prior, x, sigma):
    if isinstance(prior, GaussianPrior):
        return (prior.mean - x) / (prior.var0 + sigma * sigma)
    r, diffs, s2 = _ref_mixture(prior, x, sigma)
    return np.tensordot(r, diffs, axes=(0, 0)) / s2


def reference_second_order_trace(prior, x, sigma):
    if isinstance(prior, GaussianPrior):
        return -prior.dim / (prior.var0 + sigma * sigma)
    r, diffs, s2 = _ref_mixture(prior, x, sigma)
    u = diffs / s2
    g = np.tensordot(r, u, axes=(0, 0))
    u_norms = np.array([float(np.sum(_abs2(uc))) for uc in u])
    return float(np.dot(r, u_norms) - prior.dim / s2 - np.sum(_abs2(g)))


def reference_tweedie_chain_vjp(prior, x, sigma, cotangent):
    if isinstance(prior, GaussianPrior):
        return np.asarray(cotangent) * (prior.var0 / (prior.var0 + sigma * sigma))
    r, diffs, s2 = _ref_mixture(prior, x, sigma)
    v = s2 / 2.0 if prior.domain == "complex" else s2
    s_eff2 = sigma * sigma / 2.0 if prior.domain == "complex" else sigma * sigma
    u = np.stack([_ref_stack(prior, d) / v for d in diffs])
    G = r @ u
    g = _ref_stack(prior, np.asarray(cotangent))
    out = g + s_eff2 * ((r * (u @ g)) @ u - G * (G @ g) - g / v)
    if prior.domain == "complex":
        h = out.size // 2
        return (out[:h] + 1j * out[h:]).reshape(np.shape(cotangent))
    return out.reshape(np.shape(cotangent))


# --- properties over random shapes, sigma, both priors and both domains -----

def _draw(rng, shape, domain, scale=1.0):
    if domain == "complex":
        return complex_normal(rng, shape, scale)
    return rng.standard_normal(shape) * math.sqrt(scale)


def make_prior(kind, domain, shape, components, rng):
    if kind == "gaussian":
        return GaussianPrior(_draw(rng, shape, domain), rng.uniform(0.1, 2.0), domain)
    w = rng.uniform(0.2, 1.0, components)
    return GaussianMixturePrior(_draw(rng, (components,) + shape, domain, 4.0),
                                rng.uniform(0.1, 2.0), w / np.sum(w), domain)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gaussian", "mixture")),
       domain=st.sampled_from(("real", "complex")),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
       components=st.integers(1, 4),
       sigma_zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_prior_at_equals_views_and_reference(kind, domain, shape, components, sigma_zero, seed):
    rng = np.random.default_rng(seed)
    prior = make_prior(kind, domain, shape, components, rng)
    x = _draw(rng, shape, domain, 3.0)
    c = _draw(rng, shape, domain)
    sigma = 0.0 if sigma_zero else float(rng.uniform(0.01, 5.0))
    pt = prior.at(x, sigma)
    assert np.array_equal(pt.score, prior.first_order(x, sigma))
    assert np.array_equal(pt.score, reference_first_order(prior, x, sigma))
    assert pt.trace() == prior.second_order_trace(x, sigma)
    assert pt.trace() == reference_second_order_trace(prior, x, sigma)
    assert np.array_equal(pt.chain_vjp(c), prior.tweedie_chain_vjp(x, sigma, c))
    assert np.array_equal(pt.chain_vjp(c), reference_tweedie_chain_vjp(prior, x, sigma, c))


# --- reference: the pvd.run inner loop before one evaluation per point ------

def _ref_tweedie(pH, pD, H_j, D_j, sH, sD):
    H0j = H_j if sH == 0 else H_j + sH**2 * pH.first_order(H_j, sH)
    D0j = D_j if sD == 0 else D_j + sD**2 * pD.first_order(D_j, sD)
    return H0j, D0j


def _ref_error_variances(pH, pD, H_j, D_j, sH, sD):
    out = []
    for prior, x, s in ((pH, H_j, sH), (pD, D_j, sD)):
        if s == 0:
            out.append(0.0)
            continue
        v = s * s + s**4 * prior.second_order_trace(x, s) / x.size
        out.append(float(min(max(v, 0.0), s * s)))
    return out[0], out[1]


def _ref_aggregated_noise(enc, H0j, D0j, var_H, var_D, dims):
    """Jacobian norms from Linearization.frobenius2, whose closed forms have
    their own dense-Jacobian oracle (tests/test_linearize.py)."""
    if var_H == 0.0 and var_D == 0.0:
        return 0.0
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = enc.encode(D0j)
    total = var_H * N_r * float(np.sum((F * F.conj()).real))
    if var_D > 0:
        j_frob2, hj_frob2 = enc.linearize(D0j).frobenius2(H0j)
        total += var_D * hj_frob2 + var_H * var_D * N_r * j_frob2
    return total / (N_r * K * T)


def _ref_likelihood(Y, encoders, H0j_list, D0j_list, var_dn, sigma_n2,
                    priors_H, priors_D, H_j_list, D_j_list, sH, sD):
    s2 = var_dn + sigma_n2
    T = Y.shape[1]
    F_list = [enc.encode(D0j) for enc, D0j in zip(encoders, D0j_list)]
    R = Y - sum(_apply_blocks(H, F) for H, F in zip(H0j_list, F_list))
    grads_H, grads_D = [], []
    for i, (enc, H0j, D0j, F) in enumerate(zip(encoders, H0j_list, D0j_list, F_list)):
        K, N_r, N_t = H0j.shape
        gH = np.einsum("krt,kct->krc", R.reshape(K, N_r, T),
                       F.reshape(K, N_t, T).conj()) / s2
        gD = enc.vjp(D0j, _blocks_adjoint(H0j, R).reshape(enc.output_shape) / s2)
        if sH > 0:
            gH = priors_H[i].tweedie_chain_vjp(H_j_list[i], sH, gH)
        if sD > 0:
            gD = priors_D[i].tweedie_chain_vjp(D_j_list[i], sD, gD)
        grads_H.append(gH)
        grads_D.append(gD)
    return grads_H, grads_D


def _ref_precision(sched, j):
    v_j, v_next = sched.variance(j), sched.variance(j + 1)
    return math.inf if v_j == 0.0 else v_next / (v_j * (v_next - v_j))


def _ref_sample(H_mean, D_mean, lam_H, lam_D, rng):
    H_s, D_s = [], []
    for Hm, Dm in zip(H_mean, D_mean):
        H_s.append(Hm.copy() if math.isinf(lam_H)
                   else Hm + complex_normal(rng, Hm.shape, 1.0 / lam_H))
        D_s.append(Dm.copy() if math.isinf(lam_D)
                   else Dm + rng.standard_normal(Dm.shape) / math.sqrt(lam_D))
    return H_s, D_s


def reference_run(Y, encoders, priors_H, priors_D, dims, config, rng):
    """pvd.run as it was, per-user lists throughout and every step constant
    recomputed from the schedules where it is used; returns (H, D, diag
    rows)."""
    n_u = dims.N_u
    sched_H, sched_D = config.schedule_H, config.schedule_D
    J = config.J
    h_shape = (dims.K, dims.N_r, dims.N_t)
    H_latent, D_latent, H_mean, D_mean = [], [], [], []
    for _ in range(n_u):
        H_latent.append(complex_normal(rng, h_shape, sched_H.variance(J)))
        D_latent.append(rng.standard_normal(dims.n) * sched_D.value(J))
        H_mean.append(complex_normal(rng, h_shape, sched_H.variance(J - 1)))
        D_mean.append(rng.standard_normal(dims.n) * sched_D.value(J - 1))
    diag = []
    for j in range(J - 1, -1, -1):
        for it in range(config.J_in):
            sH, sD = sched_H.value(j), sched_D.value(j)
            gap_H = sched_H.variance(j + 1) - sched_H.variance(j)
            gap_D = sched_D.variance(j + 1) - sched_D.variance(j)
            acc_H = [np.zeros(h_shape, dtype=np.complex128) for _ in range(n_u)]
            acc_D = [np.zeros(dims.n) for _ in range(n_u)]
            for _ in range(config.L):
                H_s, D_s = _ref_sample(H_mean, D_mean, _ref_precision(sched_H, j),
                                       _ref_precision(sched_D, j), rng)
                H0j_list, D0j_list = [], []
                var_dn = 0.0
                for i in range(n_u):
                    H0j, D0j = _ref_tweedie(priors_H[i], priors_D[i], H_s[i], D_s[i], sH, sD)
                    vH, vD = _ref_error_variances(
                        priors_H[i], priors_D[i], H_s[i], D_s[i], sH, sD)
                    var_dn += _ref_aggregated_noise(encoders[i], H0j, D0j, vH, vD, dims)
                    H0j_list.append(H0j)
                    D0j_list.append(D0j)
                lik_H, lik_D = _ref_likelihood(
                    Y, encoders, H0j_list, D0j_list, var_dn, dims.sigma_n2,
                    priors_H, priors_D, H_s, D_s, sH, sD)
                for i in range(n_u):
                    pr_H = priors_H[i].first_order(H_s[i], sH)
                    pr_D = priors_D[i].first_order(D_s[i], sD)
                    acc_H[i] += (H_latent[i] - H_s[i]) / gap_H + pr_H + lik_H[i]
                    acc_D[i] += (D_latent[i] - D_s[i]) / gap_D + pr_D + lik_D[i]
            g_H = [a / config.L for a in acc_H]
            g_D = [a / config.L for a in acc_D]
            for i in range(n_u):
                H_mean[i] = H_mean[i] + config.zeta_H * gap_H * g_H[i]
                D_mean[i] = D_mean[i] + config.zeta_D * gap_D * g_D[i]
            last = (float(np.linalg.norm(np.stack(g_H))), float(np.linalg.norm(np.stack(g_D))))
        H_latent = [h.copy() for h in H_mean]
        D_latent = [d.copy() for d in D_mean]
        fit = sum(_apply_blocks(H, enc.encode(D))
                  for enc, H, D in zip(encoders, H_mean, D_mean))
        diag.append((j, float(np.linalg.norm(Y - fit))) + last)
    return H_mean, D_mean, diag


# norms: the exact closed forms of Linearization.frobenius2, the only path
@pytest.mark.parametrize("norms", ["exact"])
@pytest.mark.parametrize("source", ["gaussian", "mixture"])
@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("n_u", [1, 3])
def test_run_matches_reference_loop(n_u, L, source, norms):
    rng = np.random.default_rng(100 + 10 * n_u + L)
    dims = MimoDims(N_r=3, N_t=2, K=2, T=3, N_u=n_u, n=4, P=1.0, sigma_n2=0.05)
    shape = dims.signal_shape
    encoders = []
    for i in range(n_u):
        A = complex_normal(rng, (shape[0] * shape[1], dims.n)) / 2.0
        base = SaturatingEncoder(A, 0.8, shape) if i % 2 else LinearEncoder(A, shape)
        encoders.append(base if i == 1 else PowerNormalizedEncoder(base, dims.P))
    prior_H = GaussianPrior(np.zeros((dims.K, dims.N_r, dims.N_t), complex), 1.0, "complex")
    prior_D = (GaussianPrior(np.zeros(dims.n), 1.0, "real") if source == "gaussian"
               else GaussianMixturePrior(np.stack([np.ones(dims.n), -np.ones(dims.n)]),
                                         0.25, [0.4, 0.6], "real"))
    Y = complex_normal(rng, dims.output_shape)
    # the two domains get different schedules and step scales, so a constant
    # read from the wrong domain shows
    cfg = PvdConfig(schedule_H=NoiseSchedule(0.01, 2.0, 4),
                    schedule_D=NoiseSchedule(0.02, 1.5, 4), J_in=3, L=L,
                    zeta_H=0.06, zeta_D=0.05)
    res = run(Y, encoders, prior_H, prior_D, dims, cfg, np.random.default_rng(7))
    H, D, diag = reference_run(Y, encoders, [prior_H] * n_u, [prior_D] * n_u, dims, cfg,
                               np.random.default_rng(7))
    assert res.channels.shape == (n_u, dims.K, dims.N_r, dims.N_t)
    assert res.sources.shape == (n_u, dims.n)
    for i in range(n_u):
        assert np.array_equal(res.channels[i], H[i])
        assert np.array_equal(res.sources[i], D[i])
    assert [(s.j, s.residual, s.grad_norm_H, s.grad_norm_D) for s in res.diagnostics] == diag


def test_run_evaluates_each_prior_and_encoder_once_per_point():
    rng = np.random.default_rng(3)
    dims = MimoDims(N_r=2, N_t=1, K=1, T=4, N_u=2, n=3, P=1.0, sigma_n2=0.1)
    base = SaturatingEncoder(np.stack([complex_normal(rng, (4, 3)) for _ in range(2)]), 0.8,
                             dims.signal_shape)
    prior_H = GaussianPrior(np.zeros((1, 2, 1), complex), 1.0, "complex")
    prior_D = GaussianMixturePrior(np.stack([np.ones(3), -np.ones(3)]), 0.25, [0.5, 0.5])
    calls = {"H": 0, "D": 0, "encoder": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    prior_H.at = counting("H", prior_H.at)
    prior_D.at = counting("D", prior_D.at)
    base._check_input = counting("encoder", base._check_input)
    sched = NoiseSchedule(0.01, 2.0, 3)
    cfg = PvdConfig(schedule_H=sched, schedule_D=sched, J_in=2, L=2)
    run(complex_normal(rng, dims.output_shape), PowerNormalizedEncoder(base, 1.0),
        prior_H, prior_D, dims, cfg, rng)
    points = cfg.J * cfg.J_in * cfg.L
    # one evaluation per point for both users together
    assert calls["H"] == calls["D"] == points
    # one check per point, plus the residual's encode once per reverse step
    assert calls["encoder"] == points + cfg.J
