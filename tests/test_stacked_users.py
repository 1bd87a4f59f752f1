"""Users on axis 0: the stacked prior evaluation and encoder linearization
against one call per user (bit for bit, over random shapes and user counts),
the harness's one stacked link against the per-user reference loop, and the
user a divergence is found in."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvdmimo import harness
from pvdmimo import metrics as mt
from pvdmimo import pvd as pv
from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import LinearEncoder, PowerNormalizedEncoder, SaturatingEncoder
from pvdmimo.priors import GaussianMixturePrior, GaussianPrior

from test_point_evaluation import reference_run

KINDS = ("linear", "saturating", "pn-linear", "pn-saturating")
shapes = st.tuples(*(st.integers(1, 4) for _ in range(5)))  # K, N_r, N_t, T, n


def _draw(rng, shape, domain, scale=1.0):
    if domain == "complex":
        return complex_normal(rng, shape, scale)
    return rng.standard_normal(shape) * math.sqrt(scale)


@settings(max_examples=80, deadline=None)
@given(n_u=st.integers(1, 4), shape=shapes,
       kind=st.sampled_from(("gaussian", "anchored", "mixture")),
       domain=st.sampled_from(("real", "complex")), components=st.integers(1, 4),
       sigma_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_prior_at_equals_per_user_calls(n_u, shape, kind, domain, components,
                                                sigma_zero, seed):
    # a channel-shaped event in the complex domain, a source vector in the real one
    K, N_r, N_t, _, n = shape
    event = (K, N_r, N_t) if domain == "complex" else (n,)
    rng = np.random.default_rng(seed)
    var = rng.uniform(0.1, 2.0)
    if kind == "mixture":
        w = rng.uniform(0.2, 1.0, components)
        prior = GaussianMixturePrior(_draw(rng, (components,) + event, domain, 4.0), var,
                                     w / np.sum(w), domain)
        per_user = [prior] * n_u
    elif kind == "anchored":  # one mean per user, as the harness's 'truth' anchors
        means = _draw(rng, (n_u,) + event, domain)
        prior = GaussianPrior(means, var, domain, event)
        per_user = [GaussianPrior(m, var, domain) for m in means]
    else:
        prior = GaussianPrior(_draw(rng, event, domain), var, domain)
        per_user = [prior] * n_u
    x = _draw(rng, (n_u,) + event, domain, 3.0)
    c = _draw(rng, (n_u,) + event, domain)
    sigma = 0.0 if sigma_zero else float(rng.uniform(0.01, 5.0))
    pt = prior.at(x, sigma)
    traces = np.broadcast_to(pt.trace, (n_u,))  # a Gaussian's is one float for all
    pulled = pt.chain_vjp(c)
    assert pt.score.shape == pulled.shape == x.shape
    for i, p in enumerate(per_user):
        one = p.at(x[i], sigma)
        assert np.array_equal(pt.score[i], one.score)
        assert traces[i] == one.trace
        assert np.array_equal(pulled[i], one.chain_vjp(c[i]))


def _encoder(kind, A, shape):
    base = (SaturatingEncoder(A, 0.7, shape) if kind.endswith("saturating")
            else LinearEncoder(A, shape))
    return PowerNormalizedEncoder(base, 1.3) if kind.startswith("pn-") else base


@settings(max_examples=80, deadline=None)
@given(n_u=st.integers(1, 4), shape=shapes, kind=st.sampled_from(KINDS),
       shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n_u=1, shape=(2, 3, 2, 3, 4), kind="linear", shared=False, seed=1)
@example(n_u=1, shape=(2, 3, 2, 3, 4), kind="saturating", shared=False, seed=2)
@example(n_u=1, shape=(2, 3, 2, 3, 4), kind="pn-linear", shared=False, seed=3)
@example(n_u=1, shape=(1, 2, 1, 2, 1), kind="pn-saturating", shared=False, seed=4)
def test_stacked_linearize_equals_per_user_calls(n_u, shape, kind, shared, seed):
    # one (m, n) matrix shared by all users, or one per user stacked on axis 0
    K, N_r, N_t, T, n = shape
    rng = np.random.default_rng(seed)
    out = (N_t * K, T)
    A = complex_normal(rng, (n_u, N_t * K * T, n)) / math.sqrt(n)
    enc = _encoder(kind, A[0] if shared else A, out)
    d = rng.standard_normal((n_u, n)) * 2.0
    H = complex_normal(rng, (n_u, K, N_r, N_t))
    c = complex_normal(rng, (n_u,) + out)
    lin = enc.linearize(d)
    pulled, J = lin(c), lin.jacobian()
    j2, hj2 = lin.frobenius2(H)
    j2_alone, _ = lin.frobenius2()
    assert lin.value.shape == c.shape and pulled.shape == d.shape
    for i in range(n_u):
        one = _encoder(kind, A[0 if shared else i], out).linearize(d[i])
        assert np.array_equal(lin.value[i], one.value)
        assert np.array_equal(pulled[i], one(c[i]))
        assert np.array_equal(J[i], one.jacobian())
        assert (j2[i], hj2[i]) == one.frobenius2(H[i])
        assert j2_alone[i] == one.frobenius2()[0]
    if n_u == 1 and not shared:  # one (n,) source through the same A, of shape (1, m, n)
        one = enc.linearize(d[0])
        for got, row in ((one.value, lin.value), (one(c[0]), pulled), (one.jacobian(), J),
                         *zip(one.frobenius2(H[0]), (j2, hj2)), (one.frobenius2()[0], j2_alone)):
            assert np.shape(got) == np.shape(row[0]) and np.array_equal(got, row[0])


def _multiuser_config():
    rho = [[0.5 ** abs(i - j) for j in range(4)] for i in range(4)]
    return harness.ExperimentConfig.from_dict({
        "dims": {"N_r": 4, "N_t": 1, "K": 2, "T": 8, "N_u": 3, "n": 4, "P": 1.0},
        "channel": {"model": "kronecker", "R_rx": rho, "R_tx": [[1.0]]},
        "encoder": {"type": "saturating", "init": "gaussian", "gain": 0.7},
        "prior_source": {"type": "mixture", "means": [[1.0] * 4, [-1.0] * 4],
                         "var": 0.25, "weights": [0.5, 0.5]},
        "pvd": {"J": 4, "J_in": 2, "sigmaJ_H": 10.0, "sigmaJ_D": 10.0},
        "baselines": {"lmmse": False, "oracle_lmmse": False},
        "snr_db": [10.0], "trials": 1, "seed": 11,
    })


def test_stacked_link_decodes_as_per_user_lists():
    cfg = _multiuser_config()
    link = harness._build_link(cfg)
    sc = harness._scene(cfg, link, 10.0, np.random.default_rng(5))
    rng = copy.deepcopy(sc.rng)
    harness._decode(cfg, link, [sc])  # a batch of this one scene
    fields = harness._pvd(cfg, link, sc)
    # the same link and priors, one object per user, through the per-user loop
    base = link.encoder.base
    encoders = [PowerNormalizedEncoder(SaturatingEncoder(A, base.gain, base.output_shape),
                                       cfg.dims.P) for A in base.A]
    priors_H = [cfg.prior_channel(H[None]) for H in sc.channels]
    priors_D = [cfg.prior_source(d[None]) for d in sc.sources]
    H, D, diag = reference_run(sc.Y, encoders, priors_H, priors_D, sc.dims, cfg.pvd, rng)
    H, D = np.stack(H), np.stack(D)
    assert [(s.j, s.residual, s.grad_norm_H, s.grad_norm_D) for s in sc.steps] == diag
    assert fields["nmse_db"] == mt.nmse_db(sc.channels, H)
    assert fields["residual"] == diag[-1][1]
    assert fields["source_mse"] == float(np.mean([mt.source_mse(dt, de) for dt, de
                                                  in zip(sc.sources, D)]))


def _two_user_scene():
    rng = np.random.default_rng(4)
    dims = MimoDims(N_r=4, N_t=1, K=1, T=16, N_u=2, n=8, P=1.0, sigma_n2=0.05)
    enc = LinearEncoder(complex_normal(rng, (2, 16, 8)) / math.sqrt(8), dims.signal_shape)
    H = complex_normal(rng, (2, 1, 4, 1))
    Y = np.einsum("ukrc,ukct->krt", H, enc.encode(rng.standard_normal((2, 8)))
                  .reshape(2, 1, 1, 16)).reshape(4, 16) + complex_normal(rng, (4, 16), 0.05)
    return rng, dims, enc, H, Y


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_step_inner_quantity_and_user():
    rng, dims, enc, H, Y = _two_user_scene()
    sched = pv.NoiseSchedule(0.01, 100.0, 10)
    cfg = pv.PvdConfig(schedule_H=sched, schedule_D=sched, J_in=10, L=1,
                       zeta_H=1e9, zeta_D=1e9)
    with pytest.raises(pv.PvdDivergenceError) as exc_info:
        pv.run(Y, enc, GaussianPrior(H, 1e-6, "complex", H.shape[1:]),
               GaussianPrior(np.zeros(8), 1.0, "real"), dims, cfg, rng)
    err = exc_info.value
    assert 0 <= err.step <= 9 and 0 <= err.inner <= 9 and err.user in (0, 1)
    assert str(err) == (f"non-finite {err.what} at reverse step j={err.step}, "
                        f"inner iteration {err.inner}, user {err.user}")


class _PoisonedPrior(GaussianPrior):
    """A Gaussian prior over stacked users whose score is NaN in user 1's row
    at one smoothing level (None: at none)."""

    def __init__(self, mean, var0, domain, shape, sigma):
        super().__init__(mean, var0, domain, shape)
        self.bad_sigma = sigma

    def at(self, x, sigma):
        pt = super().at(x, sigma)
        if sigma != self.bad_sigma:
            return pt
        score = pt.score.copy()
        score[1] = np.nan
        return pt._replace(score=score)


@pytest.mark.parametrize("side, what", [("H", "prior score"),
                                        ("D", "Tweedie source estimate")])
def test_divergence_names_the_first_user_it_shows_in(side, what):
    # only user 1's row of the prior score goes non-finite; user 0's stays finite
    rng, dims, enc, H, Y = _two_user_scene()
    sched = pv.NoiseSchedule(0.01, 10.0, 6)
    cfg = pv.PvdConfig(schedule_H=sched, schedule_D=sched, J_in=3, L=1)
    j = 0 if side == "H" else 3
    bad = sched.value(j)
    prior_H = _PoisonedPrior(H, 1e-6, "complex", H.shape[1:], bad if side == "H" else None)
    prior_D = _PoisonedPrior(np.zeros(8), 1.0, "real", (8,), bad if side == "D" else None)
    with pytest.raises(pv.PvdDivergenceError,
                       match=f"non-finite {what} at reverse step j={j}, inner iteration 0, "
                             "user 1$") as exc_info:
        pv.run(Y, enc, prior_H, prior_D, dims, cfg, rng)
    assert (exc_info.value.step, exc_info.value.inner, exc_info.value.user) == (j, 0, 1)
