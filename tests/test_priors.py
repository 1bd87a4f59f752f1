"""Analytic score priors against finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo.priors import GaussianMixturePrior, GaussianPrior

SIGMAS = [0.0, 0.1, 1.0, 10.0]


# --- finite-difference oracles ----------------------------------------------

def fd_gradient(prior, x, sigma, h=1e-5):
    """Gradient of the smoothed log-density; conjugate-Wirtinger for complex."""
    if prior.domain == "complex":
        g = np.zeros_like(x, dtype=complex)
        for i in range(x.size):
            er = np.zeros_like(x); er.flat[i] = h
            ei = np.zeros_like(x); ei.flat[i] = 1j * h
            da = (prior.smoothed_log_density(x + er, sigma)
                  - prior.smoothed_log_density(x - er, sigma)) / (2 * h)
            db = (prior.smoothed_log_density(x + ei, sigma)
                  - prior.smoothed_log_density(x - ei, sigma)) / (2 * h)
            g.flat[i] = 0.5 * (da + 1j * db)
        return g
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x); e.flat[i] = h
        g.flat[i] = (prior.smoothed_log_density(x + e, sigma)
                     - prior.smoothed_log_density(x - e, sigma)) / (2 * h)
    return g


def fd_trace(prior, x, sigma, h=1e-3):
    """Laplacian of the smoothed log-density; quarter-Laplacian over the
    stacked real coordinates in the complex case (the Wirtinger trace)."""
    f0 = prior.smoothed_log_density(x, sigma)
    total = 0.0
    steps = (h,) if prior.domain == "real" else (h, 1j * h)
    for i in range(x.size):
        for step in steps:
            e = np.zeros_like(x, dtype=x.dtype)
            e.flat[i] = step
            total += (prior.smoothed_log_density(x + e, sigma) - 2 * f0
                      + prior.smoothed_log_density(x - e, sigma)) / h**2
    return total if prior.domain == "real" else 0.25 * total


def make_priors(rng):
    return [
        ("gauss-real", GaussianPrior(rng.normal(size=6), 0.8, "real"),
         lambda: rng.normal(size=6)),
        ("gauss-complex", GaussianPrior(rng.normal(size=4) + 1j * rng.normal(size=4),
                                        1.3, "complex"),
         lambda: rng.normal(size=4) + 1j * rng.normal(size=4)),
        ("mix-real", GaussianMixturePrior(rng.normal(size=(3, 5)), 0.6,
                                          [0.2, 0.5, 0.3], "real"),
         lambda: rng.normal(size=5)),
        ("mix-complex", GaussianMixturePrior(
            rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)), 0.9,
            [0.4, 0.6], "complex"),
         lambda: rng.normal(size=4) + 1j * rng.normal(size=4)),
    ]


# --- hand values ------------------------------------------------------------

def test_gaussian_first_order_hand():
    g = GaussianPrior(np.zeros(1), 1.0, "real")
    assert np.allclose(g.first_order(np.array([2.0]), 0.0), [-2.0])


def test_gaussian_first_order_complex_hand():
    g = GaussianPrior(np.zeros(1, dtype=complex), 1.0, "complex")
    out = g.first_order(np.array([1.0 + 1.0j]), 1.0)
    assert np.allclose(out, [-(0.5 + 0.5j)])


def test_mixture_symmetric_zero():
    mix = GaussianMixturePrior(np.array([[1.5], [-1.5]]), 0.3, [0.5, 0.5], "real")
    assert np.allclose(mix.first_order(np.zeros(1), 0.7), [0.0])


def test_gaussian_trace_hand():
    g = GaussianPrior(np.zeros(4), 1.0, "real")
    assert g.second_order_trace(np.zeros(4), 1.0) == pytest.approx(-2.0)


def test_gaussian_trace_vanishes_at_large_sigma():
    g = GaussianPrior(np.zeros(3), 1.0, "real")
    assert abs(g.second_order_trace(np.zeros(3), 1e6)) < 1e-8


def test_mixture_trace_fd_1d():
    mix = GaussianMixturePrior(np.array([[1.0], [-2.0]]), 0.5, [0.3, 0.7], "real")
    x = np.array([0.4])
    t = mix.second_order_trace(x, 0.6)
    assert abs(t - fd_trace(mix, x, 0.6)) <= 1e-4 * (1 + abs(t))


def test_smoothed_log_density_max_at_mean():
    g = GaussianPrior(np.zeros(2), 1.0, "real")
    at_mean = g.smoothed_log_density(np.zeros(2), 0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert g.smoothed_log_density(rng.normal(size=2), 0.0) <= at_mean


def test_degenerate_mixture_equals_gaussian():
    mean = np.array([0.7, -0.2])
    mix = GaussianMixturePrior(mean[None, :], 0.5, [1.0], "real")
    g = GaussianPrior(mean, 0.5, "real")
    rng = np.random.default_rng(1)
    for s in SIGMAS:
        x = rng.normal(size=2)
        assert np.allclose(mix.first_order(x, s), g.first_order(x, s))
        assert mix.second_order_trace(x, s) == pytest.approx(g.second_order_trace(x, s))


# --- consistency invariants over all priors, domains, sigmas ------------------

@pytest.mark.parametrize("sigma", SIGMAS)
def test_score_consistency(sigma):
    rng = np.random.default_rng(42)
    for name, prior, draw in make_priors(rng):
        x = draw()
        got = prior.first_order(x, sigma)
        want = fd_gradient(prior, x, sigma)
        rel = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))
        assert rel <= 1e-5, f"{name} sigma={sigma}: rel err {rel:.2e}"


@pytest.mark.parametrize("sigma", SIGMAS)
def test_trace_consistency(sigma):
    rng = np.random.default_rng(43)
    for name, prior, draw in make_priors(rng):
        x = draw()
        got = prior.second_order_trace(x, sigma)
        want = fd_trace(prior, x, sigma)
        assert abs(got - want) <= 1e-4 * (1.0 + abs(want)), \
            f"{name} sigma={sigma}: {got} vs {want}"


def test_gaussian_smoothing_composition():
    # smoothing a Gaussian prior by sigma equals the wider Gaussian exactly
    rng = np.random.default_rng(44)
    mean = rng.normal(size=5)
    for domain in ("real", "complex"):
        m = mean + 0j if domain == "complex" else mean
        narrow = GaussianPrior(m, 0.6, domain)
        sigma = 1.7
        wide = GaussianPrior(m, 0.6 + sigma**2, domain)
        x = rng.normal(size=5) + (1j * rng.normal(size=5) if domain == "complex" else 0)
        assert np.allclose(narrow.first_order(x, sigma), wide.first_order(x, 0.0))
        assert narrow.second_order_trace(x, sigma) == pytest.approx(
            wide.second_order_trace(x, 0.0))


def test_mixture_log_space_stability():
    # far from all components: responsibilities stay finite (max subtraction)
    mix = GaussianMixturePrior(np.array([[1.0], [-1.0]]), 0.01, [0.5, 0.5], "real")
    x = np.array([300.0])
    s = mix.first_order(x, 0.0)
    assert np.all(np.isfinite(s))
    assert np.isfinite(mix.second_order_trace(x, 0.0))


def test_chain_vjp_gaussian_factor():
    g = GaussianPrior(np.zeros(3), 2.0, "real")
    cot = np.array([1.0, -2.0, 0.5])
    out = g.tweedie_chain_vjp(np.zeros(3), 1.0, cot)
    assert np.allclose(out, cot * (2.0 / 3.0))


def test_chain_vjp_mixture_fd():
    # transpose-Jacobian of x -> x + sigma^2 S(x), checked against FD of a
    # linear probe loss in both domains
    rng = np.random.default_rng(45)
    sig, h = 0.8, 1e-6

    mix = GaussianMixturePrior(rng.normal(size=(3, 4)), 0.6, [0.3, 0.3, 0.4], "real")
    x, w = rng.normal(size=4), rng.normal(size=4)

    def loss_r(xx):
        return float(np.dot(w, xx + sig**2 * mix.first_order(xx, sig)))

    got = mix.tweedie_chain_vjp(x, sig, w)
    fd = np.array([(loss_r(x + h * e) - loss_r(x - h * e)) / (2 * h)
                   for e in np.eye(4)])
    assert np.max(np.abs(got - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))

    mixc = GaussianMixturePrior(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
                                0.5, [0.5, 0.5], "complex")
    xc = rng.normal(size=3) + 1j * rng.normal(size=3)
    wc = rng.normal(size=3) + 1j * rng.normal(size=3)

    def loss_c(xx):
        t = xx + sig**2 * mixc.first_order(xx, sig)
        return 2.0 * float(np.sum((wc.conj() * t).real))

    gotc = mixc.tweedie_chain_vjp(xc, sig, wc)
    fdc = np.zeros(3, dtype=complex)
    for i in range(3):
        er = np.zeros(3, complex); er[i] = h
        ei = np.zeros(3, complex); ei[i] = 1j * h
        fdc[i] = 0.5 * ((loss_c(xc + er) - loss_c(xc - er)) / (2 * h)
                        + 1j * (loss_c(xc + ei) - loss_c(xc - ei)) / (2 * h))
    assert np.max(np.abs(gotc - fdc)) <= 1e-5 * (1 + np.max(np.abs(fdc)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("gaussian", "mixture")),
       domain=st.sampled_from(("real", "complex")),
       shape=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
       components=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_chain_vjp_matches_fd_over_shapes(kind, domain, shape, components, seed):
    # transpose-Jacobian of x -> x + sigma^2 S(x) against central differences
    # in stacked real coordinates [Re x, Im x]; a complex vjp is top + i bottom
    rng = np.random.default_rng(seed)
    cplx = domain == "complex"

    def draw(shp, scale=1.0):
        z = rng.normal(size=shp) * scale
        return z + 1j * rng.normal(size=shp) * scale if cplx else z

    if kind == "gaussian":
        prior = GaussianPrior(draw(shape), rng.uniform(0.2, 2.0), domain)
    else:
        w = rng.uniform(0.2, 1.0, components)
        prior = GaussianMixturePrior(draw((components,) + shape, 2.0), rng.uniform(0.2, 2.0),
                                     w / np.sum(w), domain)
    sigma = float(rng.uniform(0.1, 2.0))
    x, c = draw(shape, 2.0), draw(shape)

    def stacked(z):
        return np.concatenate([z.real.ravel(), z.imag.ravel()]) if cplx else z.ravel()

    def tweedie_map(v):
        return v + sigma**2 * prior.first_order(v, sigma)

    h = 1e-6
    units = [e.reshape(shape) for e in np.eye(x.size)]
    dirs = units + [1j * e for e in units] if cplx else units
    jac_t = np.array([stacked(tweedie_map(x + h * e) - tweedie_map(x - h * e)) / (2 * h)
                      for e in dirs])  # row r: the derivative along input coordinate r
    fd = jac_t @ stacked(c)
    got = stacked(prior.tweedie_chain_vjp(x, sigma, c))
    assert np.max(np.abs(got - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))


def test_prior_validation():
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(2), 0.0, "real")
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(2), 1.0, "quaternion")
    with pytest.raises(ValueError):
        GaussianMixturePrior(np.zeros((2, 2)), 1.0, [0.5, 0.6], "real")
    with pytest.raises(ValueError):
        GaussianMixturePrior(np.zeros((2, 2)), 1.0, [1.5, -0.5], "real")


@pytest.mark.parametrize("make, faults", [
    (lambda: GaussianMixturePrior(np.zeros((2, 3)), -1.0, [0.5, 0.6], "real"),
     ["var must be > 0", "weights must sum to 1"]),
    (lambda: GaussianMixturePrior(np.zeros((2, 3)), 1.0, [0.5, -0.6, 3], "real"),
     ["weights must be one per component", "weights must be positive", "weights must sum to 1"]),
    (lambda: GaussianPrior(np.zeros(3), 0.0, "bogus"),
     ["var must be > 0", "unknown domain 'bogus'"]),
    (lambda: GaussianPrior(np.zeros((2, 4)), -1.0, "real", shape=(3,)),
     ["var must be > 0", "mean has shape (2, 4), expected (..., *(3,))"]),
    (lambda: GaussianPrior(np.zeros((2, 4)), 1.0, "bogus", shape=(3,)),
     ["unknown domain 'bogus'", "mean has shape (2, 4), expected (..., *(3,))"]),
], ids=["var-and-sum", "every-weight-rule", "var-and-domain", "var-and-mean-shape",
        "domain-and-mean-shape"])
def test_prior_constructors_report_every_fault(make, faults):
    # each used to stop at its first fault: only the variance, or "one per component"
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value).split("; ") == faults


def test_validate_reports_every_fault_of_a_mixture_prior():
    from pvdmimo.harness import validate_dict
    spec = {"type": "mixture", "means": [1.0, -1.0], "var": -1, "weights": [0.5, 0.6]}
    assert validate_dict({"prior_source": spec}) == ["prior_source.var: must be > 0",
                                                     "prior_source.weights: must sum to 1"]


def test_prior_rejects_shapes_off_its_event_shape():
    # any leading axes (cells of a batch, then users) are taken; a wrong event shape is not
    with pytest.raises(ValueError, match="mean has shape"):
        GaussianPrior(np.zeros((2, 4)), 1.0, "real", shape=(3,))
    with pytest.raises(ValueError, match="mean has shape"):
        GaussianPrior(np.zeros((2, 2, 4)), 1.0, "real", shape=(3,))  # two leading axes
    anchored = GaussianPrior(np.zeros((2, 3)), 1.0, "real", shape=(3,))
    batched = GaussianPrior(np.zeros((4, 2, 3)), 1.0, "real", shape=(3,))  # 4 cells, 2 users
    assert anchored.shape == batched.shape == (3,) and anchored.dim == batched.dim == 3
    plain = GaussianPrior(np.zeros(3), 1.0, "real")
    mix = GaussianMixturePrior(np.zeros((2, 3)), 1.0, [0.5, 0.5], "real")
    for prior in (plain, anchored, batched, mix):
        for x in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 4)), np.zeros(())):
            with pytest.raises(ValueError, match="x has shape"):
                prior.at(x, 0.5)
        assert prior.at(np.zeros((4, 2, 3)), 0.5).score.shape == (4, 2, 3)
    for prior in (plain, anchored, mix):
        assert prior.at(np.zeros((2, 3)), 0.5).score.shape == (2, 3)
    # an anchored mean's leading axes must end x's: the user axis, then the cells
    for prior, x in ((anchored, np.zeros(3)), (anchored, np.zeros((3, 3))),
                     (anchored, np.zeros((4, 3, 3))), (batched, np.zeros((2, 3))),
                     (batched, np.zeros((5, 2, 3)))):
        with pytest.raises(ValueError, match="x has shape"):
            prior.at(x, 0.5)


def test_sampling_statistics():
    rng = np.random.default_rng(46)
    g = GaussianPrior(np.full(4, 2.0), 0.25, "real")
    draws = np.stack([g.sample(rng) for _ in range(4000)])
    assert np.allclose(draws.mean(axis=0), 2.0, atol=0.05)
    assert abs(draws.var() - 0.25) < 0.02
    mix = GaussianMixturePrior(np.array([[3.0], [-3.0]]), 0.01, [0.8, 0.2], "real")
    picks = np.stack([mix.sample(rng) for _ in range(4000)])
    assert abs(np.mean(picks > 0) - 0.8) < 0.03
