"""A batch of cells in one pvd.run: each cell's outcome against its lone run,
bit for bit (results, diagnostics and exception text), over random small
problems; a failing cell leaves the batch without touching the others; and
the benchmark's contract that one SNR point's trials are one pvd.run call."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdmimo import harness
from pvdmimo import pvd as pv
from pvdmimo.channel import MimoDims, complex_normal
from pvdmimo.encoder import LinearEncoder, PowerNormalizedEncoder, SaturatingEncoder
from pvdmimo.priors import GaussianMixturePrior, GaussianPrior

from test_harness import tiny_config

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _problem(B, dims, encoder, power, source, truth_channel, L, seed):
    """(Y, encoder, channel prior builder, true channels, source prior, per-cell
    dims, config, seeds) of a batch of B random cells sharing one link."""
    rng = np.random.default_rng(seed)
    n_u, m, n = dims.N_u, dims.N_t * dims.K * dims.T, dims.n
    A = complex_normal(rng, (n_u, m, n) if rng.integers(2) else (m, n)) / math.sqrt(n)
    base = (LinearEncoder(A, dims.signal_shape) if encoder == "linear"
            else SaturatingEncoder(A, 0.8, dims.signal_shape))
    enc = PowerNormalizedEncoder(base, dims.P) if power == "exact" else base
    shape_H = (dims.K, dims.N_r, dims.N_t)
    truth = complex_normal(rng, (B, n_u) + shape_H)
    if truth_channel:
        prior_H = lambda H: GaussianPrior(H, 1e-3, "complex", shape_H)  # noqa: E731
    else:
        fixed = GaussianPrior(np.zeros(shape_H, complex), 1.0, "complex")
        prior_H = lambda H: fixed  # noqa: E731
    prior_D = (GaussianMixturePrior(rng.standard_normal((2, n)), 0.3, [0.4, 0.6]) if source
               else GaussianPrior(np.zeros(n), 1.0, "real"))
    Y = complex_normal(rng, (B,) + dims.output_shape)
    cells = [MimoDims(**{**vars(dims), "sigma_n2": float(s)})
             for s in rng.uniform(0.01, 1.0, B)]
    sched = pv.NoiseSchedule(0.01, 10.0, 3)
    cfg = pv.PvdConfig(schedule_H=sched, schedule_D=sched, J_in=2, L=L)
    return Y, enc, prior_H, truth, prior_D, cells, cfg, rng.integers(2**32, size=B)


def _lone(Y, enc, prior_H, prior_D, dims, cfg, seed):
    try:
        return pv.run(Y, enc, prior_H, prior_D, dims, cfg, np.random.default_rng(seed))
    except Exception as exc:  # the batch hands the exception back in the cell's slot
        return exc


def _assert_same(batch_outcome, lone_outcome):
    if isinstance(lone_outcome, Exception):
        assert type(batch_outcome) is type(lone_outcome)
        assert str(batch_outcome) == str(lone_outcome)
        return
    for key in ("channels", "sources"):
        a, b = getattr(batch_outcome, key), getattr(lone_outcome, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert batch_outcome.residual == lone_outcome.residual
    assert batch_outcome.diagnostics == lone_outcome.diagnostics


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 4),
       dims=st.builds(MimoDims, N_r=st.integers(1, 3), N_t=st.integers(1, 2),
                      K=st.integers(1, 2), T=st.integers(1, 4), N_u=st.integers(1, 3),
                      n=st.integers(1, 4)),
       encoder=st.sampled_from(("linear", "saturating")),
       power=st.sampled_from(("exact", "average")), mixture=st.booleans(),
       truth_channel=st.booleans(), L=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_each_cell_of_a_batch_is_its_lone_run(B, dims, encoder, power, mixture, truth_channel,
                                              L, seed):
    # "average" power is a fixed scale, so the unnormalized map stands for it
    Y, enc, prior_H, truth, prior_D, cells, cfg, seeds = _problem(
        B, dims, encoder, power, mixture, truth_channel, L, seed)
    out = pv.run(Y, enc, prior_H(truth), prior_D, cells, cfg,
                 [np.random.default_rng(s) for s in seeds])
    assert len(out) == B
    for b in range(B):
        _assert_same(out[b], _lone(Y[b], enc, prior_H(truth[b]), prior_D, cells[b], cfg,
                                   seeds[b]))


# The last cell is refused at entry; of B = 3, one survivor is left to run on alone
# in the batch's arrays.
@pytest.mark.parametrize("B, bad", [(4, 0), (4, 1), (4, 2), (3, 0), (3, 1)])
@pytest.mark.parametrize("how, what", [
    ("noise-power", "likelihood score"),  # its means overflow at an update
    ("channel-anchor", "aggregated noise variance"),  # a NaN anchor: mid-iteration faults
    ("source-anchor", "Tweedie source estimate"),
])
def test_a_failing_cell_leaves_the_batch_and_the_others_keep_their_bits(B, bad, how, what):
    dims = MimoDims(N_r=4, N_t=1, K=2, T=8, N_u=2, n=3, P=1.0)
    Y, enc, prior_H, truth, prior_D, cells, cfg, seeds = _problem(
        B, dims, "linear", "exact", False, True, 2, 11)
    sources = np.zeros((B, 2, 3))  # one source anchor per cell and user
    if how == "noise-power":
        cells[bad] = dataclasses.replace(cells[bad], sigma_n2=1e-300)
    elif how == "channel-anchor":
        truth[bad, 1, 0, 0, 0] = np.nan
    else:
        sources[bad, 1, 2] = np.nan
    Y[B - 1, 0, 0] = np.nan  # refused at entry, as a lone run refuses it
    out = pv.run(Y, enc, prior_H(truth), GaussianPrior(sources, 1.0, "real", (3,)), cells,
                 cfg, [np.random.default_rng(s) for s in seeds])
    lone = [_lone(Y[b], enc, prior_H(truth[b]), GaussianPrior(sources[b], 1.0, "real", (3,)),
                  cells[b], cfg, seeds[b]) for b in range(B)]
    assert isinstance(lone[bad], pv.PvdDivergenceError) and lone[bad].what == what
    assert isinstance(lone[-1], ValueError) and str(lone[-1]) == "Y contains non-finite entries"
    for b in range(B):
        _assert_same(out[b], lone[b])
    assert sum(isinstance(o, pv.RecoveryResult) for o in out) == B - 2


class _LoudEncoder(LinearEncoder):
    def encode(self, d):
        return 1e300 * super().encode(d)


def test_cells_whose_step_norms_overflow_each_fail_as_alone():
    # finite means, overflowing residual norms: every cell fails at a step's trace
    dims = MimoDims(N_r=2, N_t=1, K=1, T=8, N_u=1, n=3, P=1.0)
    Y, enc, prior_H, truth, prior_D, cells, cfg, seeds = _problem(
        3, dims, "linear", "average", False, True, 1, 5)
    loud = _LoudEncoder(enc.A, enc.output_shape)
    out = pv.run(Y, loud, prior_H(truth), prior_D, cells, cfg,
                 [np.random.default_rng(s) for s in seeds])
    for b in range(3):
        lone = _lone(Y[b], loud, prior_H(truth[b]), prior_D, cells[b], cfg, seeds[b])
        assert isinstance(lone, pv.PvdDivergenceError) and lone.what == "residual"
        _assert_same(out[b], lone)


def test_a_batch_refuses_what_no_cell_can_run():
    dims = MimoDims(N_r=2, N_t=1, K=1, T=4, n=3, P=1.0)
    Y, enc, prior_H, truth, prior_D, cells, cfg, seeds = _problem(
        2, dims, "linear", "exact", False, True, 1, 3)
    gens = [np.random.default_rng(s) for s in seeds]
    with pytest.raises(ValueError, match="one row per cell of the batch"):
        pv.run(Y, enc, prior_H(np.concatenate([truth, truth])), prior_D, cells, cfg, gens)
    with pytest.raises(ValueError, match="one generator per cell"):
        pv.run(Y, enc, prior_H(truth), prior_D, cells, cfg, gens[:1])
    with pytest.raises(ValueError, match="differ in sigma_n2 only"):
        pv.run(Y, enc, prior_H(truth), prior_D, [cells[0], MimoDims(N_r=2, N_t=1, K=1, T=4,
                                                                    n=3, P=2.0)], cfg, gens)
    with pytest.raises(ValueError, match=r"Y has shape \(3, 2, 4\), expected \(2, 2, 4\)"):
        pv.run(np.concatenate([Y, Y[:1]]), enc, prior_H(truth), prior_D, cells, cfg, gens)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_one_pvd_run_per_snr_point_under_the_benchmark_probes():
    # perfbench times pvd.run calls from outside: a harness that decoded outside
    # pvd.run, or nested it, would read "no decode was timed" there, not here
    spans = _spans()
    cfg = tiny_config(trials=3, snr_db=[5.0, 15.0])
    clock = spans.DecodeClock("pvdmimo.pvd:run", "pvdmimo.pvd:run")
    clock.install()
    try:
        harness.run_experiment(cfg)
    finally:
        clock.uninstall()
    assert len(clock.samples_ms) == 2
    tracer = spans.Tracer()
    calls = []
    for _ in range(2):
        lo = len(tracer)
        tracer.install()
        try:
            harness.run_experiment(cfg)
        finally:
            tracer.uninstall()
        calls.append({n: v["calls"] for n, v in tracer.layer_totals(lo).items()})
    assert calls[0] == calls[1]
    assert calls[0]["pvd.run"] == 2 and calls[0]["channel.draw_rayleigh"] == 6
