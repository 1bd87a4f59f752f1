"""Instrumentation of pvdmimo from outside, for the benchmark.

Nothing inside pvdmimo is instrumented. Public functions are wrapped where
they are looked up (every `pvdmimo.*` module attribute bound to the same
function object is replaced, so `harness.draw_rayleigh` and
`pvd.jacobian_frobenius2` are caught as well), and public methods are
wrapped on their classes. Every wrapper is removed again by `uninstall`.

`Tracer` records one span per wrapped call: name, start, end, parent span
and trial id. The trial id counts the channel draws seen so far: the
harness draws the channel first in every (snr, trial) cell, so each draw
opens the next cell. Spans stay in compact in-memory arrays until the run
ends; `layer_totals` then derives calls, inclusive and self time, and
`save` writes them out.

`DecodeClock` is the untraced latency probe: one clock pair per decode,
from entry into one function to exit from another (the same one for
`pvd.run`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Wrapped calls: "module:function" or "module:Class.method". The layer is
# the module.
_ENC = ("LinearEncoder", "SaturatingEncoder", "PowerNormalizedEncoder")
_PRIORS = ("GaussianPrior", "GaussianMixturePrior")
TARGETS: list[str] = (
    ["pvdmimo.harness:run_experiment"]
    + [f"pvdmimo.pvd:{f}" for f in (
        "run", "sample_variational", "tweedie", "error_variances",
        "aggregated_noise_variance", "likelihood_scores", "transition_scores",
        "update_means")]
    + [f"pvdmimo.encoder:{c}.{m}" for c in _ENC for m in ("encode", "vjp", "jacobian")]
    + ["pvdmimo.encoder:jacobian_frobenius2"]
    + [f"pvdmimo.priors:{c}.{m}" for c in _PRIORS
       for m in ("first_order", "second_order_trace", "tweedie_chain_vjp")]
    + [f"pvdmimo.baselines:{f}" for f in ("lmmse_channel", "oracle_lmmse", "two_stage_decode")]
    + [f"pvdmimo.channel:{f}" for f in ("draw_rayleigh", "draw_kronecker_correlated",
                                        "apply_channel")]
    + [f"pvdmimo.metrics:{f}" for f in ("nmse_db", "snr_db", "cbr", "source_mse")]
)

# Channel draws open a new (snr, trial) cell.
_CELL_OPENERS = ("pvdmimo.channel:draw_rayleigh", "pvdmimo.channel:draw_kronecker_correlated")


def span_name(target: str) -> str:
    """Reported name: 'pvd.run', 'encoder.LinearEncoder.vjp'; the metrics
    module is reported as one combined 'metrics' entry."""
    module, attr = target.split(":")
    layer = module.rsplit(".", 1)[1]
    return layer if layer == "metrics" else f"{layer}.{attr}"


def _resolve(target: str):
    mod_name, attr = target.split(":")
    mod = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def _patch(target: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Install make_wrapper(original) at every place `target` is looked up;
    return the (owner, attr, original) triples that undo it."""
    owner, attr = _resolve(target)
    original = owner.__dict__[attr]
    wrapper = functools.wraps(original)(make_wrapper(original))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    undo = []
    for name, mod in list(sys.modules.items()):
        if name == "pvdmimo" or name.startswith("pvdmimo."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def _unpatch(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Span recorder around the public calls named in TARGETS."""

    def __init__(self):
        self.names = sorted({span_name(t) for t in TARGETS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("i")
        self.failed = [0] * len(self.names)
        self._stack = [-1]
        self._cell = -1
        self._undo: list = []

    def _wrapper(self, nid: int, opens_cell: bool):
        name, start, end, parent, trial = self.name, self.start, self.end, self.parent, self.trial
        stack, failed, clock = self._stack, self.failed, time.perf_counter_ns

        def make(fn):
            def wrapped(*args, **kwargs):
                if opens_cell:
                    self._cell += 1
                idx = len(name)
                name.append(nid)
                parent.append(stack[-1])
                trial.append(self._cell)
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    failed[nid] += 1
                    raise
                finally:
                    end[idx] = clock()
                    stack.pop()
            return wrapped
        return make

    def install(self) -> None:
        for target in TARGETS:
            nid = self._ids[span_name(target)]
            self._undo += _patch(target, self._wrapper(nid, target in _CELL_OPENERS))

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    def __len__(self) -> int:
        return len(self.name)

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """calls, inclusive ms and self ms per name over spans [lo, hi).

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children never overlap.
        """
        hi = len(self.name) if hi is None else hi
        names = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.intp)
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(np.float64)
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.intp) - lo
        inner = par >= 0
        covered = np.bincount(par[inner], weights=dur[inner], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {n: {"calls": int(calls[i]), "ms": incl[i] / 1e6, "self_ms": own[i] / 1e6}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span as arrays (name ids index `names`; times in ns;
        `parent` indexes the span arrays, -1 at the top; `trial` is the
        cell index, -1 before the first channel draw)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trial=np.frombuffer(self.trial, dtype=np.int32))


class DecodeClock:
    """Latency of one decode: entry into `first` to exit from `last`."""

    def __init__(self, first: str, last: str):
        self.first, self.last = first, last
        self.samples_ms: list[float] = []
        self._t0: float | None = None
        self._undo: list = []

    def install(self) -> None:
        clock = time.perf_counter

        def opening(fn):
            def wrapped(*args, **kwargs):
                self._t0 = clock()
                return fn(*args, **kwargs)
            return wrapped

        def closing(fn):
            def wrapped(*args, **kwargs):
                t0 = clock() if self._t0 is None else self._t0
                out = fn(*args, **kwargs)
                self.samples_ms.append((clock() - t0) * 1e3)
                self._t0 = None
                return out
            return wrapped

        if self.first != self.last:
            self._undo += _patch(self.first, opening)
        self._undo += _patch(self.last, closing)

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []
