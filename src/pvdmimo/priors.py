"""Analytic score priors with closed-form smoothing.

Each prior exposes the score machinery a reverse-diffusion sampler needs at
any smoothing level sigma >= 0:

  first_order(x, sigma)        gradient of ln of the sigma-smoothed density
  second_order_trace(x, sigma) trace of the Hessian of the same log-density
  tweedie_chain_vjp(x, sigma, c) transpose Jacobian of the Tweedie map
  smoothed_log_density(x, sigma) the (unnormalized) log-density itself,
                               used as the differentiation oracle in tests

The first three are views of one evaluation, at(x, sigma) -> PriorPoint,
which computes the score and the trace, and on demand the chain vjp, from
the same responsibilities and differences.

A prior is over one user's arrays of event `shape`; `at` takes one such x
or one per user, (N_u, *shape), and returns the score and chain vjp shaped
like x and the trace per user, with no user axis for one x (one float where
all users share it).

Conventions. A prior is declared over a "real" or "complex" domain. For
complex variables all gradients are Wirtinger derivatives with respect to
the conjugate, and smoothing by sigma means convolving with CN(0, sigma^2)
per free entry (real/imag parts each carry sigma^2/2). For real variables
smoothing is N(0, sigma^2) per entry. Under these conventions a Gaussian
prior with per-entry variance v smoothed by sigma has

  first_order(x)        = (M - x) / (v + sigma^2)
  second_order_trace(x) = -dim / (v + sigma^2)

in both domains, where dim counts free entries (one per complex scalar).
The complex trace is sum_i d^2/dx_i dconj(x_i), i.e. one quarter of the
Laplacian over the stacked real coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .channel import complex_normal

_DTYPES = {"real": np.float64, "complex": np.complex128}


def _abs2(x: np.ndarray) -> np.ndarray:
    return (x * x.conj()).real if np.iscomplexobj(x) else x * x


class PriorPoint(NamedTuple):
    """A prior evaluated at x (one point or one per user) and smoothing level sigma."""

    score: np.ndarray  # first_order(x, sigma)
    trace: float | np.ndarray  # second_order_trace(x, sigma)
    chain_vjp: Callable[[np.ndarray], np.ndarray]  # c -> tweedie_chain_vjp(x, sigma, c)


class ScorePrior:
    """Interface: analytic scores of a sigma-smoothed density."""

    domain: str  # "real" or "complex"
    shape: tuple[int, ...]  # one user's event shape
    dim: int  # free entries of one user (one per complex scalar)

    def __init__(self, var: float, domain: str, faults=()):
        """Raise one ValueError with every fault, the subclass's `faults` last."""
        faults = [msg for bad, msg in ((var <= 0, "var must be > 0"),
                                       (domain not in _DTYPES, f"unknown domain {domain!r}"))
                  if bad] + list(faults)
        if faults:
            raise ValueError("; ".join(faults))
        self.domain, self.var0 = domain, float(var)

    def at(self, x, sigma: float) -> PriorPoint:
        raise NotImplementedError

    # Views of `at`. Each concrete class binds them in its own body, so they
    # can be wrapped per class (perfbench/spans.py times them apart).
    def first_order(self, x, sigma: float) -> np.ndarray:
        return self.at(x, sigma).score

    def second_order_trace(self, x, sigma: float) -> float:
        return self.at(x, sigma).trace

    def tweedie_chain_vjp(self, x, sigma: float, cotangent) -> np.ndarray:
        """Apply the transpose Jacobian of the Tweedie map x -> x + sigma^2 S(x).

        In stacked real coordinates the map has symmetric Jacobian
        I + s_eff^2 * dG/dy, with G the real-coordinate score and
        s_eff^2 = sigma^2 (real domain) or sigma^2 / 2 (complex domain).
        `cotangent` uses the same convention as first_order and the result
        is the chained gradient with respect to x.
        """
        return self.at(x, sigma).chain_vjp(cotangent)

    def smoothed_log_density(self, x, sigma: float) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _s2(self, sigma: float) -> float:
        return self.var0 + sigma * sigma

    def _draw(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One draw of N(mean, var0) (CN in the complex domain) per entry."""
        if self.domain == "complex":
            return mean + complex_normal(rng, mean.shape, self.var0)
        return mean + rng.standard_normal(mean.shape) * np.sqrt(self.var0)

    def _check(self, x, sigma: float) -> np.ndarray:
        """x as an array of the domain's type: one point, or one per user."""
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        x = np.asarray(x, dtype=_DTYPES[self.domain])
        lead = x.ndim - len(self.shape)
        if lead not in (0, 1) or x.shape[lead:] != self.shape:
            raise ValueError(f"x has shape {x.shape}, expected {self.shape} or N_u of them")
        return x


_VIEWS = (ScorePrior.first_order, ScorePrior.second_order_trace, ScorePrior.tweedie_chain_vjp)


class GaussianPrior(ScorePrior):
    """Isotropic Gaussian prior: each free entry ~ N(M, var) or CN(M, var),
    the variance held as `var0`. The event shape is `shape` (default: the
    mean's); a mean of shape (N_u, *shape) anchors each user at its own row."""

    def __init__(self, mean, var: float, domain: str = "real", shape=None):
        mean = np.asarray(mean, dtype=_DTYPES.get(domain))  # an unknown domain is a fault below
        shape = mean.shape if shape is None else tuple(shape)
        lead = mean.ndim - len(shape)
        fits = lead in (0, 1) and mean.shape[lead:] == shape
        super().__init__(var, domain, [] if fits else [
            f"mean has shape {mean.shape}, expected {shape} or (N_u, *{shape})"])
        self.mean, self.shape, self.dim = mean, shape, math.prod(shape)

    def at(self, x, sigma: float) -> PriorPoint:
        x = self._check(x, sigma)
        s2 = self._s2(sigma)
        # dG/dy = -I/v in real coordinates; the chain factor collapses to
        # the scalar var0 / (var0 + sigma^2) in both domains, and the trace is
        # the same float for every user.
        return PriorPoint((self.mean - x) / s2, -self.dim / s2,
                          lambda cotangent: np.asarray(cotangent) * (self.var0 / s2))

    first_order, second_order_trace, tweedie_chain_vjp = _VIEWS

    def smoothed_log_density(self, x, sigma: float) -> float:
        x = self._check(x, sigma)
        q = float(np.sum(_abs2(x - self.mean)))
        s2 = self._s2(sigma)
        return -q / s2 if self.domain == "complex" else -q / (2.0 * s2)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._draw(self.mean, rng)


class GaussianMixturePrior(ScorePrior):
    """Gaussian mixture with shared per-entry variance var (held as `var0`).

    Component means are stacked along the first axis; weights are positive
    and sum to one. Smoothing by sigma keeps the mixture form with shared
    variance var0 + sigma^2, so all score quantities are closed-form.
    Responsibilities are computed in log-space with max subtraction.
    """

    def __init__(self, means, var: float, weights, domain: str = "real"):
        w = np.asarray(weights, dtype=np.float64)
        super().__init__(var, domain, [msg for bad, msg in (
            (w.ndim != 1 or len(w) != len(means), "weights must be one per component"),
            (np.any(w <= 0), "weights must be positive"),
            (abs(float(np.sum(w)) - 1.0) > 1e-12, "weights must sum to 1")) if bad])
        self.means = np.asarray(means, dtype=_DTYPES[domain])
        if self.means.ndim < 2:
            self.means = self.means.reshape(self.means.shape[0], 1)
        self.weights = w
        self.n_components = w.shape[0]
        self.shape = self.means.shape[1:]
        self.dim = self.means[0].size

    def _log_resp(self, x: np.ndarray, sigma: float):
        """Over the B = N_u (or 1) rows of x: log responsibilities (B, C),
        differences M_c - x (B, C, dim) and log Z (B, 1)."""
        s2 = self._s2(sigma)
        diffs = self.means.reshape(self.n_components, -1) - x.reshape(-1, 1, self.dim)
        q = _abs2(diffs).sum(axis=-1)
        expo = -q / s2 if self.domain == "complex" else -q / (2.0 * s2)
        logits = np.log(self.weights) + expo
        m = logits.max(axis=-1, keepdims=True)
        logz = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
        return logits - logz, diffs, logz

    def at(self, x, sigma: float) -> PriorPoint:
        x = self._check(x, sigma)
        users = x.shape[:x.ndim - len(self.shape)]
        log_r, diffs, _ = self._log_resp(x, sigma)
        r = np.exp(log_r)[:, None, :]  # each row's weights as a (1, C) row vector
        s2 = self._s2(sigma)
        # trace = sum_c r_c (|u_c|^2 - dim/s2) - |g|^2 with u_c = (M_c - x)/s2,
        # identical in form for both domains under the stated conventions.
        u = diffs / s2
        g = (r @ u)[:, 0]
        u_norms = _abs2(u).sum(axis=-1)[:, :, None]
        t = (r @ u_norms)[:, 0, 0] - self.dim / s2 - _abs2(g).sum(axis=-1)

        def chain_vjp(cotangent) -> np.ndarray:
            v = s2 / 2.0 if self.domain == "complex" else s2
            s_eff2 = sigma * sigma / 2.0 if self.domain == "complex" else sigma * sigma
            # Real-coordinate score Jacobian, applied matrix-free:
            # dG/dy g = sum_c rho_c u_c (u_c . g) - G (G . g) - g / v.
            c = np.asarray(cotangent)
            u = self._stack(diffs) / v
            G = r @ u
            g = self._stack(c.reshape(-1, 1, self.dim))
            gc = g.transpose(0, 2, 1)
            out = g + s_eff2 * ((r * (u @ gc).transpose(0, 2, 1)) @ u - G * (G @ gc) - g / v)
            if self.domain == "complex":
                out = out[..., :self.dim] + 1j * out[..., self.dim:]
            return out.reshape(c.shape)

        return PriorPoint((r @ diffs).reshape(x.shape) / s2, t.reshape(users), chain_vjp)

    first_order, second_order_trace, tweedie_chain_vjp = _VIEWS

    def smoothed_log_density(self, x, sigma: float) -> float:
        x = self._check(x, sigma)
        _, _, logz = self._log_resp(x, sigma)
        return float(logz[0, 0])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._draw(self.means[rng.choice(self.n_components, p=self.weights)], rng)

    def _stack(self, a: np.ndarray) -> np.ndarray:
        """Stacked real coordinates along the last axis: re, then im."""
        if self.domain == "complex":
            return np.concatenate([a.real, a.imag], axis=-1)
        return a.astype(np.float64)
