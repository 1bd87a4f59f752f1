"""Analytic score priors with closed-form smoothing.

Each prior exposes the score machinery a reverse-diffusion sampler needs at
any smoothing level sigma >= 0:

  first_order(x, sigma)        gradient of ln of the sigma-smoothed density
  second_order_trace(x, sigma) trace of the Hessian of the same log-density
  tweedie_chain_vjp(x, sigma, c) transpose Jacobian of the Tweedie map
  smoothed_log_density(x, sigma) the (unnormalized) log-density itself,
                               used as the differentiation oracle in tests

The first three are views of one evaluation, at(x, sigma) -> PriorPoint,
which computes the score and, on demand, the trace and the chain vjp from
the same responsibilities and differences.

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

from typing import Callable, NamedTuple

import numpy as np


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _as_complex_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128)


def _abs2(x: np.ndarray) -> np.ndarray:
    return (x * x.conj()).real if np.iscomplexobj(x) else x * x


class PriorPoint(NamedTuple):
    """A prior evaluated at one point x and smoothing level sigma."""

    score: np.ndarray  # first_order(x, sigma)
    trace: Callable[[], float]  # () -> second_order_trace(x, sigma)
    chain_vjp: Callable[[np.ndarray], np.ndarray]  # c -> tweedie_chain_vjp(x, sigma, c)


class ScorePrior:
    """Interface: analytic scores of a sigma-smoothed density."""

    domain: str  # "real" or "complex"
    dim: int  # free entries (one per complex scalar)

    def at(self, x, sigma: float) -> PriorPoint:
        raise NotImplementedError

    # Views of `at`. Each concrete class binds them in its own body, so they
    # can be wrapped per class (perfbench/spans.py times them apart).
    def first_order(self, x, sigma: float) -> np.ndarray:
        return self.at(x, sigma).score

    def second_order_trace(self, x, sigma: float) -> float:
        return self.at(x, sigma).trace()

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

    def _check(self, x, sigma: float) -> np.ndarray:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.domain == "complex":
            return _as_complex_array(x)
        return _as_float_array(x)


_VIEWS = (ScorePrior.first_order, ScorePrior.second_order_trace, ScorePrior.tweedie_chain_vjp)


class GaussianPrior(ScorePrior):
    """Isotropic Gaussian prior: each free entry ~ N(M, var) or CN(M, var),
    the variance held as `var0`."""

    def __init__(self, mean, var: float, domain: str = "real"):
        if var <= 0:
            raise ValueError("var must be > 0")
        if domain not in ("real", "complex"):
            raise ValueError(f"unknown domain {domain!r}")
        self.domain = domain
        self.var0 = float(var)
        self.mean = (_as_complex_array(mean) if domain == "complex"
                     else _as_float_array(mean))
        self.dim = self.mean.size

    def _s2(self, sigma: float) -> float:
        return self.var0 + sigma * sigma

    def at(self, x, sigma: float) -> PriorPoint:
        x = self._check(x, sigma)
        s2 = self._s2(sigma)
        # dG/dy = -I/v in real coordinates; the chain factor collapses to
        # the scalar var0 / (var0 + sigma^2) in both domains.
        return PriorPoint((self.mean - x) / s2, lambda: -self.dim / s2,
                          lambda cotangent: np.asarray(cotangent) * (self.var0 / s2))

    first_order, second_order_trace, tweedie_chain_vjp = _VIEWS

    def smoothed_log_density(self, x, sigma: float) -> float:
        x = self._check(x, sigma)
        q = float(np.sum(_abs2(x - self.mean)))
        s2 = self._s2(sigma)
        return -q / s2 if self.domain == "complex" else -q / (2.0 * s2)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.domain == "complex":
            z = rng.standard_normal(self.mean.shape) + 1j * rng.standard_normal(self.mean.shape)
            return self.mean + z * np.sqrt(self.var0 / 2.0)
        return self.mean + rng.standard_normal(self.mean.shape) * np.sqrt(self.var0)


class GaussianMixturePrior(ScorePrior):
    """Gaussian mixture with shared per-entry variance var (held as `var0`).

    Component means are stacked along the first axis; weights are positive
    and sum to one. Smoothing by sigma keeps the mixture form with shared
    variance var0 + sigma^2, so all score quantities are closed-form.
    Responsibilities are computed in log-space with max subtraction.
    """

    def __init__(self, means, var: float, weights, domain: str = "real"):
        if var <= 0:
            raise ValueError("var must be > 0")
        if domain not in ("real", "complex"):
            raise ValueError(f"unknown domain {domain!r}")
        self.domain = domain
        self.var0 = float(var)
        self.means = (_as_complex_array(means) if domain == "complex"
                      else _as_float_array(means))
        if self.means.ndim < 2:
            self.means = self.means.reshape(self.means.shape[0], 1)
        w = _as_float_array(weights)
        if w.ndim != 1 or w.shape[0] != self.means.shape[0]:
            raise ValueError("weights must be one per component")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.weights = w
        self.n_components = w.shape[0]
        self.dim = self.means[0].size

    def _s2(self, sigma: float) -> float:
        return self.var0 + sigma * sigma

    def _log_resp(self, x: np.ndarray, sigma: float):
        """Log responsibilities, per-component differences M_c - x, and log Z."""
        s2 = self._s2(sigma)
        diffs = self.means - x[None, ...]
        q = np.sum(_abs2(diffs).reshape(self.n_components, -1), axis=1)
        expo = -q / s2 if self.domain == "complex" else -q / (2.0 * s2)
        logits = np.log(self.weights) + expo
        m = np.max(logits)
        logz = m + np.log(np.sum(np.exp(logits - m)))
        return logits - logz, diffs, logz

    def at(self, x, sigma: float) -> PriorPoint:
        x = self._check(x, sigma)
        log_r, diffs, _ = self._log_resp(x, sigma)
        r = np.exp(log_r)
        s2 = self._s2(sigma)

        def trace() -> float:
            # trace = sum_c r_c (|u_c|^2 - dim/s2) - |g|^2 with u_c = (M_c - x)/s2,
            # identical in form for both domains under the stated conventions.
            u = diffs / s2
            g = np.tensordot(r, u, axes=(0, 0))
            u_norms = np.sum(_abs2(u).reshape(self.n_components, -1), axis=1)
            return float(np.dot(r, u_norms) - self.dim / s2 - np.sum(_abs2(g)))

        def chain_vjp(cotangent) -> np.ndarray:
            v = s2 / 2.0 if self.domain == "complex" else s2
            s_eff2 = sigma * sigma / 2.0 if self.domain == "complex" else sigma * sigma
            # Real-coordinate score Jacobian, applied matrix-free:
            # dG/dy g = sum_c rho_c u_c (u_c . g) - G (G . g) - g / v.
            u = self._stack(diffs, self.n_components) / v
            G = r @ u
            g = self._stack(np.asarray(cotangent))
            out = g + s_eff2 * ((r * (u @ g)) @ u - G * (G @ g) - g / v)
            return self._unstack(out, np.asarray(cotangent))

        return PriorPoint(np.tensordot(r, diffs, axes=(0, 0)) / s2, trace, chain_vjp)

    first_order, second_order_trace, tweedie_chain_vjp = _VIEWS

    def smoothed_log_density(self, x, sigma: float) -> float:
        x = self._check(x, sigma)
        _, _, logz = self._log_resp(x, sigma)
        return float(logz)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        c = rng.choice(self.n_components, p=self.weights)
        mean = self.means[c]
        if self.domain == "complex":
            z = rng.standard_normal(mean.shape) + 1j * rng.standard_normal(mean.shape)
            return mean + z * np.sqrt(self.var0 / 2.0)
        return mean + rng.standard_normal(mean.shape) * np.sqrt(self.var0)

    def _stack(self, a: np.ndarray, *lead: int) -> np.ndarray:
        """Stacked real coordinates over the axes after `lead`: re, then im."""
        a = a.reshape(*lead, -1)
        if self.domain == "complex":
            return np.concatenate([a.real, a.imag], axis=-1)
        return a.astype(np.float64)

    def _unstack(self, y: np.ndarray, like: np.ndarray) -> np.ndarray:
        if self.domain == "complex":
            h = y.size // 2
            return (y[:h] + 1j * y[h:]).reshape(like.shape)
        return y.reshape(like.shape)
