"""Joint blind channel-and-source recovery by parallel variational diffusion.

Two coupled reverse diffusion processes run side by side, one over the
block-fading channel (complex) and one over the source vector (real). At
each reverse step j the conditional posterior of the latent pair is
approximated by a Gaussian whose precision follows from the noise
schedule; its means are refined by J_in gradient ascent steps on the
log of

    transition(step j+1 | step j) * smoothed prior * calibrated likelihood,

with every gradient averaged over L samples drawn from the current
variational Gaussian. The likelihood is calibrated by propagating the
Tweedie denoising errors of both estimates into an aggregated noise
variance, so early steps (where the estimates are poor) are weighted
down automatically. After the final step the variational means are the
recovered channel and source.

At each sample every prior and encoder is evaluated once (`ScorePrior.at`,
`Encoder.linearize`), and that one evaluation feeds the Tweedie estimates,
their error variances, the aggregated noise, the likelihood and the prior
term alike.

All complex gradients are Wirtinger derivatives with respect to the
conjugate; under this convention the transition score is literally
(value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2) in both domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import MimoDims, BlockFadingChannel, complex_normal
from .encoder import Linearization, _hutchinson_frobenius2
from .priors import PriorPoint, ScorePrior


class PvdDivergenceError(RuntimeError):
    """Raised when a reverse step produces a non-finite quantity, named in the message."""

    def __init__(self, step: int, inner: int, what: str):
        super().__init__(
            f"non-finite {what} at reverse step j={step}, inner iteration {inner}"
        )
        self.step = step
        self.inner = inner


@dataclass(frozen=True)
class NoiseSchedule:
    """Exponential noise schedule: sigma_j = sigma_1 (sigma_J/sigma_1)^(j/J), sigma_0 = 0."""

    sigma_1: float
    sigma_J: float
    J: int

    def __post_init__(self):
        if not (0 < self.sigma_1 < self.sigma_J):
            raise ValueError(
                f"need 0 < sigma_1 < sigma_J, got {self.sigma_1!r}, {self.sigma_J!r}"
            )
        if int(self.J) != self.J or self.J < 1:
            raise ValueError(f"J must be a positive integer, got {self.J!r}")

    def value(self, j: int) -> float:
        if j < 0 or j > self.J:
            raise ValueError(f"step index {j} outside [0, {self.J}]")
        if j == 0:
            return 0.0
        return self.sigma_1 * (self.sigma_J / self.sigma_1) ** (j / self.J)

    def variance(self, j: int) -> float:
        s = self.value(j)
        return s * s


def precisions(sched_H: NoiseSchedule, sched_D: NoiseSchedule, j: int) -> tuple[float, float]:
    """Variational precisions at reverse step j.

    Lambda_j = sigma_{j+1}^2 / (sigma_j^2 (sigma_{j+1}^2 - sigma_j^2)); at
    j = 0 the step variance vanishes and the precision is reported as
    math.inf, which makes sampling deterministic.
    """
    out = []
    for sched in (sched_H, sched_D):
        if j < 0 or j > sched.J - 1:
            raise ValueError(f"step index {j} outside [0, {sched.J - 1}]")
        v_j, v_next = sched.variance(j), sched.variance(j + 1)
        if v_next <= v_j:
            raise ValueError(f"schedule variance gap is not positive at j={j}")
        out.append(math.inf if v_j == 0.0 else v_next / (v_j * (v_next - v_j)))
    return out[0], out[1]


@dataclass
class PvdConfig:
    """Reverse-process configuration.

    zeta_H / zeta_D scale the per-step learning rates
    eps_j = zeta (sigma_{j+1}^2 - sigma_j^2). chain_through_score selects
    the exact Tweedie-Jacobian chain rule for the likelihood gradients
    (analytic for the shipped priors); with the flag off the Jacobian is
    approximated by the identity. probes / exact_threshold control the
    Frobenius-norm machinery inside the aggregated-noise estimate.
    """

    schedule_H: NoiseSchedule = field(default_factory=lambda: NoiseSchedule(0.01, 100.0, 30))
    schedule_D: NoiseSchedule = field(default_factory=lambda: NoiseSchedule(0.01, 100.0, 30))
    J_in: int = 20
    L: int = 1
    zeta_H: float = 0.06
    zeta_D: float = 0.06
    chain_through_score: bool = True
    probes: int = 8
    exact_threshold: int = 1 << 16

    def __post_init__(self):
        if self.schedule_H.J != self.schedule_D.J:
            raise ValueError("channel and source schedules must share J")
        if int(self.J_in) != self.J_in or self.J_in < 1:
            raise ValueError("J_in must be a positive integer")
        if int(self.L) != self.L or self.L < 1:
            raise ValueError("L must be a positive integer")
        if self.zeta_H <= 0 or self.zeta_D <= 0:
            raise ValueError("step-size multipliers zeta must be > 0")
        if self.probes < 1:
            raise ValueError("probes must be >= 1")

    @property
    def J(self) -> int:
        return self.schedule_H.J


@dataclass
class PvdState:
    """Per-user latents, variational means, and current precisions."""

    H_latent: list[np.ndarray]
    D_latent: list[np.ndarray]
    H_mean: list[np.ndarray]
    D_mean: list[np.ndarray]
    lambda_H: float = math.inf
    lambda_D: float = math.inf


@dataclass
class PvdStepDiag:
    """One reverse step of the diagnostics trace."""

    j: int
    sigma_H: float
    sigma_D: float
    residual: float
    grad_norm_H: float
    grad_norm_D: float


@dataclass
class RecoveryResult:
    """Blind recovery output: per-user channel blocks and source vectors."""

    channels: list[BlockFadingChannel]
    sources: list[np.ndarray]
    residual: float
    diagnostics: list[PvdStepDiag]


def sample_variational(state: PvdState, rng: np.random.Generator):
    """Draw one latent sample per user from the variational Gaussians.

    H ~ CN(mean, 1/lambda_H) entrywise on the free block entries and
    D ~ N(mean, 1/lambda_D); at infinite precision the mean itself is
    returned. Draw order is fixed (per user: channel then source) so runs
    are reproducible bit-for-bit.
    """
    H_s, D_s = [], []
    for Hm, Dm in zip(state.H_mean, state.D_mean):
        if math.isinf(state.lambda_H):
            H_s.append(Hm.copy())
        else:
            H_s.append(Hm + complex_normal(rng, Hm.shape, 1.0 / state.lambda_H))
        if math.isinf(state.lambda_D):
            D_s.append(Dm.copy())
        else:
            D_s.append(Dm + rng.standard_normal(Dm.shape) / math.sqrt(state.lambda_D))
    return H_s, D_s


def _denoised(x: np.ndarray, point: PriorPoint, sigma: float) -> np.ndarray:
    return x if sigma == 0 else x + sigma**2 * point.score


def _error_variance(x: np.ndarray, point: PriorPoint, s: float) -> float:
    if s == 0:
        return 0.0
    v = s * s + s**4 * point.trace() / x.size
    return float(min(max(v, 0.0), s * s))


def tweedie(
    prior_H: ScorePrior,
    prior_D: ScorePrior,
    H_j: np.ndarray,
    D_j: np.ndarray,
    sigma_H: float,
    sigma_D: float,
):
    """Posterior-mean denoising of both latents at their current noise levels.

    x_hat = x + sigma^2 * first_order(prior, x, sigma); exact for the
    analytic priors, identity at sigma = 0.
    """
    return (_denoised(H_j, prior_H.at(H_j, sigma_H), sigma_H),
            _denoised(D_j, prior_D.at(D_j, sigma_D), sigma_D))


def error_variances(
    prior_H: ScorePrior,
    prior_D: ScorePrior,
    H_j: np.ndarray,
    D_j: np.ndarray,
    sigma_H: float,
    sigma_D: float,
):
    """Per-entry variances of the Tweedie denoising errors.

    sigma_{0|j}^2 = sigma_j^2 + sigma_j^4 * trace / dim with dim the free
    entry count; clamped to [0, sigma_j^2]. Exact for Gaussian priors
    (conjugate posterior variance)."""
    return (_error_variance(H_j, prior_H.at(H_j, sigma_H), sigma_H),
            _error_variance(D_j, prior_D.at(D_j, sigma_D), sigma_D))


def _apply_blocks(H_blocks: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block-diagonal product: (K,N_r,N_t) blocks times (N_t*K, T) signal."""
    K, N_r, N_t = H_blocks.shape
    Xb = X.reshape(K, N_t, -1)
    return np.einsum("krc,kct->krt", H_blocks, Xb).reshape(K * N_r, -1)


def _blocks_adjoint(H_blocks: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Adjoint block product: H^H Y, returning signal shape (N_t*K, T)."""
    K, N_r, N_t = H_blocks.shape
    Yb = Y.reshape(K, N_r, -1)
    return np.einsum("krc,krt->kct", H_blocks.conj(), Yb).reshape(K * N_t, -1)


def aggregated_noise_variance(
    lin: Linearization,
    H0j: np.ndarray,
    var_H: float,
    var_D: float,
    dims: MimoDims,
    probes: int = 8,
    rng: np.random.Generator | None = None,
    exact_threshold: int = 1 << 16,
) -> float:
    """Expected per-entry power of the linearization noise.

    The residual model lumps three error terms into extra noise:
    dH * f(D), H_hat * J * dD, and dH * J * dD, with dH block-diagonal
    CN(0, var_H) on free entries and dD ~ N(0, var_D). Its expected
    per-entry power is

      [var_H N_r ||f(D)||_F^2 + var_D ||H J||_F^2
       + var_H var_D N_r ||J||_F^2] / (N_r K T),

    with f, J and the pullback taken from `lin`, the encoder linearized at
    the denoised source. The Jacobian norms are computed exactly below the
    size threshold and otherwise by Hutchinson probes pushed through the
    pullback: all ||J|| probes, then all ||HJ|| probes.
    """
    if var_H < 0 or var_D < 0:
        raise ValueError("error variances must be non-negative")
    if var_H == 0.0 and var_D == 0.0:
        return 0.0
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = lin.value
    total = var_H * N_r * float(np.sum((F * F.conj()).real))
    if var_D > 0:
        n = lin.d.size
        if n * F.size <= exact_threshold:
            J = lin.jacobian()
            j_frob2 = float(np.sum((J * J.conj()).real))
            cols = J.reshape(K, dims.N_t, T, n)
            HJ = np.einsum("krc,kctn->krtn", H0j, cols)
            hj_frob2 = float(np.sum((HJ * HJ.conj()).real))
        else:
            j_frob2 = _hutchinson_frobenius2(lin, F.shape, probes, rng)
            hj_frob2 = _hutchinson_frobenius2(
                lin, (N_r * K, T), probes, rng, lambda V: _blocks_adjoint(H0j, V))
        total += var_D * hj_frob2 + var_H * var_D * N_r * j_frob2
    return total / (N_r * K * T)


def likelihood_scores(
    Y: np.ndarray,
    lins: Sequence[Linearization],
    H0j_list: Sequence[np.ndarray],
    var_dn: float,
    sigma_n2: float,
    config: PvdConfig,
    points_H: Sequence[PriorPoint] | None = None,
    points_D: Sequence[PriorPoint] | None = None,
    sigma_H: float = 0.0,
    sigma_D: float = 0.0,
):
    """Per-user gradients of the calibrated log-likelihood.

    With R = Y - sum_i H0j_i f_i(D0j_i) and s2 = var_dn + sigma_n2, the
    conjugate-Wirtinger gradient in the channel blocks is R f^H / s2
    restricted to block-diagonal support, and the source gradient flows
    through the encoder pullback with cotangent H^H R / s2; lins[i] is
    user i's encoder linearized at D0j_i. When config.chain_through_score
    is set the gradients are pulled back through the Tweedie maps exactly,
    by the prior evaluations at the latent points (H_j, D_j); otherwise
    the Tweedie Jacobian is approximated by the identity.
    """
    s2 = var_dn + sigma_n2
    if s2 <= 0:
        raise ValueError("var_dn + sigma_n2 must be > 0")
    T = Y.shape[1]
    R = Y - sum(_apply_blocks(H, lin.value) for H, lin in zip(H0j_list, lins))
    grads_H, grads_D = [], []
    for i, (lin, H0j) in enumerate(zip(lins, H0j_list)):
        K, N_r, N_t = H0j.shape
        Rb = R.reshape(K, N_r, T)
        Fb = lin.value.reshape(K, N_t, T)
        gH = np.einsum("krt,kct->krc", Rb, Fb.conj()) / s2
        gD = lin(_blocks_adjoint(H0j, R).reshape(lin.value.shape) / s2)
        if config.chain_through_score:
            if points_H is None or points_D is None:
                raise ValueError("chain_through_score requires the prior evaluations")
            if sigma_H > 0:
                gH = points_H[i].chain_vjp(gH)
            if sigma_D > 0:
                gD = points_D[i].chain_vjp(gD)
        grads_H.append(gH)
        grads_D.append(gD)
    return grads_H, grads_D


def transition_scores(
    H_next: np.ndarray,
    H_cur: np.ndarray,
    D_next: np.ndarray,
    D_cur: np.ndarray,
    sched_H: NoiseSchedule,
    sched_D: NoiseSchedule,
    j: int,
):
    """Scores of the forward transition at step j, evaluated at the samples.

    (value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2), valid for the
    complex channel and real source alike under the Wirtinger convention.
    """
    gap_H = sched_H.variance(j + 1) - sched_H.variance(j)
    gap_D = sched_D.variance(j + 1) - sched_D.variance(j)
    if gap_H <= 0 or gap_D <= 0:
        raise ValueError(f"variance gap must be positive at j={j}")
    return (H_next - H_cur) / gap_H, (D_next - D_cur) / gap_D


def update_means(mean: np.ndarray, score_avg: np.ndarray, eps: float) -> np.ndarray:
    """One ascent step on the averaged combined posterior score."""
    if eps <= 0:
        raise ValueError("step size must be > 0")
    return mean + eps * score_avg


def _as_list(obj, n_users: int) -> list:
    if isinstance(obj, (list, tuple)):
        if len(obj) != n_users:
            raise ValueError(f"expected {n_users} per-user entries, got {len(obj)}")
        return list(obj)
    return [obj] * n_users


def run(
    Y: np.ndarray,
    encoders,
    priors_H,
    priors_D,
    dims: MimoDims,
    config: PvdConfig,
    rng: np.random.Generator,
) -> RecoveryResult:
    """Full reverse process: recover all users' channels and sources from Y.

    encoders / priors_H / priors_D may be single objects (shared by all
    users) or per-user sequences. The N_u = 1 case runs the identical code
    path as the multi-user case. The per-step trace is returned in
    `diagnostics`; writing it out is left to the caller.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.shape != dims.output_shape:
        raise ValueError(f"Y has shape {Y.shape}, expected {dims.output_shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    n_u = dims.N_u
    encoders = _as_list(encoders, n_u)
    priors_H = _as_list(priors_H, n_u)
    priors_D = _as_list(priors_D, n_u)
    for enc in encoders:
        if enc.output_shape != dims.signal_shape:
            raise ValueError(
                f"encoder output {enc.output_shape} != signal shape {dims.signal_shape}"
            )

    sched_H, sched_D = config.schedule_H, config.schedule_D
    J = config.J
    h_shape = (dims.K, dims.N_r, dims.N_t)

    state = PvdState(H_latent=[], D_latent=[], H_mean=[], D_mean=[])
    for _ in range(n_u):
        state.H_latent.append(complex_normal(rng, h_shape, sched_H.variance(J)))
        state.D_latent.append(rng.standard_normal(dims.n) * sched_D.value(J))
        state.H_mean.append(complex_normal(rng, h_shape, sched_H.variance(J - 1)))
        state.D_mean.append(rng.standard_normal(dims.n) * sched_D.value(J - 1))

    diag: list[PvdStepDiag] = []
    for j in range(J - 1, -1, -1):
        sH, sD = sched_H.value(j), sched_D.value(j)
        state.lambda_H, state.lambda_D = precisions(sched_H, sched_D, j)
        eps_H = config.zeta_H * (sched_H.variance(j + 1) - sched_H.variance(j))
        eps_D = config.zeta_D * (sched_D.variance(j + 1) - sched_D.variance(j))
        last_gnorm_H = last_gnorm_D = 0.0
        for it in range(config.J_in):
            acc_H = [np.zeros(h_shape, dtype=np.complex128) for _ in range(n_u)]
            acc_D = [np.zeros(dims.n) for _ in range(n_u)]
            for _ in range(config.L):
                H_s, D_s = sample_variational(state, rng)
                # One prior and one encoder evaluation per user at this sample.
                pts_H = [p.at(x, sH) for p, x in zip(priors_H, H_s)]
                pts_D = [p.at(x, sD) for p, x in zip(priors_D, D_s)]
                H0j = [_denoised(x, pt, sH) for x, pt in zip(H_s, pts_H)]
                lins = [enc.linearize(_denoised(x, pt, sD))
                        for enc, x, pt in zip(encoders, D_s, pts_D)]
                var_dn = 0.0
                for i in range(n_u):
                    var_dn += aggregated_noise_variance(
                        lins[i], H0j[i], _error_variance(H_s[i], pts_H[i], sH),
                        _error_variance(D_s[i], pts_D[i], sD), dims,
                        config.probes, rng, config.exact_threshold)
                if not math.isfinite(var_dn):
                    raise PvdDivergenceError(j, it, "aggregated noise variance")
                lik_H, lik_D = likelihood_scores(
                    Y, lins, H0j, var_dn, dims.sigma_n2, config, pts_H, pts_D, sH, sD)
                trans = [transition_scores(state.H_latent[i], H_s[i], state.D_latent[i],
                                           D_s[i], sched_H, sched_D, j) for i in range(n_u)]
                for i, (tr_H, tr_D) in enumerate(trans):
                    acc_H[i] += tr_H + pts_H[i].score + lik_H[i]
                    acc_D[i] += tr_D + pts_D[i].score + lik_D[i]
            for i in range(n_u):
                g_H = acc_H[i] / config.L
                g_D = acc_D[i] / config.L
                state.H_mean[i] = update_means(state.H_mean[i], g_H, eps_H)
                state.D_mean[i] = update_means(state.D_mean[i], g_D, eps_D)
                if not (np.all(np.isfinite(state.H_mean[i]))
                        and np.all(np.isfinite(state.D_mean[i]))):
                    # Name the first non-finite term of the last sample.
                    raise PvdDivergenceError(j, it, _first_nonfinite(
                        ("likelihood score", lik_H[i], lik_D[i]),
                        ("prior score", pts_H[i].score, pts_D[i].score),
                        ("transition score", *trans[i])))
                last_gnorm_H = float(np.linalg.norm(g_H))
                last_gnorm_D = float(np.linalg.norm(g_D))
        # Algorithm carry: latents take the refined means into step j-1.
        state.H_latent = [h.copy() for h in state.H_mean]
        state.D_latent = [d.copy() for d in state.D_mean]
        diag.append(PvdStepDiag(
            j=j, sigma_H=sH, sigma_D=sD,
            residual=_residual(Y, encoders, state.H_mean, state.D_mean),
            grad_norm_H=last_gnorm_H, grad_norm_D=last_gnorm_D,
        ))

    return RecoveryResult(
        channels=[BlockFadingChannel(h) for h in state.H_mean],
        sources=[d.copy() for d in state.D_mean],
        residual=diag[-1].residual,
        diagnostics=diag,
    )


def _first_nonfinite(*terms) -> str:
    bad = (what for what, *arrays in terms if not all(np.all(np.isfinite(a)) for a in arrays))
    return next(bad, "variational mean")


def _residual(Y, encoders, H_means, D_means) -> float:
    fit = sum(
        _apply_blocks(H, enc.encode(D))
        for enc, H, D in zip(encoders, H_means, D_means)
    )
    return float(np.linalg.norm(Y - fit))
