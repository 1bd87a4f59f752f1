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

The constants of each reverse step (noise levels, precisions, variance gaps,
step sizes) come from one table, `PvdConfig.steps()`, built once per run.

All complex gradients are Wirtinger derivatives with respect to the
conjugate; under this convention the transition score is literally
(value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2) in both domains.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import MimoDims, block_adjoint, block_product, complex_normal
from .encoder import Linearization, NonFiniteInputError
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
        if not isinstance(self.J, numbers.Integral) or self.J < 1:
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


@dataclass(frozen=True)
class ReverseStep:
    """The constants of reverse step j, for the channel (H) and the source (D):
    the noise level sigma_j, the variance gap gap_j = sigma_{j+1}^2 - sigma_j^2,
    the step size eps_j = zeta gap_j and the variational precision
    Lambda_j = sigma_{j+1}^2 / (sigma_j^2 gap_j), math.inf at j = 0 (where
    sampling is deterministic)."""

    j: int
    sigma_H: float
    sigma_D: float
    lambda_H: float
    lambda_D: float
    gap_H: float
    gap_D: float
    eps_H: float
    eps_D: float


@dataclass(frozen=True)
class PvdConfig:
    """Reverse-process configuration.

    zeta_H / zeta_D scale the per-step learning rates
    eps_j = zeta (sigma_{j+1}^2 - sigma_j^2).
    """

    schedule_H: NoiseSchedule = field(default_factory=lambda: NoiseSchedule(0.01, 100.0, 30))
    schedule_D: NoiseSchedule = field(default_factory=lambda: NoiseSchedule(0.01, 100.0, 30))
    J_in: int = 20
    L: int = 1
    zeta_H: float = 0.06
    zeta_D: float = 0.06

    def __post_init__(self):
        if self.schedule_H.J != self.schedule_D.J:
            raise ValueError("channel and source schedules must share J")
        if not isinstance(self.J_in, numbers.Integral) or self.J_in < 1:
            raise ValueError("J_in must be a positive integer")
        if not isinstance(self.L, numbers.Integral) or self.L < 1:
            raise ValueError("L must be a positive integer")
        for name in ("zeta_H", "zeta_D"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        self.steps()  # a schedule that rounds to 0 fails here, not mid-run

    @property
    def J(self) -> int:
        return self.schedule_H.J

    def steps(self) -> list[ReverseStep]:
        """The reverse steps j = J-1, ..., 0 in run order. Every variance past
        j = 0, gap and step size is checked positive here, so the reverse
        loop uses them unchecked."""
        rows = []
        for j in range(self.J - 1, -1, -1):
            per_domain = []
            for sched, zeta in ((self.schedule_H, self.zeta_H), (self.schedule_D, self.zeta_D)):
                v_j, v_next = sched.variance(j), sched.variance(j + 1)
                gap = v_next - v_j
                if not (gap > 0 and zeta * gap > 0 and (j == 0 or v_j * gap > 0)):
                    raise ValueError("schedule variance, variance gap or step size is not "
                                     f"positive at j={j}")
                per_domain.append((sched.value(j),
                                   math.inf if v_j == 0.0 else v_next / (v_j * gap),
                                   gap, zeta * gap))
            (s_H, lam_H, gap_H, eps_H), (s_D, lam_D, gap_D, eps_D) = per_domain
            rows.append(ReverseStep(j, s_H, s_D, lam_H, lam_D, gap_H, gap_D, eps_H, eps_D))
        return rows


@dataclass
class PvdStepDiag:
    """One reverse step of the diagnostics trace. The gradient norms are
    over all users' averaged scores of the step's last inner iteration."""

    j: int
    sigma_H: float
    sigma_D: float
    residual: float
    grad_norm_H: float
    grad_norm_D: float


@dataclass
class RecoveryResult:
    """Blind recovery output: the (N_u, K, N_r, N_t) channel blocks and the
    (N_u, n) source vectors."""

    channels: np.ndarray
    sources: np.ndarray
    residual: float
    diagnostics: list[PvdStepDiag]


def sample_variational(
    H_mean: Sequence[np.ndarray],
    D_mean: Sequence[np.ndarray],
    step: ReverseStep,
    rng: np.random.Generator,
):
    """Draw one latent sample per user from the variational Gaussians.

    H ~ CN(mean, 1/lambda_H) entrywise on the free block entries and
    D ~ N(mean, 1/lambda_D), with the precisions of `step`; at infinite
    precision the mean itself is returned. Draw order is fixed (per user:
    channel then source) so runs are reproducible bit-for-bit.
    """
    H_s, D_s = [], []
    for Hm, Dm in zip(H_mean, D_mean):
        if math.isinf(step.lambda_H):
            H_s.append(Hm)
        else:
            H_s.append(Hm + complex_normal(rng, Hm.shape, 1.0 / step.lambda_H))
        if math.isinf(step.lambda_D):
            D_s.append(Dm)
        else:
            D_s.append(Dm + rng.standard_normal(Dm.shape) / math.sqrt(step.lambda_D))
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


def aggregated_noise_variance(
    lin: Linearization,
    H0j: np.ndarray,
    var_H: float,
    var_D: float,
    dims: MimoDims,
) -> float:
    """Expected per-entry power of the linearization noise.

    The residual model lumps three error terms into extra noise:
    dH * f(D), H_hat * J * dD, and dH * J * dD, with dH block-diagonal
    CN(0, var_H) on free entries and dD ~ N(0, var_D). Its expected
    per-entry power is

      [var_H N_r ||f(D)||_F^2 + var_D ||H J||_F^2
       + var_H var_D N_r ||J||_F^2] / (N_r K T),

    with f taken from `lin`, the encoder linearized at the denoised source,
    and both Jacobian norms from `lin.frobenius2`, exact and in closed form.
    """
    if var_H < 0 or var_D < 0:
        raise ValueError("error variances must be non-negative")
    if var_H == 0.0 and var_D == 0.0:
        return 0.0
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = lin.value
    total = var_H * N_r * float(np.sum((F * F.conj()).real))
    if var_D > 0:
        j_frob2, hj_frob2 = lin.frobenius2(H0j)
        total += var_D * hj_frob2 + var_H * var_D * N_r * j_frob2
    return total / (N_r * K * T)


def _residual(Y: np.ndarray, channels, signals) -> np.ndarray:
    """R = Y - sum_i H_i F_i over the users' block channels and signals."""
    return Y - sum(block_product(H, F) for H, F in zip(channels, signals))


def likelihood_scores(
    Y: np.ndarray,
    lins: Sequence[Linearization],
    H0j_list: Sequence[np.ndarray],
    var_dn: float,
    sigma_n2: float,
    points_H: Sequence[PriorPoint],
    points_D: Sequence[PriorPoint],
    sigma_H: float,
    sigma_D: float,
):
    """Per-user gradients of the calibrated log-likelihood in the latents.

    With R = Y - sum_i H0j_i f_i(D0j_i) and s2 = var_dn + sigma_n2, the
    conjugate-Wirtinger gradient in the denoised channel blocks is
    R f^H / s2 restricted to block-diagonal support, and the gradient in the
    denoised source flows through the encoder pullback with cotangent
    H^H R / s2; lins[i] is user i's encoder linearized at D0j_i. Both are
    then pulled back through the Tweedie maps x -> x + sigma^2 S(x) by the
    prior evaluations at the latent points (H_j, D_j), points_H and
    points_D; at sigma = 0 the map is the identity and the pullback is
    skipped.
    """
    s2 = var_dn + sigma_n2
    if s2 <= 0:
        raise ValueError("var_dn + sigma_n2 must be > 0")
    T = Y.shape[1]
    R = _residual(Y, H0j_list, [lin.value for lin in lins])
    grads_H, grads_D = [], []
    for lin, H0j, pt_H, pt_D in zip(lins, H0j_list, points_H, points_D):
        K, N_r, N_t = H0j.shape
        Rb = R.reshape(K, N_r, T)
        Fb = lin.value.reshape(K, N_t, T)
        gH = np.einsum("krt,kct->krc", Rb, Fb.conj()) / s2
        gD = lin(block_adjoint(H0j, R).reshape(lin.value.shape) / s2)
        grads_H.append(pt_H.chain_vjp(gH) if sigma_H > 0 else gH)
        grads_D.append(pt_D.chain_vjp(gD) if sigma_D > 0 else gD)
    return grads_H, grads_D


def transition_scores(
    H_next: np.ndarray,
    H_cur: np.ndarray,
    D_next: np.ndarray,
    D_cur: np.ndarray,
    step: ReverseStep,
):
    """Scores of the forward transition at `step`, evaluated at the samples.

    (value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2), valid for the
    complex channel and real source alike under the Wirtinger convention.
    """
    return (H_next - H_cur) / step.gap_H, (D_next - D_cur) / step.gap_D


def update_means(mean: np.ndarray, score_avg: np.ndarray, eps: float) -> np.ndarray:
    """One ascent step of size eps on the averaged combined posterior score."""
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
    if not dims.sigma_n2 > 0:
        raise ValueError(f"dims.sigma_n2 must be > 0 (it alone weights the j=0 "
                         f"likelihood), got {dims.sigma_n2!r}")
    n_u = dims.N_u
    encoders = _as_list(encoders, n_u)
    priors_H = _as_list(priors_H, n_u)
    priors_D = _as_list(priors_D, n_u)
    for enc in encoders:
        if enc.output_shape != dims.signal_shape:
            raise ValueError(
                f"encoder output {enc.output_shape} != signal shape {dims.signal_shape}"
            )
    for what, priors, domain, dim in (
            ("channel", priors_H, "complex", dims.K * dims.N_r * dims.N_t),
            ("source", priors_D, "real", dims.n)):
        for p in priors:
            if p.domain != domain or p.dim != dim:
                raise ValueError(f"{what} prior must be {domain} with {dim} entries, "
                                 f"got {p.domain} with {p.dim}")

    sched_H, sched_D = config.schedule_H, config.schedule_D
    J = config.J
    h_shape = (dims.K, dims.N_r, dims.N_t)

    H_latent, D_latent, H_mean, D_mean = [], [], [], []
    for _ in range(n_u):
        H_latent.append(complex_normal(rng, h_shape, sched_H.variance(J)))
        D_latent.append(rng.standard_normal(dims.n) * sched_D.value(J))
        H_mean.append(complex_normal(rng, h_shape, sched_H.variance(J - 1)))
        D_mean.append(rng.standard_normal(dims.n) * sched_D.value(J - 1))

    diag: list[PvdStepDiag] = []
    for step in config.steps():
        j, sH, sD = step.j, step.sigma_H, step.sigma_D
        for it in range(config.J_in):
            acc_H = [np.zeros(h_shape, dtype=np.complex128) for _ in range(n_u)]
            acc_D = [np.zeros(dims.n) for _ in range(n_u)]
            for _ in range(config.L):
                H_s, D_s = sample_variational(H_mean, D_mean, step, rng)
                # One prior and one encoder evaluation per user at this sample.
                pts_H = [p.at(x, sH) for p, x in zip(priors_H, H_s)]
                pts_D = [p.at(x, sD) for p, x in zip(priors_D, D_s)]
                H0j = [_denoised(x, pt, sH) for x, pt in zip(H_s, pts_H)]
                try:
                    lins = [enc.linearize(_denoised(x, pt, sD))
                            for enc, x, pt in zip(encoders, D_s, pts_D)]
                except NonFiniteInputError as exc:  # the samples are finite; the estimate is not
                    raise PvdDivergenceError(j, it, "Tweedie source estimate") from exc
                var_dn = 0.0
                for i in range(n_u):
                    var_dn += aggregated_noise_variance(
                        lins[i], H0j[i], _error_variance(H_s[i], pts_H[i], sH),
                        _error_variance(D_s[i], pts_D[i], sD), dims)
                if not math.isfinite(var_dn):
                    raise PvdDivergenceError(j, it, "aggregated noise variance")
                lik_H, lik_D = likelihood_scores(
                    Y, lins, H0j, var_dn, dims.sigma_n2, pts_H, pts_D, sH, sD)
                trans = [transition_scores(H_latent[i], H_s[i], D_latent[i], D_s[i], step)
                         for i in range(n_u)]
                for i, (tr_H, tr_D) in enumerate(trans):
                    acc_H[i] += tr_H + pts_H[i].score + lik_H[i]
                    acc_D[i] += tr_D + pts_D[i].score + lik_D[i]
            g_H = [a / config.L for a in acc_H]
            g_D = [a / config.L for a in acc_D]
            for i in range(n_u):
                H_mean[i] = update_means(H_mean[i], g_H[i], step.eps_H)
                D_mean[i] = update_means(D_mean[i], g_D[i], step.eps_D)
                if not (np.all(np.isfinite(H_mean[i])) and np.all(np.isfinite(D_mean[i]))):
                    # Name the first non-finite term of the last sample.
                    raise PvdDivergenceError(j, it, _first_nonfinite(
                        ("likelihood score", lik_H[i], lik_D[i]),
                        ("prior score", pts_H[i].score, pts_D[i].score),
                        ("transition score", *trans[i])))
        # Algorithm carry: latents take the refined means into step j-1. The
        # means are rebound, never written in place, so no copy is needed.
        H_latent, D_latent = list(H_mean), list(D_mean)
        diag.append(PvdStepDiag(
            j=j, sigma_H=sH, sigma_D=sD,
            residual=float(np.linalg.norm(_residual(
                Y, H_mean, [enc.encode(D) for enc, D in zip(encoders, D_mean)]))),
            grad_norm_H=float(np.linalg.norm(np.stack(g_H))),
            grad_norm_D=float(np.linalg.norm(np.stack(g_D))),
        ))

    return RecoveryResult(
        channels=np.stack(H_mean),
        sources=np.stack(D_mean),
        residual=diag[-1].residual,
        diagnostics=diag,
    )


def _first_nonfinite(*terms) -> str:
    bad = (what for what, *arrays in terms if not all(np.all(np.isfinite(a)) for a in arrays))
    return next(bad, "variational mean")
