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

Users sit on axis 0 throughout. At each sample point each prior and the
encoder are evaluated once for all users (`ScorePrior.at`,
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

import numpy as np

from .channel import MimoDims, block_adjoint, block_product, complex_normal
from .encoder import Linearization, NonFiniteInputError
from .priors import PriorPoint, ScorePrior


class PvdDivergenceError(RuntimeError):
    """Raised when a reverse step produces a non-finite quantity `what`, named
    in the message with the step, the inner iteration and the first user it
    shows in (`user`; None when no one user's term is non-finite)."""

    def __init__(self, step: int, inner: int, what: str, user: int | None = None):
        at_user = "" if user is None else f", user {user}"
        super().__init__(
            f"non-finite {what} at reverse step j={step}, inner iteration {inner}{at_user}"
        )
        self.step, self.inner, self.what, self.user = step, inner, what, user


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


def sample_variational(H_mean: np.ndarray, D_mean: np.ndarray, step: ReverseStep,
                       rng: np.random.Generator):
    """Draw one latent sample per user from the variational Gaussians.

    H ~ CN(H_mean, 1/lambda_H) entrywise on the free block entries and
    D ~ N(D_mean, 1/lambda_D), with the precisions of `step`; at j = 0, where
    both are infinite, the means themselves are returned. One draw serves all
    users, in a fixed order (per user: channel real and imaginary parts, then
    source), so runs are reproducible bit-for-bit.
    """
    if math.isinf(step.lambda_H):
        return H_mean, D_mean
    h = H_mean[0].size
    z = rng.standard_normal((len(D_mean), 2 * h + D_mean.shape[1]))
    noise_H = (z[:, :h] + 1j * z[:, h:2 * h]) * math.sqrt(1.0 / step.lambda_H / 2.0)
    return (H_mean + noise_H.reshape(H_mean.shape),
            D_mean + z[:, 2 * h:] / math.sqrt(step.lambda_D))


def _denoised(x: np.ndarray, point: PriorPoint, sigma: float) -> np.ndarray:
    return x if sigma == 0 else x + sigma**2 * point.score


def _error_variance(point: PriorPoint, s: float, dim: int):
    v = s * s + s**4 * point.trace() / dim if s else 0.0
    return (min(max(v, 0.0), s * s) if isinstance(v, float)
            else np.minimum(np.maximum(v, 0.0), s * s))


def tweedie(prior_H: ScorePrior, prior_D: ScorePrior, H_j: np.ndarray, D_j: np.ndarray,
            sigma_H: float, sigma_D: float):
    """Posterior-mean denoising of both latents at their current noise levels.

    x_hat = x + sigma^2 * first_order(prior, x, sigma); exact for the
    analytic priors, identity at sigma = 0.
    """
    return (_denoised(H_j, prior_H.at(H_j, sigma_H), sigma_H),
            _denoised(D_j, prior_D.at(D_j, sigma_D), sigma_D))


def error_variances(prior_H: ScorePrior, prior_D: ScorePrior, H_j: np.ndarray,
                    D_j: np.ndarray, sigma_H: float, sigma_D: float):
    """Per-entry variances of the Tweedie denoising errors (one per user for
    stacked latents).

    sigma_{0|j}^2 = sigma_j^2 + sigma_j^4 * trace / dim with dim one user's
    free entry count; clamped to [0, sigma_j^2]. Exact for Gaussian priors
    (conjugate posterior variance)."""
    return (_error_variance(prior_H.at(H_j, sigma_H), sigma_H, prior_H.dim),
            _error_variance(prior_D.at(D_j, sigma_D), sigma_D, prior_D.dim))


def aggregated_noise_variance(lin: Linearization, H0j: np.ndarray, var_H, var_D,
                              dims: MimoDims):
    """Expected per-entry power of each user's linearization noise.

    The residual model lumps three error terms into extra noise:
    dH * f(D), H_hat * J * dD, and dH * J * dD, with dH block-diagonal
    CN(0, var_H) on free entries and dD ~ N(0, var_D). Its expected
    per-entry power is

      [var_H N_r ||f(D)||_F^2 + var_D ||H J||_F^2
       + var_H var_D N_r ||J||_F^2] / (N_r K T),

    with f taken from `lin`, the encoder linearized at the denoised source,
    and both Jacobian norms from `lin.frobenius2`, exact and in closed form.
    For users stacked on axis 0 it is one value per user; the receiver's
    aggregated noise is their sum.
    """
    N_r, K, T = dims.N_r, dims.K, dims.T
    F = lin.value
    total = var_H * N_r * (F * F.conj()).real.reshape(F.shape[:-2] + (-1,)).sum(axis=-1)
    if isinstance(var_D, np.ndarray) or var_D > 0:  # no norms at sigma_D = 0
        j_frob2, hj_frob2 = lin.frobenius2(H0j)
        total = total + (var_D * hj_frob2 + var_H * var_D * N_r * j_frob2)
    return total / (N_r * K * T)


def _residual(Y: np.ndarray, H: np.ndarray, F: np.ndarray) -> np.ndarray:
    """R = Y - sum_i H0_i F_i over the users' (N_u, K, N_r, N_t) block channels
    and (N_u, N_t*K, T) signals, added in user order."""
    return Y - np.add.accumulate(block_product(H, F))[-1]


def likelihood_scores(Y: np.ndarray, lin: Linearization, H0j: np.ndarray, var_dn: float,
                      sigma_n2: float, point_H: PriorPoint, point_D: PriorPoint,
                      sigma_H: float, sigma_D: float):
    """Gradients of the calibrated log-likelihood in every user's latents.

    With R = Y - sum_i H0j_i f_i(D0j_i) and s2 = var_dn + sigma_n2, the
    conjugate-Wirtinger gradient in user i's denoised channel blocks is
    R f_i^H / s2 restricted to block-diagonal support, and the gradient in
    its denoised source flows through the encoder pullback with cotangent
    H0j_i^H R / s2; `lin` is the encoder linearized at all users' denoised
    sources and H0j their (N_u, K, N_r, N_t) channels. Both are then pulled
    back through the Tweedie maps x -> x + sigma^2 S(x) by the prior
    evaluations at the latent points (H_j, D_j), point_H and point_D; at
    sigma = 0 the map is the identity and the pullback is skipped.
    """
    s2 = var_dn + sigma_n2
    if s2 <= 0:
        raise ValueError("var_dn + sigma_n2 must be > 0")
    n_u, K, N_r, N_t = H0j.shape
    F = lin.value
    R = _residual(Y, H0j, F)
    gH = np.einsum("krt,ukct->ukrc", R.reshape(K, N_r, -1),
                   F.reshape(n_u, K, N_t, -1).conj()) / s2
    gD = lin(block_adjoint(H0j, R) / s2)
    return (point_H.chain_vjp(gH) if sigma_H > 0 else gH,
            point_D.chain_vjp(gD) if sigma_D > 0 else gD)


def transition_scores(H_next: np.ndarray, H_cur: np.ndarray, D_next: np.ndarray,
                      D_cur: np.ndarray, step: ReverseStep):
    """Scores of the forward transition at `step`, evaluated at the samples.

    (value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2), valid for the
    complex channel and real source alike under the Wirtinger convention.
    """
    return (H_next - H_cur) / step.gap_H, (D_next - D_cur) / step.gap_D


def update_means(mean: np.ndarray, score_avg: np.ndarray, eps: float) -> np.ndarray:
    """One ascent step of size eps on the averaged combined posterior score."""
    return mean + eps * score_avg


class _PerUser:
    """Per-user priors or encoders behind the stacked interface: member i is
    evaluated at row i of axis 0 and the results are joined back along it."""

    def __init__(self, members):
        self.members = list(members)

    def at(self, x, sigma: float) -> PriorPoint:
        pts = [p.at(x_i, sigma) for p, x_i in zip(self.members, x[:, None])]
        return PriorPoint(
            np.concatenate([pt.score for pt in pts]),
            lambda: np.hstack([pt.trace() for pt in pts]),
            lambda c: np.concatenate([pt.chain_vjp(c_i) for pt, c_i in zip(pts, c[:, None])]))

    def linearize(self, d) -> Linearization:
        lins = [enc.linearize(d_i) for enc, d_i in zip(self.members, d[:, None])]
        return Linearization(
            np.concatenate([lin.value for lin in lins]),
            lambda c: np.concatenate([lin._pull(c_i) for lin, c_i in zip(lins, c[:, None])]),
            lambda: np.concatenate([lin.jacobian() for lin in lins]),
            lambda Q: [np.concatenate(v) for v in
                       zip(*(lin._norms(Q_i) for lin, Q_i in zip(lins, Q[:, None])))])

    def encode(self, d) -> np.ndarray:
        return self.linearize(d).value


def _joined(objs, n_users: int):
    """One object over all users: a single object as it is, a per-user
    sequence joined by _PerUser (a sequence of one: its entry)."""
    if not isinstance(objs, (list, tuple)):
        return objs
    if len(objs) != n_users:
        raise ValueError(f"expected {n_users} per-user entries, got {len(objs)}")
    return objs[0] if n_users == 1 else _PerUser(objs)


def run(Y: np.ndarray, encoders, priors_H, priors_D, dims: MimoDims, config: PvdConfig,
        rng: np.random.Generator) -> RecoveryResult:
    """Full reverse process: recover all users' channels and sources from Y.

    encoders / priors_H / priors_D may each be one object over all users (an
    encoder with one A per user stacked on axis 0, a prior with stacked
    anchors, or one shared by all users) or a per-user sequence, which is
    evaluated member by member. The N_u = 1 case runs the identical code
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
    encoder, prior_H, prior_D = (_joined(objs, n_u) for objs in (encoders, priors_H, priors_D))
    for enc in getattr(encoder, "members", [encoder]):
        if enc.output_shape != dims.signal_shape:
            raise ValueError(f"encoder output {enc.output_shape} != signal shape "
                             f"{dims.signal_shape}")
    dim_H = dims.K * dims.N_r * dims.N_t
    for what, prior, domain, dim in (
            ("channel", prior_H, "complex", dim_H), ("source", prior_D, "real", dims.n)):
        for p in getattr(prior, "members", [prior]):
            if p.domain != domain or p.dim != dim:
                raise ValueError(f"{what} prior must be {domain} with {dim} entries, "
                                 f"got {p.domain} with {p.dim}")

    sched_H, sched_D, J = config.schedule_H, config.schedule_D, config.J
    h_shape = (dims.K, dims.N_r, dims.N_t)
    H_latent, D_latent, H_mean, D_mean = (np.stack(a) for a in zip(*(
        (complex_normal(rng, h_shape, sched_H.variance(J)),
         rng.standard_normal(dims.n) * sched_D.value(J),
         complex_normal(rng, h_shape, sched_H.variance(J - 1)),
         rng.standard_normal(dims.n) * sched_D.value(J - 1)) for _ in range(n_u))))

    diag: list[PvdStepDiag] = []
    for step in config.steps():
        j, sH, sD = step.j, step.sigma_H, step.sigma_D
        for it in range(config.J_in):
            acc_H = np.zeros(H_mean.shape, dtype=np.complex128)
            acc_D = np.zeros(D_mean.shape)
            for _ in range(config.L):
                H_s, D_s = sample_variational(H_mean, D_mean, step, rng)
                # One prior and one encoder evaluation for all users at this sample.
                pt_H, pt_D = prior_H.at(H_s, sH), prior_D.at(D_s, sD)
                H0j, D0j = _denoised(H_s, pt_H, sH), _denoised(D_s, pt_D, sD)
                try:
                    lin = encoder.linearize(D0j)
                except NonFiniteInputError as exc:  # the samples are finite; the estimate is not
                    raise PvdDivergenceError(j, it, "Tweedie source estimate",
                                             _first_bad_user(D0j)) from exc
                noise = aggregated_noise_variance(
                    lin, H0j, _error_variance(pt_H, sH, dim_H),
                    _error_variance(pt_D, sD, dims.n), dims)
                var_dn = float(np.add.accumulate(noise)[-1])  # summed in user order
                if not math.isfinite(var_dn):
                    raise PvdDivergenceError(j, it, "aggregated noise variance",
                                             _first_bad_user(noise))
                lik_H, lik_D = likelihood_scores(
                    Y, lin, H0j, var_dn, dims.sigma_n2, pt_H, pt_D, sH, sD)
                tr_H, tr_D = transition_scores(H_latent, H_s, D_latent, D_s, step)
                acc_H += tr_H + pt_H.score + lik_H
                acc_D += tr_D + pt_D.score + lik_D
            g_H, g_D = acc_H / config.L, acc_D / config.L
            H_mean = update_means(H_mean, g_H, step.eps_H)
            D_mean = update_means(D_mean, g_D, step.eps_D)
            if not (np.isfinite(H_mean).all() and np.isfinite(D_mean).all()):
                u = _first_bad_user(H_mean, D_mean)
                # Name the first non-finite term of the last sample.
                raise PvdDivergenceError(j, it, _first_nonfinite(
                    ("likelihood score", lik_H[u], lik_D[u]),
                    ("prior score", pt_H.score[u], pt_D.score[u]),
                    ("transition score", tr_H[u], tr_D[u])), u)
        # Algorithm carry: latents take the refined means into step j-1. The
        # means are rebound, never written in place, so no copy is needed.
        H_latent, D_latent = H_mean, D_mean
        diag.append(PvdStepDiag(
            j=j, sigma_H=sH, sigma_D=sD,
            residual=float(np.linalg.norm(_residual(Y, H_mean, encoder.encode(D_mean)))),
            grad_norm_H=float(np.linalg.norm(g_H)),
            grad_norm_D=float(np.linalg.norm(g_D)),
        ))

    return RecoveryResult(channels=H_mean, sources=D_mean, residual=diag[-1].residual,
                          diagnostics=diag)


def _first_bad_user(*arrays) -> int | None:
    """The first user (row of axis 0) with a non-finite entry in any of `arrays`."""
    bad = np.any([~np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays], axis=0)
    return int(np.argmax(bad)) if bad.any() else None


def _first_nonfinite(*terms) -> str:
    bad = (what for what, *arrays in terms if not all(np.all(np.isfinite(a)) for a in arrays))
    return next(bad, "variational mean")
