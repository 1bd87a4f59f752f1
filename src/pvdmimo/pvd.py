"""Joint blind channel-and-source recovery by parallel variational diffusion.

Two coupled reverse diffusion processes run side by side, one over the
block-fading channel (complex) and one over the source vector (real). At
each reverse step j the conditional posterior of the latent pair is
approximated by a Gaussian whose precision follows from the noise
schedule; its means are refined by J_in gradient ascent steps on the
log of

    transition(step j+1 | step j) * smoothed prior * calibrated likelihood,

with every gradient averaged over L samples drawn from the current
variational Gaussian. One generator draw makes the noise of all J_in x L
samples of a step, in the order per inner iteration, per sample, per user:
channel real and imaginary parts, then source. The likelihood is calibrated
by propagating the Tweedie denoising errors of both estimates into an
aggregated noise variance, so early steps (where the estimates are poor)
are weighted down automatically. After the final step the variational
means are the recovered channel and source.

`run` decodes a batch of independent cells (one received block each, with
its own noise power and generator) in one loop, and a lone run is a batch of
one cell: every array of the loop carries the cell axis, then the users. At
each sample point each prior and the encoder are evaluated once for all users
of all cells (`ScorePrior.at`, `Encoder.linearize`), and that one evaluation
feeds the Tweedie estimates, their error variances, the aggregated noise, the
likelihood and the prior term alike. Every kernel indexes trailing axes only,
so a cell's outcome does not depend on the batch it runs in.

The constants of each reverse step (noise levels, precisions, variance gaps,
step sizes) come from one table, `PvdConfig.steps()`, built once per run.

All complex gradients are Wirtinger derivatives with respect to the
conjugate; under this convention the transition score is literally
(value_{j+1} - value_j) / (sigma_{j+1}^2 - sigma_j^2) in both domains.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import MimoDims, block_adjoint, block_product, superpose
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
        # every bad field, in one ValueError of '; '-joined faults
        v = vars(self)
        faults = [f"{k} must be a positive integer, got {v[k]!r}" for k in ("J_in", "L")
                  if not isinstance(v[k], numbers.Integral) or v[k] < 1]
        faults += [f"{k} must be > 0, got {v[k]!r}" for k in ("zeta_H", "zeta_D") if not v[k] > 0]
        if self.schedule_H.J != self.schedule_D.J:
            faults.append("channel and source schedules must share J")
        if faults:
            raise ValueError("; ".join(faults))
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


def sample_variational(H_shape: tuple, D_shape: tuple, step: ReverseStep,
                       rng: list, J_in: int, L: int):
    """The variational noise (noise_H, noise_D) of all J_in x L samples of a step.

    Sample l of inner iteration it is (H_mean + noise_H[it, l], D_mean + noise_D[it, l]):
    CN(H_mean, 1/lambda_H) on the free block entries and N(D_mean, 1/lambda_D). At j = 0
    (infinite precisions) it draws nothing and returns None: the means are the sample.
    `rng` is a list of one generator per cell (one for shapes with no cell axis), each
    drawn once, in the order per inner iteration, sample, user: channel re, im, source."""
    if not (isinstance(rng, list) and len(D_shape) < 4 and math.prod(D_shape[:-2]) == len(rng)):
        raise ValueError(f"need one generator per cell, got {rng!r} for sources {D_shape}")
    if math.isinf(step.lambda_H):
        return None
    h = math.prod(H_shape[-3:])
    shape = (J_in, L, D_shape[-2], 2 * h + D_shape[-1])
    z = np.stack([r.standard_normal(shape) for r in rng], axis=2).reshape(
        (J_in, L) + D_shape[:-1] + (-1,))
    noise_H = (z[..., :h] + 1j * z[..., h:2 * h]) * math.sqrt(1.0 / step.lambda_H / 2.0)
    return noise_H.reshape((J_in, L) + H_shape), z[..., 2 * h:] / math.sqrt(step.lambda_D)


def _denoised(x: np.ndarray, point: PriorPoint, sigma: float) -> np.ndarray:
    return x if sigma == 0 else x + sigma**2 * point.score


def _error_variance(point: PriorPoint, s: float, dim: int):
    v = s * s + s**4 * point.trace / dim
    if isinstance(v, float):  # a trace shared by all users: Python's clamp, 4x cheaper
        return min(max(v, 0.0), s * s)
    # ufuncs, not np.clip: its Python wrapper costs more than the arithmetic here
    return np.minimum(np.maximum(v, 0.0), s * s)


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
    total = var_H * N_r * np.add.reduce((F * F.conj()).real.reshape(*F.shape[:-2], -1), -1)
    j_frob2, hj_frob2 = lin.frobenius2(H0j)
    total = total + (var_D * hj_frob2 + var_H * var_D * N_r * j_frob2)
    return total / (N_r * K * T)


def likelihood_scores(Y: np.ndarray, lin: Linearization, H0j: np.ndarray, var_dn,
                      sigma_n2, point_H: PriorPoint, point_D: PriorPoint,
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
    sigma = 0 the map is the identity and the pullback is skipped. Any
    leading axes in front of the users (the cells of a batch: Y (B, N_r K, T),
    H0j (B, N_u, K, N_r, N_t)) carry through, with var_dn and sigma_n2 one
    value per leading index.
    """
    s2_D = np.asarray(var_dn + sigma_n2)[..., None, None, None]  # over (N_u, N_t K, T)
    if not all(v > 0 for v in s2_D.ravel().tolist()):  # NaN fails too
        raise ValueError("var_dn + sigma_n2 must be > 0")
    K, N_r, N_t = H0j.shape[-3:]
    F = lin.value
    R = Y - superpose(H0j, F)
    gH = np.einsum("...krt,...ukct->...ukrc", R.reshape(R.shape[:-2] + (K, N_r, -1)),
                   F.reshape(F.shape[:-2] + (K, N_t, -1)).conj()) / s2_D[..., None]
    gD = lin(block_adjoint(H0j, R) / s2_D)
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


def _one(objs, what: str):
    """The one object over all users that `objs` is (a sequence of one: its entry)."""
    if not isinstance(objs, (list, tuple)):
        return objs
    if len(objs) != 1:
        raise ValueError(f"pass one {what} for all users, stacked on axis 0, not a "
                         f"sequence of {len(objs)}")
    return objs[0]


def _per_cell(prior) -> bool:
    """Whether the prior's mean is anchored per cell of a batch, (B, N_u, *shape)."""
    mean = getattr(prior, "mean", None)
    return mean is not None and mean.ndim >= len(prior.shape) + 2


def _cells(prior, keep):
    """The prior over the cells `keep` selects: a mean anchored per cell is cut to
    them; any other prior serves every cell as it is."""
    if not _per_cell(prior):
        return prior
    prior = copy.copy(prior)
    prior.mean = prior.mean[keep]
    return prior


# Overflows are left to the finiteness checks, which name the step and the quantity.
@np.errstate(over="ignore", invalid="ignore")
def run(Y: np.ndarray, encoder, prior_H, prior_D, dims: MimoDims | list[MimoDims],
        config: PvdConfig, rng: np.random.Generator | list) -> RecoveryResult | list:
    """Full reverse process: recover all users' channels and sources from Y.

    encoder / prior_H / prior_D are each one object over all users: an
    encoder with one A per user stacked on axis 0 (or one shared A), a prior
    with one anchor per user stacked on axis 0 or one shared by all users. A
    sequence of one stands for its entry; a longer one is refused. The
    N_u = 1 case runs the identical code path as the multi-user case. The
    per-step trace is returned in `diagnostics`; writing it out is left to
    the caller.

    A batch of B cells passes Y as (B, N_r K, T), `dims` and `rng` as lists
    of B: each cell's MimoDims (equal but for sigma_n2) and generator; an
    anchored prior mean then stacks the cells in front of the users. Each
    cell draws from its own generator in a lone run's order, and the result
    is a list of B outcomes: a cell's RecoveryResult or the exception that
    ended it. A failed cell leaves the batch and the others carry on; a
    fault of the batch as a whole raises. A lone run (Y (N_r K, T), one
    MimoDims, one generator) is a batch of that one cell: it returns the
    cell's RecoveryResult or raises its exception.
    """
    lone = not isinstance(rng, (list, tuple))
    Y = np.asarray(Y, dtype=np.complex128)
    if lone:
        Y, dims, rng = Y[None], [dims], [rng]
    cells = list(dims)
    if not cells:
        raise ValueError("a batch needs at least one cell")
    dims = cells[0]
    shape = (len(cells),) + dims.output_shape
    if Y.shape != shape:
        raise ValueError(f"Y has shape {Y.shape[lone:]}, expected {shape[lone:]}")
    if len(rng) != len(cells) or any(
            dataclasses.replace(d, sigma_n2=0.0) != dataclasses.replace(dims, sigma_n2=0.0)
            for d in cells):
        raise ValueError("a batch needs one generator per cell and cell dims that differ "
                         "in sigma_n2 only")
    out: list = [None] * len(cells)
    for c, (Y_c, d) in enumerate(zip(Y, cells)):
        if not np.all(np.isfinite(Y_c)):
            out[c] = ValueError("Y contains non-finite entries")
        elif not d.sigma_n2 > 0:
            out[c] = ValueError(f"dims.sigma_n2 must be > 0 (it alone weights the j=0 "
                                f"likelihood), got {d.sigma_n2!r}")
    if lone and out[0] is not None:  # a lone run's input faults come before the others
        raise out[0]
    encoder = _one(encoder, "encoder")
    prior_H, prior_D = _one(prior_H, "channel prior"), _one(prior_D, "source prior")
    if encoder.output_shape != dims.signal_shape:
        raise ValueError(f"encoder output {encoder.output_shape} != signal shape "
                         f"{dims.signal_shape}")
    for what, prior, domain, dim in (
            ("channel", prior_H, "complex", dims.K * dims.N_r * dims.N_t),
            ("source", prior_D, "real", dims.n)):
        if prior.domain != domain or prior.dim != dim:
            raise ValueError(f"{what} prior must be {domain} with {dim} entries, "
                             f"got {prior.domain} with {prior.dim}")
    if any(_per_cell(p) and len(p.mean) != len(cells) for p in (prior_H, prior_D)):
        raise ValueError("a prior mean anchored per cell needs one row per cell of the batch")
    live = np.array([c for c, outcome in enumerate(out) if outcome is None], dtype=int)
    if len(live):
        for c, outcome in zip(live, _reverse(
                Y[live], np.array([cells[c].sigma_n2 for c in live]), [rng[c] for c in live],
                encoder, _cells(prior_H, live), _cells(prior_D, live), dims, config)):
            out[c] = outcome
    if lone and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if lone else out


def _reverse(Y, sigma_n2, rng, encoder, prior_H, prior_D, dims: MimoDims, config: PvdConfig):
    """The reverse process of a batch of cells (Y (B, N_r K, T), sigma_n2 (B,),
    B generators), its inputs checked: one outcome per cell, its RecoveryResult
    or its PvdDivergenceError. Every array carries the cell axis in front of
    the users. A cell that fails leaves the batch, and the inner iteration (or
    step trace) it failed in is taken again by the cells left."""
    ids = list(range(len(rng)))  # the live cells' places in `out`
    out, diag = [None] * len(ids), [[] for _ in ids]
    dim_H, J_in, L = dims.K * dims.N_r * dims.N_t, config.J_in, config.L
    # One draw per cell: per user the latent channel (re, im) and source, then the same
    # for the means.
    z = np.stack([g.standard_normal((dims.N_u, 2, 2 * dim_H + dims.n)) for g in rng])
    H_latent, H_mean = ((z[..., i, :dim_H] + 1j * z[..., i, dim_H:2 * dim_H]).reshape(
        z.shape[:2] + (dims.K, dims.N_r, dims.N_t))
        * np.sqrt(config.schedule_H.variance(config.J - i) / 2.0) for i in (0, 1))
    D_latent, D_mean = (z[..., i, 2 * dim_H:] * config.schedule_D.value(config.J - i)
                        for i in (0, 1))
    g_H = g_D = None
    for step in config.steps():
        j, sH, sD = step.j, step.sigma_H, step.sigma_D
        draw = sample_variational(H_mean.shape, D_mean.shape, step, rng, J_in, L)
        it = 0
        while it <= J_in:  # the inner iterations, then the step's trace
            if it < J_in:
                for sample in range(L):
                    H_s, D_s = ((H_mean, D_mean) if draw is None else
                                (H_mean + draw[0][it, sample], D_mean + draw[1][it, sample]))
                    # One prior and one encoder evaluation for all users at this sample.
                    pt_H, pt_D = prior_H.at(H_s, sH), prior_D.at(D_s, sD)
                    H0j, D0j = _denoised(H_s, pt_H, sH), _denoised(D_s, pt_D, sD)
                    try:
                        lin = encoder.linearize(D0j)
                    except NonFiniteInputError:  # the samples are finite; the estimate is not
                        bad = _fail(out, ids, _bad_cells(D0j), _user_error,
                                    j, it, "Tweedie source estimate", D0j)
                        break
                    noise = aggregated_noise_variance(
                        lin, H0j, _error_variance(pt_H, sH, dim_H),
                        _error_variance(pt_D, sD, dims.n), dims)
                    var_dn = np.add.accumulate(noise, axis=-1)[..., -1]  # in user order
                    if not all(map(math.isfinite, var_dn.tolist())):
                        bad = _fail(out, ids, ~np.isfinite(var_dn), _user_error,
                                    j, it, "aggregated noise variance", noise)
                        break
                    lik_H, lik_D = likelihood_scores(
                        Y, lin, H0j, var_dn, sigma_n2, pt_H, pt_D, sH, sD)
                    tr_H, tr_D = transition_scores(H_latent, H_s, D_latent, D_s, step)
                    if sample:
                        g_H += tr_H + pt_H.score + lik_H
                        g_D += tr_D + pt_D.score + lik_D
                    else:  # the first sample's sums are fresh arrays, so later ones add into them
                        g_H, g_D = tr_H + pt_H.score + lik_H, tr_D + pt_D.score + lik_D
                else:
                    if L > 1:
                        g_H, g_D = g_H / L, g_D / L
                    H_next = update_means(H_mean, g_H, step.eps_H)
                    D_next = update_means(D_mean, g_D, step.eps_D)
                    if (np.logical_and.reduce(np.isfinite(H_next), axis=None)
                            and np.logical_and.reduce(np.isfinite(D_next), axis=None)):
                        H_mean, D_mean, it = H_next, D_next, it + 1
                        continue
                    bad = _fail(out, ids, _bad_cells(H_next, D_next), _mean_error,
                                j, it, H_next, D_next, lik_H, lik_D, pt_H.score, pt_D.score,
                                tr_H, tr_D)
            else:
                # Algorithm carry: latents take the refined means into step j-1. The
                # means are rebound, never written in place, so no copy is needed.
                H_latent, D_latent = H_mean, D_mean
                X = encoder.encode(D_mean)
                norms = np.sqrt(np.stack((_norm2(Y - superpose(H_mean, X)),
                                          _norm2(g_H), _norm2(g_D)), axis=-1))
                rows = norms.tolist()  # per cell: its three norms
                bad = [not all(map(math.isfinite, row)) for row in rows]
                if not any(bad):
                    for c, row in zip(ids, rows):
                        diag[c].append(PvdStepDiag(j, sH, sD, *row))
                    break
                bad = _fail(out, ids, np.array(bad), _norm_error, j, J_in - 1, norms,
                            H_mean, X, g_H, g_D)
            keep = ~bad  # the failed cells leave; the others take this pass again
            if not keep.any():
                return out
            Y, sigma_n2, H_latent, D_latent, H_mean, D_mean, g_H, g_D = (
                a if a is None else a[keep]
                for a in (Y, sigma_n2, H_latent, D_latent, H_mean, D_mean, g_H, g_D))
            draw = draw and (draw[0][:, :, keep], draw[1][:, :, keep])
            rng = [g for g, k in zip(rng, keep) if k]
            ids = [c for c, k in zip(ids, keep) if k]
            prior_H, prior_D = _cells(prior_H, keep), _cells(prior_D, keep)

    for p, c in enumerate(ids):
        out[c] = RecoveryResult(channels=H_mean[p], sources=D_mean[p],
                                residual=diag[c][-1].residual, diagnostics=diag[c])
    return out


def _norm2(a: np.ndarray) -> np.ndarray:
    """||a||^2 per cell, formed as np.linalg.norm forms it (a real `a` adds a zero)."""
    f = a.reshape(len(a), -1)
    return np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag)


def _bad_cells(*arrays) -> np.ndarray:
    """Per row of axis 0 (a cell, or a user): whether any of `arrays` is non-finite in it."""
    return np.any([~np.isfinite(a).reshape(len(a), -1).all(axis=-1) for a in arrays], axis=0)


def _fail(out: list, ids: list, bad: np.ndarray, error, *args) -> np.ndarray:
    """Record error(p, *args) as the outcome of each live cell that `bad` flags; p
    indexes the cell's rows of the batch arrays."""
    for p in np.flatnonzero(bad):
        out[ids[p]] = error(p, *args)
    return bad


def _user_error(c, j: int, it: int, what: str, per_user: np.ndarray) -> PvdDivergenceError:
    return PvdDivergenceError(j, it, what, _first_bad_user(per_user[c]))


def _mean_error(c, j: int, it: int, H: np.ndarray, D: np.ndarray, *terms) -> PvdDivergenceError:
    """Non-finite means: name the first non-finite term (channel, then source
    part) of the last sample, in the first user they show in."""
    u = _first_bad_user(H[c], D[c])
    names = ("likelihood score", "prior score", "transition score")
    bad = (name for name, t_H, t_D in zip(names, terms[::2], terms[1::2])
           if not (np.isfinite(t_H[c][u]).all() and np.isfinite(t_D[c][u]).all()))
    return PvdDivergenceError(j, it, next(bad, "variational mean"), u)


def _norm_error(c, j: int, it: int, norms, H, X, g_H, g_D) -> PvdDivergenceError:
    """Finite means, an overflowing step norm: name the first, and the first
    user whose own norm of it overflows."""
    i = int(np.argmin(np.isfinite(norms[c])))
    a = (block_product(H[c], X[c]), g_H[c], g_D[c])[i]
    return PvdDivergenceError(j, it, ("residual", "channel gradient norm",
                                      "source gradient norm")[i],
                              _first_bad_user(np.linalg.norm(a.reshape(len(a), -1), axis=1)))


def _first_bad_user(*arrays) -> int | None:
    """The first user (row of axis 0) with a non-finite entry in any of `arrays`."""
    return next(iter(np.flatnonzero(_bad_cells(*arrays)).tolist()), None)
