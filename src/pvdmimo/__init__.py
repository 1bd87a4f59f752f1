"""Blind MIMO link simulation and joint channel-and-source recovery.

A numpy library in five layers: block-fading channel simulation
(`channel`), differentiable source encoders (`encoder`), analytic score
priors (`priors`), the parallel variational diffusion recovery engine
(`pvd`), pilot-based LMMSE baselines (`baselines`), scoring (`metrics`),
and a reproducible Monte Carlo harness with CLI (`harness`, `cli`).
"""

from .channel import (
    BlockFadingChannel,
    MimoDims,
    complex_normal,
    compound,
    draw_kronecker_correlated,
    draw_rayleigh,
    transmit,
)
from .encoder import (
    Encoder,
    LinearEncoder,
    PowerNormalizedEncoder,
    SaturatingEncoder,
    jacobian_frobenius2,
    load_encoder,
    normalize_power,
    save_encoder,
)
from .priors import GaussianMixturePrior, GaussianPrior, ScorePrior
from .pvd import (
    NoiseSchedule,
    PvdConfig,
    PvdDivergenceError,
    PvdState,
    RecoveryResult,
    aggregated_noise_variance,
    error_variances,
    likelihood_scores,
    precisions,
    run,
    sample_variational,
    transition_scores,
    tweedie,
    update_means,
)
from .baselines import (
    PilotMatrix,
    lmmse_channel,
    make_pilots,
    oracle_lmmse,
    two_stage_decode,
)
from .metrics import MetricsRecord, cbr, nmse_db, snr_db, source_mse
from .harness import ExperimentConfig, run_experiment, sweep, validate_dict

__version__ = "0.1.0"
