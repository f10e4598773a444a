"""Absolute efficiency calibration toolkit for photon-number-resolving detectors."""

from .model import (
    CountVector,
    EfficiencyEstimate,
    HeraldPurity,
    HeraldStats,
    PhotonNumberDistribution,
    counts_to_distribution,
    estimate_gamma,
    estimate_xi,
    forward_distribution,
    gamma_estimates,
    klyshko_estimate,
    weighted_mean,
)
from .histogram import (
    AmplitudeHistogram,
    FitQuality,
    GaussianPeak,
    MixtureFit,
    build_histogram,
    extract_counts,
    fit_mixture,
)
from .uncertainty import (
    CountingEstimators,
    GammaEstimator,
    InputVector,
    KlyshkoEstimator,
    UncertaintyBudget,
    budget_for,
    counting_inputs,
    covariance_from_repeats,
    jacobian,
    propagate,
)
from .simulator import (
    ClosureReport,
    ExperimentConfig,
    RawRun,
    check_pileup,
    closure_test,
    simulate_herald_stats,
    simulate_run,
)

__version__ = "0.1.0"
