"""Grid-less DOA / line spectral estimation under heteroscedastic noise.

Variational estimators for four noise-variance structures (shared across
antennas and snapshots, per-snapshot, per-antenna, per-cell), plus a
conventional beamforming baseline, frequency Cramer-Rao bounds and a
reproducible Monte Carlo harness.
"""

from .baselines import AngularGrid, cbf_spectrum
from .circular import VonMises, approximate_posterior, bessel_ratio, moment_vector
from .crb import CrbParameterization, SingularFimError, crb_frequencies
from .inference import (
    ALGORITHM_CASES,
    EstimationResult,
    HyperParams,
    NoiseEstimate,
    RunOptions,
    run,
)
from .metrics import gated_freq_mse
from .model import (
    AmplitudeLaw,
    NoiseCase,
    ScenarioConfig,
    SnapshotMatrix,
    SyntheticScene,
    omega_to_theta,
    steering_vector,
    synthesize_noise_variances,
    synthesize_scene,
    theta_to_omega,
)
from .support_search import SupportState
from .sweep import SweepConfig, run_sweep, seed_schedule

__all__ = [
    "ALGORITHM_CASES",
    "AmplitudeLaw",
    "AngularGrid",
    "CrbParameterization",
    "EstimationResult",
    "HyperParams",
    "NoiseCase",
    "NoiseEstimate",
    "RunOptions",
    "ScenarioConfig",
    "SingularFimError",
    "SnapshotMatrix",
    "SupportState",
    "SweepConfig",
    "SyntheticScene",
    "VonMises",
    "approximate_posterior",
    "bessel_ratio",
    "cbf_spectrum",
    "crb_frequencies",
    "gated_freq_mse",
    "moment_vector",
    "omega_to_theta",
    "run",
    "run_sweep",
    "seed_schedule",
    "steering_vector",
    "synthesize_noise_variances",
    "synthesize_scene",
    "theta_to_omega",
]
