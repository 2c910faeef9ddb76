"""Uniform-linear-array signal model and synthetic scene generation.

A scene is a set of K plane waves hitting an M-element half-wavelength ULA,
observed over L snapshots.  Each source is described by a spatial frequency
``omega = pi * sin(theta)`` with ``theta`` the bearing in degrees.  Additive
noise is circular complex Gaussian with a per-cell variance grid ``nu[m, l]``
whose structure depends on the noise case:

* Case I   -- one variance for the whole array and record,
* Case II  -- one variance per snapshot (constant across antennas),
* Case III -- one variance per antenna (constant across snapshots),
* Case IV  -- fully heteroscedastic, one variance per cell.

All randomness flows through an explicitly seeded ``numpy.random.Generator``
backed by PCG64, so synthesis is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class NoiseCase(enum.Enum):
    """Structure of the noise-variance grid (and the matching estimator variant)."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    @classmethod
    def from_label(cls, label: str) -> "NoiseCase":
        try:
            return cls[str(label).strip().upper()]
        except KeyError:
            raise ValueError(f"unknown noise case {label!r}; expected one of I, II, III, IV") from None

    @property
    def tied_axes(self) -> tuple[int, ...]:
        """Axes of the (M, L) variance grid along which the variance is shared."""
        return {"I": (0, 1), "II": (0,), "III": (1,), "IV": ()}[self.value]

    def value_shape(self, M: int, L: int) -> tuple[int, ...]:
        """Shape of the distinct variances: (), (L,), (M,) or (M, L)."""
        tied = self.tied_axes
        return tuple(n for axis, n in enumerate((M, L)) if axis not in tied)


@dataclass(frozen=True)
class AmplitudeLaw:
    """Parameters of the random complex source weights.

    Magnitudes are drawn from Normal(mag_mean, mag_std) and redrawn while
    nonpositive; phases are uniform on [-pi, pi).
    """

    mag_mean: float = 1.0
    mag_std: float = 0.2


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic measurement scenario."""

    M: int
    L: int
    K: int
    true_omegas: tuple[float, ...]
    snr_db: float
    delta_nu_db: float
    noise_case: NoiseCase
    amplitude_law: AmplitudeLaw = field(default_factory=AmplitudeLaw)
    seed: int = 0

    def __post_init__(self):
        if self.M < 1 or self.L < 1:
            raise ValueError(f"M and L must be positive, got M={self.M}, L={self.L}")
        if not 0 <= self.K <= self.M:
            raise ValueError(f"need 0 <= K <= M, got K={self.K}, M={self.M}")
        omegas = tuple(float(w) for w in self.true_omegas)
        object.__setattr__(self, "true_omegas", omegas)
        if len(omegas) != self.K:
            raise ValueError(f"true_omegas has {len(omegas)} entries, expected K={self.K}")
        if len(set(omegas)) != len(omegas):
            raise ValueError("true_omegas must be pairwise distinct")
        for w in omegas:
            if not -math.pi <= w <= math.pi:
                raise ValueError(f"frequency {w} outside [-pi, pi]")
        if self.delta_nu_db < 0:
            raise ValueError("delta_nu_db must be >= 0")
        if self.noise_case is NoiseCase.I and self.delta_nu_db != 0:
            raise ValueError("Case I has no fluctuation; delta_nu_db must be 0")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass
class SyntheticScene:
    """Ground truth behind one snapshot matrix."""

    omegas: np.ndarray          # (K,) true spatial frequencies, radians
    weights: np.ndarray         # (K, L) true complex coefficients
    clean_signal: np.ndarray    # (M, L) noise-free signal
    noise_variances: np.ndarray  # (M, L) true variance grid (case structure replicated)


@dataclass
class SnapshotMatrix:
    """Measured M x L complex snapshot matrix with its generating noise case."""

    data: np.ndarray
    case: NoiseCase = NoiseCase.I

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError(f"snapshot matrix must be 2-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("snapshot matrix contains non-finite entries")

    @property
    def M(self) -> int:
        return self.data.shape[0]

    @property
    def L(self) -> int:
        return self.data.shape[1]


def steering_vector(omega: float, M: int) -> np.ndarray:
    """Array response ``[exp(1j*m*omega) for m in 0..M-1]`` of a half-wavelength ULA."""
    if M < 1:
        raise ValueError(f"antenna count must be >= 1, got {M}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    return np.exp(1j * omega * np.arange(M))


def steering_matrix(omegas: np.ndarray, M: int) -> np.ndarray:
    """Stack of steering vectors, one column per frequency: shape (M, K)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    return np.exp(1j * np.outer(np.arange(M), omegas))


def theta_to_omega(theta_deg):
    """Bearing in degrees, |theta| <= 90, to spatial frequency ``pi*sin(theta)``."""
    theta = np.asarray(theta_deg, dtype=float)
    if np.any(np.abs(theta) > 90.0):
        raise ValueError(f"theta must lie in [-90, 90] degrees, got {theta_deg}")
    out = np.pi * np.sin(np.deg2rad(theta))
    return float(out) if np.isscalar(theta_deg) else out


def omega_to_theta(omega):
    """Inverse of :func:`theta_to_omega`: bearing in degrees for omega in [-pi, pi]."""
    w = np.asarray(omega, dtype=float)
    if np.any(np.abs(w) > np.pi):
        raise ValueError(f"omega must lie in [-pi, pi], got {omega}")
    out = np.rad2deg(np.arcsin(w / np.pi))
    return float(out) if np.isscalar(omega) else out


def nominal_noise_variance(clean_signal: np.ndarray, snr_db: float) -> float:
    """Noise level nu0 such that 10*log10(||Z||_F^2 / (nu0*M*L)) equals snr_db.

    A zero clean signal (K = 0 scene) has no meaningful signal power; the
    reference power then defaults to 1 so that ``snr_db`` directly fixes the
    noise floor.  ``snr_db = +inf`` is the noiseless sentinel and yields 0.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    M, L = clean_signal.shape
    signal_power = float(np.sum(np.abs(clean_signal) ** 2)) / (M * L)
    if signal_power == 0.0:
        signal_power = 1.0
    return signal_power * 10.0 ** (-snr_db / 10.0)


def synthesize_noise_variances(
    config: ScenarioConfig, rng: np.random.Generator, clean_signal: np.ndarray
) -> np.ndarray:
    """Draw the true M x L variance grid for the configured noise case.

    The nominal level nu0 comes from the realized clean signal via
    :func:`nominal_noise_variance`.  For Cases II-IV the per-snapshot /
    per-antenna / per-cell levels in dB are i.i.d. uniform on
    [nu0_dB, nu0_dB + delta_nu_db] and replicated along the case's tied axes.
    Case I draws nothing from ``rng``.
    """
    M, L = config.M, config.L
    if clean_signal.shape != (M, L):
        raise ValueError(f"clean signal shape {clean_signal.shape} does not match config ({M}, {L})")
    nu0 = nominal_noise_variance(clean_signal, config.snr_db)
    if config.noise_case is NoiseCase.I or nu0 == 0.0:
        return np.full((M, L), nu0)
    nu0_db = 10.0 * math.log10(nu0)
    tied = config.noise_case.tied_axes
    size = tuple(1 if axis in tied else n for axis, n in enumerate((M, L)))
    db = rng.uniform(nu0_db, nu0_db + config.delta_nu_db, size=size)
    return np.broadcast_to(10.0 ** (db / 10.0), (M, L)).copy()


def synthesize_scene(config: ScenarioConfig) -> tuple[SyntheticScene, SnapshotMatrix]:
    """Draw a full scene and its noisy snapshot matrix from the generator ``config.rng()``.

    Draw order (fixed for reproducibility): weight magnitudes, weight phases,
    noise-level dB draws, then the complex noise samples.
    """
    rng = config.rng()
    M, L, K = config.M, config.L, config.K

    law = config.amplitude_law
    mags = rng.normal(law.mag_mean, law.mag_std, size=(K, L))
    while np.any(mags <= 0):  # redraw the rare nonpositive magnitudes
        bad = mags <= 0
        mags[bad] = rng.normal(law.mag_mean, law.mag_std, size=int(bad.sum()))
    phases = rng.uniform(-np.pi, np.pi, size=(K, L))
    weights = mags * np.exp(1j * phases)

    omegas = np.asarray(config.true_omegas, dtype=float)
    clean = steering_matrix(omegas, M) @ weights

    variances = synthesize_noise_variances(config, rng, clean)
    noise = np.sqrt(variances / 2.0) * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))

    scene = SyntheticScene(omegas=omegas, weights=weights, clean_signal=clean, noise_variances=variances)
    return scene, SnapshotMatrix(data=clean + noise, case=config.noise_case)
