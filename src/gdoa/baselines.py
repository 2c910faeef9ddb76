"""Conventional (delay-and-sum) beamforming baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SnapshotMatrix, steering_matrix, theta_to_omega


@dataclass(frozen=True)
class AngularGrid:
    """Uniform bearing grid in degrees."""

    thetas: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("angular grid needs at least two angles")
        steps = np.diff(t)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
            raise ValueError("angular grid must be strictly increasing and uniform")
        object.__setattr__(self, "thetas", t)

    @classmethod
    def uniform(cls, count: int = 361) -> "AngularGrid":
        """``count`` equally spaced bearings spanning the whole half-plane, -90 to 90 degrees."""
        if count < 2:
            raise ValueError(f"grid needs at least two points, got {count}")
        return cls(thetas=np.linspace(-90.0, 90.0, count))

    @property
    def omegas(self) -> np.ndarray:
        return theta_to_omega(self.thetas)


def cbf_spectrum(Y: SnapshotMatrix | np.ndarray, grid: AngularGrid) -> np.ndarray:
    """Beam power per grid angle: ``mean_l |a(theta)^H y_l|^2 / M^2``.

    The 1/M^2 scaling makes a unit-amplitude source read ~|x|^2 at its true
    bearing regardless of the array size.
    """
    data = Y.data if isinstance(Y, SnapshotMatrix) else np.asarray(Y, dtype=np.complex128)
    M = data.shape[0]
    A = steering_matrix(grid.omegas, M)
    return (np.abs(A.conj().T @ data) ** 2).mean(axis=1) / M**2
