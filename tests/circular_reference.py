"""Reference copy of the von Mises fit and moments, kept as an oracle.

A verbatim copy of ``approximate_posterior``, ``bessel_ratio``,
``_ratio_table`` and ``moment_vector`` (with the helpers they call) from the
numpy-scalar form of :mod:`gdoa.circular`: no cached plans, numpy float64
scalars in the Newton steps, ``np.cumprod`` for the ratios.  The package must
reproduce these functions bit for bit; ``tests/test_circular_identity.py``
compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_OVERSAMPLE = 16
NEWTON_STEPS = 10
GRAD_TOL = 1e-10


def wrap_angle(x):
    """Wrap to [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class VonMises:
    mu: float
    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.kappa >= 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        object.__setattr__(self, "mu", float(wrap_angle(self.mu)))
        object.__setattr__(self, "kappa", float(self.kappa))


def bessel_ratio(kappa: float, m) -> float | np.ndarray:
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    order = np.asarray(m)
    if order.dtype.kind not in "iu" or np.any(order < 0):
        raise ValueError("harmonic order must be a non-negative integer")
    # Python floats overflow to inf without a warning
    out = _ratio_table(float(kappa), int(order.max(initial=0)))[order]
    return float(out) if np.isscalar(m) else out


def _ratio_table(kappa: float, n: int) -> np.ndarray:
    n0 = max(n, 16)
    if kappa == 0.0:
        out = np.zeros(n0 + 1)
        out[0] = 1.0
        return out
    u = 0.0
    for k in range(20, 0, -1):
        u = (2 * n0 + 2 * k - 1) / (2 * n0 + k + (2.0 - u) * kappa)
    r = [1.0] * (n0 + 1)  # r[j] = I_j/I_{j-1}; r[0] = 1 starts the product
    r_j = 1.0 - u         # r_{n0+1}
    for j in range(n0, 0, -1):
        r_j = r[j] = 1.0 / (2 * j / kappa + r_j)
    return np.cumprod(r)


def moment_vector(vm: VonMises, M: int) -> np.ndarray:
    if M < 1:
        raise ValueError(f"length must be >= 1, got {M}")
    return np.exp(1j * vm.mu * np.arange(M)) * _ratio_table(vm.kappa, M - 1)[:M]


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


def _series_basis(eta_conj: np.ndarray, orders: np.ndarray) -> np.ndarray:
    return np.array([eta_conj, 1j * orders * eta_conj, -(orders * orders) * eta_conj])


def _series_eval(basis: np.ndarray, phase: np.ndarray, omega: float):
    f, fp, fpp = (basis @ np.exp(phase * omega)).real
    return f, fp, fpp


def approximate_posterior(eta: np.ndarray) -> VonMises:
    eta = np.asarray(eta, dtype=np.complex128).ravel()
    M = len(eta)
    if M < 2:
        raise ValueError(f"eta must have length >= 2, got {M}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta contains non-finite entries")

    orders = np.arange(M)
    eta_conj = np.conj(eta)
    scale = float((orders * np.abs(eta)).sum())
    if scale == 0.0:
        return VonMises(0.0, 0.0)

    G = _next_pow2(GRID_OVERSAMPLE * M)
    grid = np.fft.ifft(eta_conj, n=G, norm="forward").real  # unscaled: sum_m conj(eta_m) e^{i m w_g}
    omega = 2.0 * np.pi * int(np.argmax(grid)) / G

    max_step = 2.0 * np.pi / G
    tol = GRAD_TOL * max(1.0, scale)
    basis, phase = _series_basis(eta_conj, orders), 1j * orders
    f, fp, fpp = _series_eval(basis, phase, omega)
    for _ in range(NEWTON_STEPS):
        if abs(fp) <= tol or fpp >= 0.0:
            break
        step = fp / fpp
        step = min(max(step, -max_step), max_step)
        candidate = omega - step
        fc, fpc, fppc = _series_eval(basis, phase, candidate)
        halvings = 0
        while fc < f and halvings < 5:  # keep ascent if Newton overshoots
            step *= 0.5
            candidate = omega - step
            fc, fpc, fppc = _series_eval(basis, phase, candidate)
            halvings += 1
        if fc < f:
            break
        omega, f, fp, fpp = candidate, fc, fpc, fppc

    kappa = max(0.0, -fpp)
    return VonMises(wrap_angle(omega), kappa)
