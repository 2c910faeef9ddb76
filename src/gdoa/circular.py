"""Circular statistics: Bessel ratios, von Mises moments, posterior fitting.

The frequency belief for one component is a von Mises density on the circle.
Its trigonometric moments ``E[exp(1j*m*omega)] = exp(1j*m*mu) * I_m(kappa)/I_0(kappa)``
give the expected steering vector used everywhere downstream; ``bessel_ratio``
gets the ratios from a continued fraction and a recurrence, with numpy alone.

``approximate_posterior`` fits a von Mises to the unnormalized log-density

    f(omega) = Re{ eta^H a(omega) },

a cosine series with complex coefficients ``eta`` (one per antenna).  The mode
is located by a grid scan, one real inverse FFT of ``conj(eta)`` (the series
is real, so half a complex spectrum gives the whole grid), followed by Newton
refinement, and the concentration is the negative curvature at the mode
(Laplace matching).
Each Newton evaluation is one ``exp`` and one product with the (3, M) series
basis ``[c, i*m*c, -m^2*c]`` (``c = conj(eta)``), built once per fit.  What
depends on the length M alone (the orders, the derivative weights, the grid
size) is one cached plan per M.  The Newton steps and the Bessel-ratio
recurrence run on Python floats: they follow the same IEEE double arithmetic
as numpy's float64 scalars, bit for bit, at a fraction of the call cost
(``tests/circular_reference.py`` keeps the numpy-scalar form as the oracle).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

GRID_OVERSAMPLE = 16
NEWTON_STEPS = 10
GRAD_TOL = 1e-10


def wrap_angle(x):
    """Wrap to [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class VonMises:
    """Mean direction mu in [-pi, pi) and concentration kappa >= 0.

    ``kappa == 0`` is the uniform circular distribution and doubles as the
    degenerate "no evidence" marker.
    """

    mu: float
    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.kappa >= 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        object.__setattr__(self, "mu", float(wrap_angle(self.mu)))
        object.__setattr__(self, "kappa", float(self.kappa))


def bessel_ratio(kappa: float, m) -> float | np.ndarray:
    """Ratio I_m(kappa) / I_0(kappa) of modified Bessel functions of the first kind.

    Perron's continued fraction, 20 terms deep, gives ``r_{n+1}`` (``r_j = I_j/I_{j-1}``)
    at ``n = max(max(m), 16)``; the backward recurrence ``r_j = 1/(2j/kappa + r_{j+1})``
    runs from ``j = n`` down to 1, and cumulative products of the ``r_j`` are the
    ratios (relative error < 1e-12 for m < 129).  No fraction term divides by
    kappa, so this one path serves every kappa > 0, huge, infinite and
    subnormal included; ``kappa = inf`` gives all ones.  ``kappa = 0`` is exact.
    """
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    order = np.asarray(m)
    if order.dtype.kind not in "iu" or np.any(order < 0):
        raise ValueError("harmonic order must be a non-negative integer")
    # Python floats overflow to inf without a warning
    out = _ratio_table(float(kappa), int(order.max(initial=0)))[order]
    return float(out) if np.isscalar(m) else out


def _ratio_table(kappa: float, n: int) -> np.ndarray:
    """``I_j(kappa)/I_0(kappa)`` for ``j = 0..max(n, 16)``; unchecked: a Python float kappa >= 0 and n >= 0.

    The one evaluation path behind :func:`bessel_ratio` and :func:`moment_vector`.
    """
    n0 = max(n, 16)
    if kappa == 0.0:
        out = np.zeros(n0 + 1)
        out[0] = 1.0
        return out
    fraction, twice_j = _ratio_constants(n0)
    u = 0.0
    for num, den in fraction:
        u = num / (den + (2.0 - u) * kappa)
    r = [1.0] * (n0 + 1)  # r[j] = I_j/I_{j-1}; r[0] = 1 starts the product
    r_j = 1.0 - u         # r_{n0+1}
    for j in range(n0, 0, -1):
        r_j = r[j] = 1.0 / (twice_j[j] / kappa + r_j)
    # the same sequential products as np.cumprod, in one conversion
    return np.fromiter(accumulate(r, operator.mul), dtype=float, count=n0 + 1)


@functools.lru_cache(maxsize=128)
def _ratio_constants(n0: int) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Perron's fraction terms ``(2n0+2k-1, 2n0+k)`` for ``k = 20..1`` and ``2j`` for ``j = 0..n0``, as floats."""
    fraction = tuple((float(2 * n0 + 2 * k - 1), float(2 * n0 + k)) for k in range(20, 0, -1))
    return fraction, tuple(float(2 * j) for j in range(n0 + 1))


def moment_vector(vm: VonMises, M: int) -> np.ndarray:
    """Expected steering vector under a von Mises belief: length-M complex vector.

    Entry m is ``exp(1j*m*mu) * I_m(kappa)/I_0(kappa)``; entry 0 is exactly 1.
    The orders ``0..M-1`` are valid by construction, so the ratios come from
    the unchecked table behind :func:`bessel_ratio`, bitwise the same values.
    """
    if M < 1:
        raise ValueError(f"length must be >= 1, got {M}")
    return np.exp(1j * vm.mu * _plan(M).orders) * _ratio_table(vm.kappa, M - 1)[:M]


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


class _Plan(NamedTuple):
    """What a fit of length M needs besides eta; one cached instance per M."""

    orders: np.ndarray   # 0..M-1 (int)
    derivs: np.ndarray   # (2, M) complex rows 1j*orders and -(orders*orders)
    G: int               # FFT grid size next_pow2(16*M)
    grid_step: float     # 2*pi/G, exact scaling since G is a power of two


@functools.lru_cache(maxsize=128)
def _plan(M: int) -> _Plan:
    orders = np.arange(M)
    G = _next_pow2(GRID_OVERSAMPLE * M)
    derivs = np.array([1j * orders, -(orders * orders)])
    for row in (derivs, orders):
        row.flags.writeable = False  # shared by every caller
    return _Plan(orders, derivs, G, 2.0 * np.pi / G)


def _series_basis(eta_conj: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Rows ``[c, i*m*c, -m^2*c]`` (c = conj(eta), ``derivs = [i*m, -m^2]``): the series and its two derivatives, (3, M)."""
    basis = np.empty((3, len(eta_conj)), dtype=np.complex128)
    basis[0] = eta_conj
    np.multiply(derivs, eta_conj, out=basis[1:])
    return basis


def _series_eval(basis: np.ndarray, phase: np.ndarray, omega: float) -> list[float]:
    """Value, first and second derivative of the log-density at omega as Python floats; ``phase = 1j*orders``."""
    return (basis @ np.exp(phase * omega)).real.tolist()


def approximate_posterior(eta: np.ndarray) -> VonMises:
    """Fit a von Mises to ``q(omega) ∝ exp(Re{eta^H a(omega)})`` (uniform prior).

    The mode is found by scanning a grid of size ``G = next_pow2(16*M)`` and
    polishing with Newton steps on the analytic derivatives; the concentration
    is ``max(0, -f''(mu))``.  With no harmonic content the result is the
    degenerate ``VonMises(0, 0)``.  The scan is one real inverse FFT,
    ``irfft(conj(eta), n=G)`` unscaled, whose entry g is
    ``2 f(2 pi g/G) - Re eta_0``: the same grid maximum as f itself, bar exact
    ties between grid points.
    """
    eta = np.asarray(eta, dtype=np.complex128).ravel()
    M = len(eta)
    if M < 2:
        raise ValueError(f"eta must have length >= 2, got {M}")
    plan = _plan(M)
    # a non-finite entry m >= 1 makes the sum nan or inf, and only then is every entry
    # checked; entry 0 has weight 0 and is checked before the product, which would meet
    # it as 0*inf
    scale = float((plan.orders * np.abs(eta)).sum()) if cmath.isfinite(eta[0]) else math.nan
    if not math.isfinite(scale):
        if not np.all(np.isfinite(eta)):
            raise ValueError("eta contains non-finite entries")
        raise ValueError("sum of m*|eta_m| overflows float64; rescale eta")
    if scale == 0.0:
        return VonMises(0.0, 0.0)

    basis = _series_basis(np.conj(eta), plan.derivs)
    grid = np.fft.irfft(basis[0], n=plan.G, norm="forward")  # unscaled: 2 Re sum_m conj(eta_m) e^{i m w_g} - Re eta_0
    omega = plan.grid_step * int(grid.argmax())

    max_step = plan.grid_step
    tol = GRAD_TOL * max(1.0, scale)
    phase = plan.derivs[0]  # 1j*orders
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
