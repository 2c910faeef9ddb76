"""Trial metrics: reconstruction NMSE and gated frequency MSE.

Exact-zero errors map to a -300 dB sentinel so tables stay finite.  The
frequency metric is gated: it exists only when the estimated model order is
correct and every optimally-matched wrapped error is at most pi/N.  The
matching minimises the summed squared wrapped error, the quantity reported;
on the circle an optimal matching pairs both sets in sorted angular order up
to a cyclic shift (Delon, Salomon & Sobolevski, SIAM J. Appl. Math. 2010),
so trying the K shifts replaces a general assignment solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import wrap_angle

EXACT_DB = -300.0


def wrapped_distance(a, b):
    """|a - b| on the circle, in [0, pi]."""
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


@dataclass(frozen=True)
class GatedFreqError:
    """Frequency error of one gated-in trial."""

    db: float
    sq_error: float          # sum of squared wrapped errors (linear)
    assignment: np.ndarray   # truth index k -> estimate index assignment[k]


def nmse_ratio(Z_hat: np.ndarray, Z_true: np.ndarray) -> float:
    """Linear NMSE ||Z_hat - Z_true||_F^2 / ||Z_true||_F^2."""
    Z_hat = np.asarray(Z_hat)
    Z_true = np.asarray(Z_true)
    if Z_hat.shape != Z_true.shape:
        raise ValueError(f"shape mismatch: {Z_hat.shape} vs {Z_true.shape}")
    denom = float(np.sum(np.abs(Z_true) ** 2))
    if denom == 0.0:
        raise ValueError("true signal is identically zero; NMSE undefined")
    return float(np.sum(np.abs(Z_hat - Z_true) ** 2)) / denom


def gated_freq_mse(omega_hat, omega_true, N: int) -> GatedFreqError | None:
    """Optimally matched frequency MSE, or None when the trial is gated out.

    Gate: the estimate count equals the truth count, which is not zero (a
    scene without sources has no frequency error), and every matched wrapped
    error is <= pi/N.  Truths and estimates are sorted by wrapped angle and
    paired under the cyclic shift with the least sum of squared wrapped
    errors (ties go to the smallest shift); the value is 10*log10 of that sum.
    """
    hat = np.atleast_1d(np.asarray(omega_hat, dtype=float))
    true = np.atleast_1d(np.asarray(omega_true, dtype=float))
    K = true.size
    if hat.shape != true.shape or K == 0:
        return None
    true_order = np.argsort(wrap_angle(true), kind="stable")
    hat_order = np.argsort(wrap_angle(hat), kind="stable")
    # row s pairs the i-th smallest truth with the ((i + s) mod K)-th smallest estimate
    shifted = hat_order[(np.arange(K)[:, None] + np.arange(K)) % K]
    shift_cost = np.sum(wrapped_distance(true[true_order], hat[shifted]) ** 2, axis=1)
    assignment = np.empty(K, dtype=int)
    assignment[true_order] = shifted[np.argmin(shift_cost)]
    errors = wrapped_distance(true, hat[assignment])
    if np.any(errors > np.pi / N):
        return None
    sq = float(np.sum(errors**2))
    db = EXACT_DB if sq == 0.0 else 10.0 * float(np.log10(sq))
    return GatedFreqError(db=db, sq_error=sq, assignment=assignment)
