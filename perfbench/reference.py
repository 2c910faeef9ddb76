"""Reference computations the benchmark checks the program against.

Each is written from the textbook formula, not from the program's code:

* the deterministic Cramer-Rao bound of Stoica & Nehorai (1989, "MUSIC,
  maximum likelihood and Cramer-Rao bound"), whitened per snapshot so that it
  holds for any of the four noise cases;
* its closed form for a single source;
* the beam power evaluated angle by angle;
* the optimally matched frequency error with the pi/N gate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def stoica_nehorai_crb(omegas, weights, noise_variances) -> np.ndarray:
    """K x K frequency CRB for ``y_l = A(omega) x_l + n_l``, ``n_l ~ CN(0, diag(nu[:, l]))``.

    With ``W_l = diag(nu[:, l])^(-1/2)``, ``D = dA/domega`` and ``P_l`` the
    projector onto the orthogonal complement of ``W_l A``:

        CRB^-1 = 2 * sum_l Re{ X_l^H (W_l D)^H P_l (W_l D) X_l },  X_l = diag(x_l).
    """
    omegas = np.asarray(omegas, dtype=float)
    x = np.asarray(weights, dtype=np.complex128)
    nu = np.asarray(noise_variances, dtype=float)
    M = nu.shape[0]
    m = np.arange(M, dtype=float)
    A = np.exp(1j * np.outer(m, omegas))
    D = 1j * m[:, None] * A
    w = (1.0 / np.sqrt(nu)).T[:, :, None]                 # (L, M, 1)
    At, Dt = w * A, w * D                                  # (L, M, K)
    AtH = np.conj(np.swapaxes(At, 1, 2))
    Q = Dt - At @ np.linalg.solve(AtH @ At, AtH @ Dt)      # P_l (W_l D)
    B = np.conj(np.swapaxes(Dt, 1, 2)) @ Q                 # (L, K, K)
    info = 2.0 * (B * (np.conj(x.T)[:, :, None] * x.T[:, None, :])).real.sum(axis=0)
    return np.linalg.inv(info)


def single_source_crb(weights, noise_variances) -> float:
    """Closed form of the bound above for K = 1 (it does not depend on omega).

    ``1 / (2 * sum_l |x_l|^2 * (S2_l - S1_l^2 / S0_l))`` with
    ``Sp_l = sum_m m^p / nu[m, l]``.
    """
    x = np.asarray(weights, dtype=np.complex128).reshape(-1)
    nu = np.asarray(noise_variances, dtype=float)
    m = np.arange(nu.shape[0], dtype=float)[:, None]
    s0 = (1.0 / nu).sum(axis=0)
    s1 = (m / nu).sum(axis=0)
    s2 = (m * m / nu).sum(axis=0)
    return 1.0 / (2.0 * float((np.abs(x) ** 2 * (s2 - s1 * s1 / s0)).sum()))


def beam_power(Y, thetas_deg) -> np.ndarray:
    """``mean_l |a(theta)^H y_l|^2 / M^2``, one angle at a time."""
    Y = np.asarray(Y, dtype=np.complex128)
    M = Y.shape[0]
    m = np.arange(M)
    out = np.empty(len(thetas_deg))
    for i, theta in enumerate(thetas_deg):
        a = np.exp(1j * math.pi * math.sin(math.radians(theta)) * m)
        out[i] = float(np.mean(np.abs(np.conj(a) @ Y) ** 2)) / M**2
    return out


def matched_sq_error(omega_hat, omega_true, N: int) -> float | None:
    """Sum of squared wrapped errors under the best one-to-one matching.

    Returns None when the counts differ or a matched error exceeds pi/N.
    The matching is found by trying every permutation (K is small here).
    """
    hat = np.asarray(omega_hat, dtype=float)
    true = np.asarray(omega_true, dtype=float)
    if hat.shape != true.shape:
        return None
    diff = true[:, None] - hat[None, :]
    dist = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
    perms = np.array(list(itertools.permutations(range(len(true)))))
    sq = (dist[np.arange(len(true)), perms] ** 2).sum(axis=1)
    best = perms[int(np.argmin(sq))]
    if np.any(dist[np.arange(len(true)), best] > math.pi / N):
        return None
    return float(sq.min())


def relative_error(a, b) -> float:
    """max |a - b| / max |b|."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
