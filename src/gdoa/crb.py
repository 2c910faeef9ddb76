"""Frequency Cramer-Rao bounds for the ULA line-spectral model.

The snapshots are ``y_l = A(omega) x_l + n_l`` with ``A[m, k] = exp(1j*m*omega_k)``
(0-based antenna index m), amplitudes ``x[k, l] = g[k, l] * exp(1j*phi[k, l])``
and ``n_l ~ CN(0, diag(nu[:, l]))``.
:func:`crb_frequencies` evaluates the concentrated deterministic bound of
Stoica & Nehorai (1989, "MUSIC, maximum likelihood and Cramer-Rao bound"),
whitened per snapshot by ``W_l = diag(nu[:, l])^(-1/2)`` so that it holds in
all four noise cases::

    CRB^-1 = 2 * sum_l Re{ X_l^H (W_l D)^H P_l (W_l D) X_l },   X_l = diag(x_l),

where ``D = dA/domega`` and ``P_l`` projects onto the orthogonal complement of
``W_l A``.  It is the Schur complement of the amplitude and phase block of the
full Fisher information, so it equals the leading K x K block of its inverse.

The projection is never formed.  With ``w = 1/nu`` and ``D~ = diag(m) A``
(``D = 1j * D~``; the 1j cancels), three weighted Grams per snapshot::

    G0_l = A^H W_l^2 A,   G1_l = A^H W_l^2 D~,   G2_l = D~^H W_l^2 D~

all read ``sum_m m^p w[m, l] exp(1j*m*(omega_j - omega_i))`` for p = 0, 1, 2,
so one (3L, M) @ (M, K^2) product gives them, and
``(W_l D)^H P_l (W_l D) = G2_l - G1_l^H G0_l^-1 G1_l`` comes from a batched
K x K Cholesky factor of ``G0_l``.  The cost is O(L*M*K^2) with no (L, M, K)
steering stack.

:func:`fim` and :func:`signal_partials` build that full Fisher information
over the stacked parameter vector ``[omega; vec(G); vec(Phi)]`` of length
``K + 2*K*L`` (vec is column-major, so snapshot l occupies a contiguous block
of K entries).  They are the slow reference the closed form is tested
against; no bound is computed through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND_LIMIT = 1e12
# The Schur complement G2 - G1^H G0^-1 G1 loses about eps * cond(G0)^2 relative, so
# a steering Gram past 1e6 leaves fewer than about four correct digits in the bound.
GRAM_COND_LIMIT = 1e6


class SingularFimError(ValueError):
    """The Fisher information matrix is (numerically) rank deficient."""


@dataclass(frozen=True)
class CrbParameterization:
    """Frequencies plus per-snapshot amplitude magnitudes and phases."""

    omegas: np.ndarray   # (K,)
    g: np.ndarray        # (K, L), magnitudes >= 0
    phi: np.ndarray      # (K, L), phases

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        g = np.asarray(self.g, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if g.ndim != 2 or phi.shape != g.shape or g.shape[0] != omegas.shape[0]:
            raise ValueError(
                f"inconsistent shapes: omegas {omegas.shape}, g {g.shape}, phi {phi.shape}"
            )
        if np.any(g < 0):
            raise ValueError("amplitude magnitudes must be >= 0")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_weights(cls, omegas, weights) -> "CrbParameterization":
        w = np.asarray(weights, dtype=np.complex128)
        return cls(omegas=omegas, g=np.abs(w), phi=np.angle(w))

    @property
    def K(self) -> int:
        return self.omegas.shape[0]

    @property
    def L(self) -> int:
        return self.g.shape[1]

    @property
    def dim(self) -> int:
        return self.K + 2 * self.K * self.L


def signal_partials(params: CrbParameterization, m: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of Re{Z[m, l]} and Im{Z[m, l]} w.r.t. the stacked parameter vector.

    Nonzeros sit only in the frequency block and snapshot l's magnitude and
    phase blocks.
    """
    K, L = params.K, params.L
    if not 0 <= l < L:
        raise IndexError(f"snapshot index {l} out of range for L={L}")
    if m < 0:
        raise IndexError(f"antenna index must be >= 0, got {m}")
    phase = m * params.omegas + params.phi[:, l]
    gl = params.g[:, l]
    c, s = np.cos(phase), np.sin(phase)

    d_re = np.zeros(params.dim)
    d_im = np.zeros(params.dim)
    g_block = slice(K + l * K, K + (l + 1) * K)
    phi_block = slice(K + K * L + l * K, K + K * L + (l + 1) * K)

    d_re[:K] = -m * gl * s
    d_re[g_block] = c
    d_re[phi_block] = -gl * s
    d_im[:K] = m * gl * c
    d_im[g_block] = s
    d_im[phi_block] = gl * c
    return d_re, d_im


def _noise_grid(params: CrbParameterization, noise) -> np.ndarray:
    nu = np.asarray(noise, dtype=float)
    if nu.ndim != 2 or nu.shape[1] != params.L:
        raise ValueError(f"noise grid shape {nu.shape} does not match L={params.L}")
    if np.any(nu <= 0):
        raise ValueError("noise variances must be strictly positive")
    return nu


def fim(params: CrbParameterization, noise: np.ndarray) -> np.ndarray:
    """Fisher information matrix under independent circular Gaussian noise.

    ``noise`` is the true (M, L) variance grid; structured cases are covered
    by passing the replicated grid.
    """
    nu = _noise_grid(params, noise)
    M, L = nu.shape
    info = np.zeros((params.dim, params.dim))
    for l in range(L):
        for m in range(M):
            d_re, d_im = signal_partials(params, m, l)
            info += (2.0 / nu[m, l]) * (np.outer(d_re, d_re) + np.outer(d_im, d_im))
    return info


def crb_frequencies(params: CrbParameterization, noise: np.ndarray) -> np.ndarray:
    """K x K frequency CRB: the leading block of the inverse Fisher information.

    ``noise`` is the true (M, L) variance grid; structured cases are covered
    by passing the replicated grid.  Diagonal entries lower-bound the variance
    of any unbiased frequency estimator.  Raises :class:`SingularFimError` for
    provably or numerically singular problems (a zero amplitude, duplicate or
    near-coincident frequencies, a steering Gram with condition number beyond
    1e6 or a reduced information beyond 1e12, no frequencies).

    The bound is built from three weighted K x K Grams per snapshot, formed
    by one (3L, M) @ (M, K^2) product, and the Schur complement
    ``G2_l - G1_l^H G0_l^-1 G1_l`` through a batched Cholesky factor of
    ``G0_l``: O(L*M*K^2) work with no (L, M, K) steering stack.  The
    eigenvalues of every ``G0_l`` give the steering-Gram condition check.
    """
    nu = _noise_grid(params, noise)
    if np.any(params.g <= 0):
        raise SingularFimError(
            "zero amplitude makes the corresponding phase unidentifiable; FIM is singular"
        )
    if params.K == 0:
        raise SingularFimError("no frequencies to bound; the frequency information is empty")
    (M, L), K = nu.shape, params.K
    w = 1.0 / nu                                                             # diag of W_l^2
    m = np.arange(M, dtype=float)
    moments = np.concatenate([w, m[:, None] * w, (m * m)[:, None] * w], axis=1).T  # (3L, M)
    # phases[m, (i, j)] = conj(A[m, i]) A[m, j]
    phases = np.exp(1j * m[:, None] * (params.omegas[None, :] - params.omegas[:, None]).reshape(1, -1))
    G0, G1, G2 = (moments @ phases).reshape(3, L, K, K)
    x = params.g * np.exp(1j * params.phi)                                   # (K, L)
    try:
        _check_conditioned(np.linalg.eigvalsh(G0), GRAM_COND_LIMIT, "steering Gram",
                           "frequencies are duplicate or nearly coincident")
        Z = np.linalg.solve(np.linalg.cholesky(G0), G1)                      # R_l^-1 G1_l, G0_l = R_l R_l^H
        S = G2 - np.conj(np.swapaxes(Z, 1, 2)) @ Z                           # (W_l D)^H P_l (W_l D)
        outer = np.conj(x.T)[:, :, None] * x.T[:, None, :]                   # (L, K, K)
        info = 2.0 * (S * outer).real.sum(axis=0)
        lam, V = np.linalg.eigh(info)
        _check_conditioned(lam, COND_LIMIT, "reduced frequency information", "bounds would be meaningless")
    except np.linalg.LinAlgError as exc:
        raise SingularFimError(f"frequency information factorization failed: {exc}") from exc
    half = V / np.sqrt(lam)
    return half @ half.T


def _check_conditioned(lam: np.ndarray, limit: float, what: str, consequence: str) -> None:
    """Raise unless every matrix with ascending eigenvalues ``lam[..., :]`` is well conditioned.

    A condition number lambda_max/lambda_min above ``limit``, or lambda_min <= 0, is singular.
    """
    cond = float(np.max(lam[..., -1] / lam[..., 0])) if np.all(lam[..., 0] > 0) else np.inf
    if not cond <= limit:
        raise SingularFimError(f"{what} condition number {cond:.3e} exceeds {limit:.0e}; {consequence}")
