"""Greedy maximization of the support evidence score by single-bit flips.

The score of a binary activation vector s with active set S is

    ln_z(s) = |S| * ln(rho/(1-rho))
              - sum_l [ ln det(A_l) + |S| * ln(tau) - H_{S,l}^H A_l^{-1} H_{S,l} ]

with ``A_l = [J_l]_S + I/tau``.  The greedy search flips one bit at a time,
always the one with the largest score gain.

``A_l`` is factored once per support, and everything else reads that one
factorisation: the weight posterior ``C_l = A_l^{-1}``, ``x_l = C_l H_{S,l}``,
the evidence score and the gains of all N candidate flips, in a single
batched pass.  The factorisation follows the noise structure:

* Separable noise (Cases I-III, ``nu[m, l] = alpha_m beta_l``) gives
  ``J_l = w_l G`` for one Gram G, so one ``eigh`` of
  ``G_S = V diag(lambda) V^H`` diagonalises every ``A_l``:
  ``C_l = V diag(d_l) V^H`` with ``d_{l,j} = 1/(lambda_j w_l + 1/tau)``.
  The posterior is an :class:`EigenPosterior` of the (k, k) basis V and
  the (L, k) eigenvalues d, and no per-snapshot matrix.
* Per-cell noise (Case IV) needs one Gram per snapshot, an (L, N, N) stack,
  and one batched Cholesky.  The posterior is a :class:`CholeskyPosterior`
  of the inverse factor ``R_l = chol(A_l)^{-1}`` (lower triangular,
  (L, k, k)), so ``C_l = R_l^H R_l`` and ``ln det C_l = 2 sum ln diag R_l``.

Both forms give the same readings of the C_l, so the score here and the
estimator's updates never ask which form they hold.  The per-snapshot
weights x and linear terms H always carry L columns.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

FLIP_BUDGET_FACTOR = 10


class NumericalError(RuntimeError):
    """A quantity that must be positive (Schur complement, posterior system) was not."""


@dataclass(frozen=True)
class SupportState:
    """Sorted active index set of one support."""

    active_set: tuple[int, ...]

    @classmethod
    def from_indices(cls, n: int, indices) -> "SupportState":
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate support indices")
        if idx and not (0 <= idx[0] and idx[-1] < n):
            raise ValueError(f"support indices {idx} out of range for n={n}")
        return cls(active_set=idx)

    @property
    def size(self) -> int:
        return len(self.active_set)


@dataclass(frozen=True)
class ScaledGram:
    """Quadratic forms ``J_l = w_l G`` of separable noise (Cases I-III)."""

    G: np.ndarray            # (N, N) Hermitian Gram A^H diag(g) A, diagonal pinned to sum(g)
    w: np.ndarray            # (L,) per-snapshot weights


@dataclass(frozen=True)
class EigenPosterior:
    """Weight posterior ``C_l = V diag(d_l) V^H`` of separable noise (Cases I-III).

    Its readings, shared with :class:`CholeskyPosterior`: ``diag()`` the (L, k)
    diagonals of the C_l; ``weighted_sum(W)`` ``Q = sum_l W[:, l] C_l``
    (M|1, k, k) for an (M|1, L) grid W; ``trace()`` ``sum_l tr C_l``;
    ``cell_variance(A)`` the (M, L) grid ``a_m C_l a_m^H`` over the rows a_m
    of A (M, k); ``ln_det()`` ``sum_l ln det C_l``.
    """

    V: np.ndarray            # (k, k) unitary eigenbasis of G_S
    d: np.ndarray            # (L, k) eigenvalues of the C_l

    def diag(self) -> np.ndarray:
        return (np.abs(self.V) ** 2 @ self.d.T).T

    def weighted_sum(self, W: np.ndarray) -> np.ndarray:
        # row m is V diag((W d)_m) V^H: one product with the outer products v_p v_p^H of V's columns
        k = len(self.V)
        outer = (self.V.T[:, :, None] * np.conj(self.V.T)[:, None, :]).reshape(k, k * k)
        return ((W @ self.d) @ outer).reshape(-1, k, k)

    def trace(self) -> float:
        return float(self.d.sum())

    def cell_variance(self, A: np.ndarray) -> np.ndarray:
        return np.abs(A @ self.V) ** 2 @ self.d.T

    def ln_det(self) -> float:
        return float(np.log(self.d).sum())


@dataclass(frozen=True)
class CholeskyPosterior:
    """Weight posterior ``C_l = R_l^H R_l`` of per-cell noise (Case IV), R_l triangular with a positive diagonal."""

    R: np.ndarray            # (L, k, k)

    @functools.cached_property
    def C(self) -> np.ndarray:  # the (L, k, k) stack, built by the first reading that needs it
        return np.conj(np.swapaxes(self.R, 1, 2)) @ self.R

    def diag(self) -> np.ndarray:
        return (np.abs(self.R) ** 2).sum(axis=1)             # the column norms of R

    def weighted_sum(self, W: np.ndarray) -> np.ndarray:
        L, k = self.R.shape[:2]
        return (W @ self.C.reshape(L, k * k)).reshape(-1, k, k)

    def trace(self) -> float:
        return float(np.einsum("lkk->", self.C).real)

    def cell_variance(self, A: np.ndarray) -> np.ndarray:
        return ((A[None, :, :] @ self.C) * np.conj(A)[None, :, :]).sum(axis=2).real.T

    def ln_det(self) -> float:
        return 2.0 * float(np.log(np.einsum("lkk->lk", self.R).real).sum())


@dataclass
class SearchWorkspace:
    """Cached quadratic-form data and the factorisation of one support, for one greedy search.

    ``order`` lists the active indices in ascending order; the posterior and
    ``x`` are indexed accordingly.  Invariants, restored by ``_refresh`` after
    every flip: ``posterior`` holds C_l = ([J_l]_order + I/tau)^{-1}, as an
    :class:`EigenPosterior` of G[order][:, order] when ``J`` is a
    :class:`ScaledGram` and as a :class:`CholeskyPosterior` when ``J`` is the
    (L, N, N) stack of per-cell noise, and x[:, l] = C_l @ H[order, l].
    """

    J: np.ndarray | ScaledGram   # (L, N, N) Hermitian, diagonal = tr(Sigma_l^{-1}); or one scaled Gram
    H: np.ndarray            # (N, L)
    rho: float
    tau: float
    order: list[int] = field(default_factory=list)
    posterior: EigenPosterior | CholeskyPosterior = None
    x: np.ndarray = None     # (k, L)
    flips: int = 0

    @property
    def L(self) -> int:
        return self.H.shape[1]

    @property
    def N(self) -> int:
        return self.H.shape[0]

    def log_odds(self) -> float:
        return math.log(self.rho) - math.log1p(-self.rho)

    @property
    def ln_z(self) -> float:
        """Evidence score of the current support; ``H_S^H C_l H_S`` is read as ``H_S^H x_l``."""
        k = len(self.order)
        quad = float(np.vdot(self.H[self.order, :], self.x).real)
        return k * self.log_odds() + self.posterior.ln_det() - self.L * k * math.log(self.tau) + quad


def compute_jh(moments: np.ndarray, variances: np.ndarray, Y: np.ndarray):
    """Quadratic-form matrices J and linear terms H (N, L).

    ``[J_l]_{ij} = a_i^H Sigma_l^{-1} a_j`` off the diagonal with the diagonal
    pinned to ``tr(Sigma_l^{-1})`` (unit-modulus array elements), and
    ``H[:, l] = A^H Sigma_l^{-1} y_l``.

    ``variances`` is the (M, L) variance grid or that grid with its tied axes
    kept at length 1: (1, 1), (1, L) or (M, 1).  Separable noise gives
    ``J_l = w_l G`` for one Gram, returned as a :class:`ScaledGram` so the
    search works in G's eigenbasis: tied over antennas (Cases I, II),
    ``G = A^H A`` with diagonal M and ``w = 1/s``; tied over snapshots
    (Case III), ``G = A^H diag(1/nu) A`` with diagonal ``sum(1/nu)`` and
    ``w = 1``.  Only the per-cell grid (Case IV) builds the (L, N, N) stack
    of ``A^H diag(1/nu_l) A``.
    """
    A = np.asarray(moments, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    nu = np.asarray(variances, dtype=float)
    M, L = Y.shape
    if nu.ndim != 2 or nu.shape[0] not in (1, M) or nu.shape[1] not in (1, L) or A.shape[0] != M:
        raise ValueError(f"shape mismatch: moments {A.shape}, variances {nu.shape}, Y {Y.shape}")
    if np.any(nu <= 0):
        raise ValueError("noise variances must be strictly positive")
    W = 1.0 / nu
    Ah = A.conj().T
    idx = np.arange(A.shape[1])
    if nu.shape[0] == 1 or nu.shape[1] == 1:    # separable: J_l = w_l A^H diag(g) A
        g, w = (np.ones(M), np.broadcast_to(W[0], (L,))) if nu.shape[0] == 1 else (W[:, 0], np.ones(L))
        G = (Ah * g) @ A
        G[idx, idx] = g.sum()
        J = ScaledGram(G=G, w=w)
    else:                                        # per-cell (Case IV): one Gram per snapshot
        J = (Ah[None, :, :] * W.T[:, None, :]) @ A
        J[:, idx, idx] = W.sum(axis=0)[:, None]
    H = Ah @ (W * Y)
    return J, H


def make_workspace(J: np.ndarray | ScaledGram, H: np.ndarray, rho: float, tau: float, support=()) -> SearchWorkspace:
    """Build a workspace warm-started at the given support (one factorisation)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    J = J if isinstance(J, ScaledGram) else np.asarray(J)
    ws = SearchWorkspace(J=J, H=np.asarray(H), rho=float(rho), tau=float(tau),
                         order=sorted(int(i) for i in support))
    _refresh(ws)
    return ws


def ln_z(s, workspace: SearchWorkspace) -> float:
    """Score of the binary vector ``s`` under the workspace's J, H, rho, tau."""
    s = np.asarray(s, dtype=bool)
    if s.shape != (workspace.N,):
        raise ValueError(f"s must have shape ({workspace.N},), got {s.shape}")
    return make_workspace(workspace.J, workspace.H, workspace.rho, workspace.tau, np.flatnonzero(s)).ln_z


def apply_flip(k: int, ws: SearchWorkspace) -> SearchWorkspace:
    """Flip index k in place and factor the posterior system of the new support."""
    if k in ws.order:
        ws.order.remove(k)
    else:
        bisect.insort(ws.order, k)
    ws.flips += 1
    _refresh(ws)
    return ws


def _refresh(ws: SearchWorkspace) -> None:
    """Factor A_l = [J_l]_S + I/tau of the current support; set the posterior and x from it."""
    H_S = ws.H[ws.order, :]
    if isinstance(ws.J, ScaledGram):
        try:
            lam, V = np.linalg.eigh(ws.J.G[np.ix_(ws.order, ws.order)])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"posterior system not positive definite: {exc}") from exc
        prec = ws.J.w[:, None] * lam + 1.0 / ws.tau         # (L, k) eigenvalues of A_l
        if not np.all(prec > 0):
            raise NumericalError(f"posterior system not positive definite: eigenvalue {prec.min():.3g}")
        d = 1.0 / prec
        ws.posterior = EigenPosterior(V=V, d=d)
        ws.x = V @ (d.T * (np.conj(V.T) @ H_S))
        return
    A = ws.J[:, ws.order][:, :, ws.order] + np.eye(len(ws.order)) / ws.tau
    try:
        R = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior system not positive definite: {exc}") from exc
    ws.posterior = CholeskyPosterior(R=R)
    z = np.einsum("lij,jl->il", R, H_S)
    ws.x = np.einsum("lji,jl->il", np.conj(R), z)


def _sweep_deltas(ws: SearchWorkspace) -> np.ndarray:
    """Score gains of all N single-bit flips against the current support."""
    N = ws.N
    deltas = np.empty(N)
    active = ws.order
    inactive = [i for i in range(N) if i not in active]
    log_odds = ws.log_odds()

    if inactive:
        # per snapshot and candidate m: quad = J_{S,m}^H C J_{S,m}, cross = J_{S,m}^H x, tr_inv = J_mm
        if isinstance(ws.J, ScaledGram):
            w, V, d = ws.J.w, ws.posterior.V, ws.posterior.d
            Gsel = ws.J.G[np.ix_(active, inactive)]          # (s, m)
            quad = (d * w[:, None] ** 2) @ (np.abs(np.conj(V.T) @ Gsel) ** 2)
            cross = w[:, None] * (np.conj(Gsel.T) @ ws.x).T
            tr_inv = ws.J.G[0, 0].real * w
        else:
            Jsel = ws.J[:, active][:, :, inactive]            # (L, s, m)
            quad = (np.abs(ws.posterior.R @ Jsel) ** 2).sum(axis=1)  # (L, m)
            cross = (ws.x.T[:, None, :] @ np.conj(Jsel))[:, 0, :]  # (L, m); matmul is 3-4x einsum's speed here
            tr_inv = ws.J[:, 0, 0].real                       # the constant diagonal, tr(Sigma_l^{-1})
        denom = (tr_inv + 1.0 / ws.tau)[:, None] - quad
        if np.any(denom <= 0):
            raise NumericalError("nonpositive Schur complement in candidate sweep")
        v = 1.0 / denom
        u = v * (ws.H[inactive, :].T - cross)
        deltas[inactive] = (np.log(v / ws.tau) + np.abs(u) ** 2 * denom).sum(axis=0) + log_odds

    if active:
        cpp = ws.posterior.diag()                             # (L, k) diagonals of the C_l
        deltas[active] = -(np.log(cpp / ws.tau) + np.abs(ws.x.T) ** 2 / cpp).sum(axis=0) - log_odds

    return deltas


def greedy_search(ws: SearchWorkspace) -> tuple[SupportState, SearchWorkspace]:
    """Ascend ln_z by best single flips until no flip improves it.

    Ties break to the smallest index, so the search is deterministic.
    """
    budget = FLIP_BUDGET_FACTOR * ws.N
    for _ in range(budget):
        deltas = _sweep_deltas(ws)
        k_star = int(np.argmax(deltas))
        if not deltas[k_star] > 0:
            return SupportState.from_indices(ws.N, ws.order), ws
        apply_flip(k_star, ws)
    raise NumericalError(f"support search did not terminate within {budget} flips")

