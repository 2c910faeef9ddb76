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
  The workspace keeps G, the L weights w, the (k, k) basis V and the
  (L, k) eigenvalues d, and no per-snapshot matrix.
* Per-cell noise (Case IV) needs one Gram per snapshot, an (L, N, N)
  stack, and one batched Cholesky, kept as the inverse factor
  ``R_l = chol(A_l)^{-1}`` (lower triangular, (L, k, k)), so
  ``C_l = R_l^H R_l``, ``ln det A_l = -2 sum ln diag R_l`` and
  ``H^H A_l^{-1} H = ||R_l H_{S,l}||^2``.

The per-snapshot weights x and linear terms H always carry L columns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

FLIP_BUDGET_FACTOR = 10


class NumericalError(RuntimeError):
    """A quantity that must be positive (Schur complement, posterior system) was not."""


@dataclass(frozen=True)
class SupportState:
    """Binary activation vector and its sorted active index set."""

    s: np.ndarray
    active_set: tuple[int, ...]

    @classmethod
    def from_indices(cls, n: int, indices) -> "SupportState":
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate support indices")
        if idx and not (0 <= idx[0] and idx[-1] < n):
            raise ValueError(f"support indices {idx} out of range for n={n}")
        s = np.zeros(n, dtype=bool)
        s[list(idx)] = True
        return cls(s=s, active_set=idx)

    @property
    def size(self) -> int:
        return len(self.active_set)


@dataclass(frozen=True)
class ScaledGram:
    """Quadratic forms ``J_l = w_l G`` of separable noise (Cases I-III)."""

    G: np.ndarray            # (N, N) Hermitian Gram A^H diag(g) A, diagonal pinned to sum(g)
    w: np.ndarray            # (L,) per-snapshot weights


@dataclass
class SearchWorkspace:
    """Cached quadratic-form data and the factorisation of one support, for one greedy search.

    ``order`` lists the active indices in ascending order; ``R`` (or ``V``)
    and ``x`` are indexed accordingly.  Invariants, restored by ``_refresh``
    after every flip: x[:, l] = C_l @ H[order, l], and either
    G[order][:, order] = V diag(lambda) V^H and d[l] = 1/(lambda w_l + 1/tau)
    when ``J`` is a :class:`ScaledGram` (separable noise), or
    R_l = chol([J_l]_order + I/tau)^{-1}, lower triangular, when ``J`` is the
    (L, N, N) stack of per-cell noise.
    """

    J: np.ndarray | ScaledGram   # (L, N, N) Hermitian, diagonal = tr(Sigma_l^{-1}); or one scaled Gram
    H: np.ndarray            # (N, L)
    rho: float
    tau: float
    order: list[int] = field(default_factory=list)
    R: np.ndarray = None     # (L, k, k); Cholesky form (Case IV) only
    V: np.ndarray = None     # (k, k) unitary eigenbasis of G_S; eigenbasis form only
    d: np.ndarray = None     # (L, k) eigenvalues of C_l; eigenbasis form only
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
    def C(self) -> np.ndarray:
        """Weight posterior covariances C_l, (L, k, k)."""
        if isinstance(self.J, ScaledGram):
            return (self.V * self.d[:, None, :]) @ np.conj(self.V.T)
        return np.conj(np.swapaxes(self.R, 1, 2)) @ self.R

    @property
    def ln_z(self) -> float:
        """Evidence score of the current support, read off the factorisation."""
        k = len(self.order)
        H_S = self.H[self.order, :]
        if isinstance(self.J, ScaledGram):
            lndet_C = np.log(self.d).sum()
            quad = float((self.d.T * np.abs(np.conj(self.V.T) @ H_S) ** 2).sum())
        else:
            lndet_C = 2.0 * np.log(np.einsum("lkk->lk", self.R).real).sum()
            quad = float((np.abs(np.einsum("lij,jl->il", self.R, H_S)) ** 2).sum())
        return k * self.log_odds() + lndet_C - self.L * k * math.log(self.tau) + quad


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
    """Factor A_l = [J_l]_S + I/tau of the current support; set R (or V, d) and x from it."""
    H_S = ws.H[ws.order, :]
    if isinstance(ws.J, ScaledGram):
        try:
            lam, ws.V = np.linalg.eigh(ws.J.G[np.ix_(ws.order, ws.order)])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"posterior system not positive definite: {exc}") from exc
        prec = ws.J.w[:, None] * lam + 1.0 / ws.tau         # (L, k) eigenvalues of A_l
        if not np.all(prec > 0):
            raise NumericalError(f"posterior system not positive definite: eigenvalue {prec.min():.3g}")
        ws.d = 1.0 / prec
        ws.x = ws.V @ (ws.d.T * (np.conj(ws.V.T) @ H_S))
        return
    A = ws.J[:, ws.order][:, :, ws.order] + np.eye(len(ws.order)) / ws.tau
    try:
        ws.R = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior system not positive definite: {exc}") from exc
    z = np.einsum("lij,jl->il", ws.R, H_S)
    ws.x = np.einsum("lji,jl->il", np.conj(ws.R), z)


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
            w = ws.J.w
            Gsel = ws.J.G[np.ix_(active, inactive)]          # (s, m)
            quad = (ws.d * w[:, None] ** 2) @ (np.abs(np.conj(ws.V.T) @ Gsel) ** 2)
            cross = w[:, None] * (np.conj(Gsel.T) @ ws.x).T
            tr_inv = ws.J.G[0, 0].real * w
        else:
            Jsel = ws.J[:, active][:, :, inactive]            # (L, s, m)
            quad = (np.abs(ws.R @ Jsel) ** 2).sum(axis=1)     # (L, m)
            cross = (ws.x.T[:, None, :] @ np.conj(Jsel))[:, 0, :]  # (L, m); matmul is 3-4x einsum's speed here
            tr_inv = ws.J[:, 0, 0].real                       # the constant diagonal, tr(Sigma_l^{-1})
        denom = (tr_inv + 1.0 / ws.tau)[:, None] - quad
        if np.any(denom <= 0):
            raise NumericalError("nonpositive Schur complement in candidate sweep")
        v = 1.0 / denom
        u = v * (ws.H[inactive, :].T - cross)
        deltas[inactive] = (np.log(v / ws.tau) + np.abs(u) ** 2 * denom).sum(axis=0) + log_odds

    if active:
        if isinstance(ws.J, ScaledGram):
            cpp = (np.abs(ws.V) ** 2 @ ws.d.T).T              # diag of C_l = V diag(d_l) V^H
        else:
            cpp = (np.abs(ws.R) ** 2).sum(axis=1)             # diag of C: the column norms of R
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

