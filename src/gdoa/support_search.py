"""Greedy maximization of the support evidence score by single-bit flips.

The score of a binary activation vector s with active set S is

    ln_z(s) = |S| * ln(rho/(1-rho))
              - sum_l [ ln det(A_l) + |S| * ln(tau) - H_{S,l}^H A_l^{-1} H_{S,l} ]

with ``A_l = [J_l]_S + I/tau``.  The greedy search flips one bit at a time,
always the one with the largest score gain.

``A_l`` is factored once per support, by one batched Cholesky, and the
search keeps the inverse factor ``R_l = chol(A_l)^{-1}`` (lower triangular).
Everything else reads R: the weight posterior ``C_l = R_l^H R_l``,
``x_l = R_l^H R_l H_{S,l}``; the evidence score, through
``ln det A_l = -2 sum ln diag R_l`` and ``H^H A_l^{-1} H = ||R_l H_{S,l}||^2``;
and the gains of all N candidate flips, in a single batched pass.

The workspace stores the quadratic forms and factors as stacked (L, N, N)
and (L, k, k) arrays, or as a single (1, N, N) / (1, k, k) slice when every
snapshot shares them (noise Cases I and III); the per-snapshot weights x and
linear terms H always carry L columns.
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


@dataclass
class SearchWorkspace:
    """Cached quadratic-form data and the factor of one support, for one greedy search.

    ``order`` lists the active indices in ascending order; ``R`` and ``x``
    are indexed accordingly.  Invariants, restored by ``_refresh`` after
    every flip: R_l = chol([J_l]_order + I/tau)^{-1}, lower triangular, and
    x[:, l] = R_l^H R_l @ H[order, l].  ``J`` and ``R`` have a leading axis
    of length L, or of length 1 when one slice stands for every snapshot
    (noise Cases I and III); the snapshot count comes from ``H``.
    """

    J: np.ndarray            # (L, N, N) or (1, N, N) Hermitian, diagonal = tr(Sigma_l^{-1})
    H: np.ndarray            # (N, L)
    rho: float
    tau: float
    order: list[int] = field(default_factory=list)
    R: np.ndarray = None     # (L, k, k) or (1, k, k), like J
    x: np.ndarray = None     # (k, L)
    flips: int = 0

    @property
    def L(self) -> int:
        return self.H.shape[1]

    @property
    def N(self) -> int:
        return self.J.shape[1]

    def log_odds(self) -> float:
        return math.log(self.rho) - math.log1p(-self.rho)

    @property
    def C(self) -> np.ndarray:
        """Weight posterior covariances C_l = R_l^H R_l, shaped like R."""
        return np.conj(np.swapaxes(self.R, 1, 2)) @ self.R

    @property
    def ln_z(self) -> float:
        """Evidence score of the current support, read off R."""
        k = len(self.order)
        lndet_C = 2.0 * np.log(np.einsum("lkk->lk", self.R).real).sum() * (self.L // self.R.shape[0])
        quad = float((np.abs(np.einsum("lij,jl->il", self.R, self.H[self.order, :])) ** 2).sum())
        return k * self.log_odds() + lndet_C - self.L * k * math.log(self.tau) + quad


def compute_jh(moments: np.ndarray, variances: np.ndarray, Y: np.ndarray):
    """Quadratic-form matrices J and linear terms H (N, L).

    ``[J_l]_{ij} = a_i^H Sigma_l^{-1} a_j`` off the diagonal with the diagonal
    pinned to ``tr(Sigma_l^{-1})`` (unit-modulus array elements), and
    ``H[:, l] = A^H Sigma_l^{-1} y_l``.

    ``variances`` is the (M, L) variance grid or that grid with its tied axes
    kept at length 1: (1, 1), (1, L) or (M, 1).  J is (L, N, N), or (1, N, N)
    when the variances do not vary over snapshots.  Variances tied over
    antennas give ``J_l = G / s_l`` for one Gram ``G = A^H A`` with diagonal
    M; variances that vary over antennas need ``A^H diag(1/nu_l) A`` per
    snapshot column of the grid.
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
    if nu.shape[0] == 1:
        G = Ah @ A
        G[idx, idx] = M
        J = G[None, :, :] * W[0][:, None, None]
    else:
        J = (Ah[None, :, :] * W.T[:, None, :]) @ A
        J[:, idx, idx] = W.sum(axis=0)[:, None]
    H = Ah @ (W * Y)
    return J, H


def make_workspace(J: np.ndarray, H: np.ndarray, rho: float, tau: float, support=()) -> SearchWorkspace:
    """Build a workspace warm-started at the given support (one factorisation)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    ws = SearchWorkspace(J=np.asarray(J), H=np.asarray(H), rho=float(rho), tau=float(tau),
                         order=sorted(int(i) for i in support))
    _refresh(ws)
    return ws


def ln_z(s, workspace: SearchWorkspace) -> float:
    """Score of the binary vector ``s`` under the workspace's J, H, rho, tau."""
    s = np.asarray(s, dtype=bool)
    if s.shape != (workspace.N,):
        raise ValueError(f"s must have shape ({workspace.N},), got {s.shape}")
    return make_workspace(workspace.J, workspace.H, workspace.rho, workspace.tau, np.flatnonzero(s)).ln_z


def delta_activate(k: int, ws: SearchWorkspace) -> float:
    """Score gain for activating inactive index k."""
    if k in ws.order:
        raise ValueError(f"index {k} is already active")
    return float(_sweep_deltas(ws)[k])


def delta_deactivate(k: int, ws: SearchWorkspace) -> float:
    """Score gain for deactivating active index k."""
    if k not in ws.order:
        raise ValueError(f"index {k} is not active")
    return float(_sweep_deltas(ws)[k])


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
    """Factor A_l = [J_l]_S + I/tau of the current support; set R and x from the one factor."""
    A = ws.J[:, ws.order][:, :, ws.order] + np.eye(len(ws.order)) / ws.tau
    try:
        ws.R = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior system not positive definite: {exc}") from exc
    z = np.einsum("lij,jl->il", ws.R, ws.H[ws.order, :])
    ws.x = np.einsum("lji,jl->il", np.conj(ws.R), z)


def _sweep_deltas(ws: SearchWorkspace) -> np.ndarray:
    """Score gains of all N single-bit flips against the current support."""
    N = ws.N
    deltas = np.empty(N)
    active = ws.order
    inactive = [i for i in range(N) if i not in active]
    log_odds = ws.log_odds()

    if inactive:
        Jsel = ws.J[:, active][:, :, inactive]                # (L or 1, s, m)
        quad = (np.abs(ws.R @ Jsel) ** 2).sum(axis=1)         # diag of Jsel^H C Jsel, (L or 1, m)
        tr_inv = ws.J[:, 0, 0].real                           # the constant diagonal, tr(Sigma_l^{-1})
        denom = (tr_inv + 1.0 / ws.tau)[:, None] - quad
        if np.any(denom <= 0):
            raise NumericalError("nonpositive Schur complement in candidate sweep")
        v = 1.0 / denom
        cross = np.einsum("lsm,sl->lm", np.conj(Jsel), ws.x)
        u = v * (ws.H[inactive, :].T - cross)
        deltas[inactive] = (np.log(v / ws.tau) + np.abs(u) ** 2 * denom).sum(axis=0) + log_odds

    if active:
        cpp = (np.abs(ws.R) ** 2).sum(axis=1)                 # diag of C: the column norms of R
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

