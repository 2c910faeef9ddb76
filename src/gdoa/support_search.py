"""Greedy maximization of the support evidence score by single-bit flips.

The score of a binary activation vector s with active set S is

    ln_z(s) = |S| * ln(rho/(1-rho))
              - sum_l [ ln det(A_l) + |S| * ln(tau) - H_{S,l}^H A_l^{-1} H_{S,l} ]

with ``A_l = [J_l]_S + I/tau``.  The greedy search flips one bit at a time,
always the one with the largest score gain.  The per-snapshot weight
posterior ``C_l = A_l^{-1}``, ``x_l = C_l H_{S,l}`` has one source: a direct
solve for the current support, redone after every flip.  The gains of all N
candidate flips are read off that posterior in a single batched pass.

The workspace stores the quadratic forms and covariances as stacked
(L, N, N) and (L, k, k) arrays, or as a single (1, N, N) / (1, k, k) slice
when every snapshot shares them (noise Cases I and III); the per-snapshot
weights x and linear terms H always carry L columns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

FLIP_BUDGET_FACTOR = 10


class NumericalError(RuntimeError):
    """A quantity that must be positive (Schur complement, variance, det) was not."""


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
    """Cached quadratic-form data for one greedy search.

    ``order`` lists the active indices in ascending order; ``C`` and ``x``
    are indexed accordingly.  Invariants, restored by ``_refresh`` after
    every flip: C_l = ([J_l]_order + I/tau)^{-1} and
    x[:, l] = C_l @ H[order, l].  ``J`` and ``C`` have a leading axis of
    length L, or of length 1 when one slice stands for every snapshot (noise
    Cases I and III); the snapshot count comes from ``H``.
    """

    J: np.ndarray            # (L, N, N) or (1, N, N) Hermitian, diagonal = tr(Sigma_l^{-1})
    H: np.ndarray            # (N, L)
    rho: float
    tau: float
    order: list[int] = field(default_factory=list)
    C: np.ndarray = None     # (L, k, k) or (1, k, k), like J
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
    def ln_z(self) -> float:
        """Evidence score of the current support, computed on demand."""
        return _score(self.J, self.H, self.rho, self.tau, self.order)


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
    """Build a workspace warm-started at the given support (direct solves)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    ws = SearchWorkspace(J=np.asarray(J), H=np.asarray(H), rho=float(rho), tau=float(tau),
                         order=sorted(int(i) for i in support))
    _refresh(ws)
    return ws


def _score(J, H, rho, tau, indices) -> float:
    """Evidence score of an arbitrary support, from scratch."""
    idx = list(indices)
    k = len(idx)
    log_odds = math.log(rho) - math.log1p(-rho)
    if k == 0:
        return 0.0
    A = J[:, idx][:, :, idx] + np.eye(k) / tau
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"support system not positive definite: {exc}") from exc
    L = H.shape[1]
    lndet = 2.0 * np.log(np.einsum("lkk->lk", chol).real).sum() * (L // J.shape[0])
    Hs = H[idx, :]
    z = np.linalg.solve(chol, Hs.T[:, :, None])[..., 0]  # (L, k)
    quad = float((np.abs(z) ** 2).sum())
    return k * log_odds - lndet - L * k * math.log(tau) + quad


def ln_z(s, workspace: SearchWorkspace) -> float:
    """Score of the binary vector ``s`` under the workspace's J, H, rho, tau."""
    s = np.asarray(s, dtype=bool)
    if s.shape != (workspace.N,):
        raise ValueError(f"s must have shape ({workspace.N},), got {s.shape}")
    return _score(workspace.J, workspace.H, workspace.rho, workspace.tau, np.flatnonzero(s))


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
    """Flip index k in place and re-solve the posteriors of the new support."""
    if k in ws.order:
        ws.order.remove(k)
    else:
        bisect.insort(ws.order, k)
    ws.flips += 1
    _refresh(ws)
    return ws


def _refresh(ws: SearchWorkspace) -> None:
    """Solve the posteriors of the current support directly."""
    k = len(ws.order)
    if k == 0:
        ws.C = np.zeros((ws.J.shape[0], 0, 0), dtype=np.complex128)
        ws.x = np.zeros((0, ws.L), dtype=np.complex128)
        return
    A = ws.J[:, ws.order][:, :, ws.order] + np.eye(k) / ws.tau
    try:
        C = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior system not invertible: {exc}") from exc
    ws.C = 0.5 * (C + np.conj(np.swapaxes(C, 1, 2)))
    ws.x = np.einsum("lij,jl->il", ws.C, ws.H[ws.order, :])


def _sweep_deltas(ws: SearchWorkspace) -> np.ndarray:
    """Score gains of all N single-bit flips against the current support."""
    N = ws.N
    deltas = np.empty(N)
    active = ws.order
    inactive = [i for i in range(N) if i not in active]
    log_odds = ws.log_odds()

    if inactive:
        Jsel = ws.J[:, active][:, :, inactive]                # (L or 1, s, m)
        T = ws.C @ Jsel                                       # (L or 1, s, m)
        quad = np.einsum("lsm,lsm->lm", np.conj(Jsel), T).real
        tr_inv = ws.J[:, 0, 0].real                           # the constant diagonal, tr(Sigma_l^{-1})
        denom = (tr_inv + 1.0 / ws.tau)[:, None] - quad
        if np.any(denom <= 0):
            raise NumericalError("nonpositive Schur complement in candidate sweep")
        v = 1.0 / denom
        cross = np.einsum("lsm,sl->lm", np.conj(Jsel), ws.x)
        u = v * (ws.H[inactive, :].T - cross)
        deltas[inactive] = (np.log(v / ws.tau) + np.abs(u) ** 2 * denom).sum(axis=0) + log_odds

    if active:
        cpp = np.einsum("lkk->lk", ws.C).real
        if np.any(cpp <= 0):
            raise NumericalError("nonpositive posterior variance in candidate sweep")
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

