"""Greedy maximization of the support evidence score by single-bit flips.

The score of a binary activation vector s with active set S is

    ln_z(s) = |S| * ln(rho/(1-rho))
              - sum_l [ ln det(A_l) + |S| * ln(tau) - H_{S,l}^H A_l^{-1} H_{S,l} ]

with ``A_l = [J_l]_S + I/tau``.  The greedy search flips one bit at a time,
always the one with the largest score gain.

Every noise case gives ``J_l = w_l G_p``: P Grams, each shared by a block of
L/P snapshots (:class:`ScaledGram`).  Separable noise (Cases I-III,
``nu[m, l] = alpha_m beta_l``) needs one Gram, P = 1; per-cell noise (Case IV)
needs one per snapshot, P = L with ``w = 1``.  So ``A_l`` is factored the same
way in every case, once per support: one batched ``eigh`` of the P blocks
``[G_p]_S = V_p diag(lambda_p) V_p^H`` diagonalises every ``A_l`` of block p,
``C_l = A_l^{-1} = V_p diag(d_l) V_p^H`` with ``d_{l,j} = 1/(w_l lambda_{p,j} + 1/tau)``.

Everything else reads that one factorisation, an :class:`EigenPosterior`:
the weight posterior C_l, ``x_l = C_l H_{S,l}``, the evidence score and the
gains of all N candidate flips, in a single batched pass over the P blocks.
The per-snapshot weights x and linear terms H always carry L columns.

The search reads few rows of the G_p: ``[G_p]_S`` to factor a support, the
rows ``G_p[S, m]`` of the candidates m to score them, and the pinned diagonal.
So a row is built on its first read, for all P blocks at once, and kept for
the rest of the search; a flip that activates m builds row m.  A search
builds the rows of the supports it visits, a handful of the N, in place of
the full O(M N^2 P) stack.
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


def _blocks(X: np.ndarray, P: int) -> np.ndarray:
    """An (n, L) array as P blocks of the snapshots that share a basis: the (P, n, L/P) view."""
    n, L = X.shape
    return X.reshape(n, P, L // P).transpose(1, 0, 2)


def _unblock(X: np.ndarray) -> np.ndarray:
    """The (n, L) array of P blocks (P, n, L/P): the inverse of :func:`_blocks`."""
    P, n, B = X.shape
    return X.transpose(1, 0, 2).reshape(n, P * B)


@dataclass
class ScaledGram:
    """Quadratic forms ``J_l = w_l G_p``, snapshot l in block ``p = l // (L/P)``.

    ``G_p = A^H diag(g_p) A`` with its diagonal pinned to ``sum(g_p)``.  P = 1
    for a variance grid tied over antennas or snapshots (Cases I-III), P = L
    with ``w = 1`` for the per-cell grid (Case IV).

    Rows are built on first read (:meth:`rows`) and kept in ``G``.  Every
    build is one product of at least two rows, and a lone missing row is
    built twice: a one-row product goes through BLAS's matrix-vector kernel,
    which rounds differently from the matrix-matrix kernel, while a product
    of two or more rows gives each row bit for bit as the full product does.
    """

    Ah: np.ndarray           # (N, M) conjugate transpose of A
    A: np.ndarray            # (M, N) expected steering vectors
    g: np.ndarray            # (M, P) cell weights, column p for G_p
    w: np.ndarray            # (L,) per-snapshot weights
    diag: np.ndarray = field(init=False)    # (P,) the pinned diagonal sum(g_p)
    G: np.ndarray = field(init=False)       # (P, N, N) rows of the G_p, valid where built
    built: np.ndarray = field(init=False)   # (N,) which rows G holds

    def __post_init__(self):
        N, P = self.A.shape[1], self.g.shape[1]
        self.diag = self.g.sum(axis=0)
        self.G = np.empty((P, N, N), dtype=np.complex128)
        self.built = np.zeros(N, dtype=bool)

    def rows(self, idx: list[int]) -> np.ndarray:
        """Rows ``idx`` of every G_p, (P, len(idx), N); those not read before are built first."""
        new = [i for i in idx if not self.built[i]]
        if new:
            new = new * 2 if len(new) == 1 else new    # never a one-row product (see above)
            R = (self.Ah[new][None, :, :] * self.g.T[:, None, :]) @ self.A
            R[:, np.arange(len(new)), new] = self.diag[:, None]
            self.G[:, new] = R
            self.built[new] = True
        return self.G[:, idx]


@dataclass(frozen=True)
class EigenPosterior:
    """Weight posterior ``C_l = V_p diag(d_l) V_p^H``, snapshot l in block p of the P blocks.

    Its readings: ``diag()`` the (L, k) diagonals of the C_l;
    ``weighted_sum(W)`` ``Q = sum_l W[:, l] C_l`` (M|1, k, k) for an (M|1, L)
    grid W; ``trace()`` ``sum_l tr C_l``; ``cell_variance(A)`` the (M, L) grid
    ``a_m C_l a_m^H`` over the rows a_m of A (M, k); ``ln_det()``
    ``sum_l ln det C_l``.  Each works on the blocks of :func:`_blocks`, so
    P = 1 runs one product over all L snapshots.
    """

    V: np.ndarray            # (P, k, k) unitary eigenbases of the [G_p]_S
    d: np.ndarray            # (L, k) eigenvalues of the C_l

    def diag(self) -> np.ndarray:
        return _unblock(np.abs(self.V) ** 2 @ _blocks(self.d.T, len(self.V))).T

    def weighted_sum(self, W: np.ndarray) -> np.ndarray:
        P, k = self.V.shape[:2]
        if P == 1:
            # row m is V diag((W d)_m) V^H: one product with the outer products v_j v_j^H of V's columns
            Vt = self.V[0].T
            outer = (Vt[:, :, None] * np.conj(Vt)[:, None, :]).reshape(k, k * k)
            return ((W @ self.d) @ outer).reshape(len(W), k, k)
        # P = L: W times the vectorised C_l, far cheaper than the other order's L products (M, k) @ (k, k^2)
        C = (self.V * self.d[:, None, :]) @ np.conj(self.V.swapaxes(1, 2))
        return (W @ C.reshape(P, k * k)).reshape(len(W), k, k)

    def trace(self) -> float:
        return float(self.d.sum())

    def cell_variance(self, A: np.ndarray) -> np.ndarray:
        return _unblock(np.abs(A @ self.V) ** 2 @ _blocks(self.d.T, len(self.V)))

    def ln_det(self) -> float:
        return float(np.log(self.d).sum())


@dataclass
class SearchWorkspace:
    """Cached quadratic-form data and the factorisation of one support, for one greedy search.

    ``order`` lists the active indices in ascending order; the posterior and
    ``x`` are indexed accordingly.  Invariants, restored by ``_refresh`` after
    every flip: ``posterior`` holds C_l = ([J_l]_order + I/tau)^{-1} in the
    eigenbases of the blocks ``G_p[order][:, order]``, and
    x[:, l] = C_l @ H[order, l].
    """

    J: ScaledGram
    H: np.ndarray            # (N, L)
    rho: float
    tau: float
    order: list[int] = field(default_factory=list)
    posterior: EigenPosterior = None
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


def compute_jh(moments: np.ndarray, variances: np.ndarray, Y: np.ndarray) -> tuple[ScaledGram, np.ndarray]:
    """Quadratic-form matrices J, as a :class:`ScaledGram`, and linear terms H (N, L).

    ``[J_l]_{ij} = a_i^H Sigma_l^{-1} a_j`` off the diagonal with the diagonal
    pinned to ``tr(Sigma_l^{-1})`` (unit-modulus array elements), and
    ``H[:, l] = A^H Sigma_l^{-1} y_l``.

    ``variances`` is the (M, L) variance grid or that grid with its tied axes
    kept at length 1: (1, 1), (1, L) or (M, 1).  With W = 1/variances,
    ``J_l = w_l A^H diag(g_p) A`` for the columns g_p of g: tied over antennas
    (Cases I, II), ``g = 1`` and ``w = W[0]``, so one Gram ``A^H A`` with
    diagonal M; otherwise ``g = W`` and ``w = 1``, so one Gram for a grid tied
    over snapshots (Case III) and one per snapshot for the per-cell grid
    (Case IV).  H is built in full, since every candidate reads it; the Gram
    rows are built as the search reads them.
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
    g, w = (np.ones((M, 1)), np.broadcast_to(W[0], (L,))) if nu.shape[0] == 1 else (W, np.ones(L))
    return ScaledGram(Ah=Ah, A=A, g=g, w=w), Ah @ (W * Y)


def make_workspace(J: ScaledGram, H: np.ndarray, rho: float, tau: float, support=()) -> SearchWorkspace:
    """Build a workspace warm-started at the given support (one factorisation)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
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
    G_S = ws.J.rows(ws.order)[:, :, ws.order]
    try:
        lam, V = np.linalg.eigh(G_S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior system not positive definite: {exc}") from exc
    prec = ws.J.w[:, None] * lam + 1.0 / ws.tau             # (L, k) eigenvalues of A_l; P is 1 or L
    if not np.all(prec > 0):
        raise NumericalError(f"posterior system not positive definite: eigenvalue {prec.min():.3g}")
    d = 1.0 / prec
    ws.posterior = EigenPosterior(V=V, d=d)
    P = len(V)
    ws.x = _unblock(V @ (_blocks(d.T, P) * (np.conj(V.swapaxes(1, 2)) @ _blocks(ws.H[ws.order, :], P))))


def _sweep_deltas(ws: SearchWorkspace) -> np.ndarray:
    """Score gains of all N single-bit flips against the current support."""
    N = ws.N
    deltas = np.empty(N)
    active = ws.order
    inactive = [i for i in range(N) if i not in active]
    log_odds = ws.log_odds()

    # per snapshot and candidate m: quad = J_{S,m}^H C J_{S,m}, cross = J_{S,m}^H x, tr_inv = J_mm
    w, V, d = ws.J.w, ws.posterior.V, ws.posterior.d
    P, k = V.shape[:2]
    Gsel = ws.J.rows(active)[:, :, inactive]                          # (P, s, m)
    proj = np.abs(np.conj(V.swapaxes(1, 2)) @ Gsel) ** 2             # (P, k, m)
    quad = ((d * w[:, None] ** 2).reshape(P, ws.L // P, k) @ proj).reshape(ws.L, len(inactive))
    cross = w[:, None] * _unblock(np.conj(Gsel.swapaxes(1, 2)) @ _blocks(ws.x, P)).T
    tr_inv = ws.J.diag * w                                            # the constant diagonal, tr(Sigma_l^{-1})
    denom = (tr_inv + 1.0 / ws.tau)[:, None] - quad
    if np.any(denom <= 0):
        raise NumericalError("nonpositive Schur complement in candidate sweep")
    v = 1.0 / denom
    u = v * (ws.H[inactive, :].T - cross)
    deltas[inactive] = (np.log(v / ws.tau) + np.abs(u) ** 2 * denom).sum(axis=0) + log_odds

    cpp = ws.posterior.diag()                                         # (L, k) diagonals of the C_l
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

