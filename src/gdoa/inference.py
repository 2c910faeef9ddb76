"""Variational coordinate-ascent estimator for line spectra in structured noise.

One iteration updates, in order: the support and weight posteriors (greedy
evidence ascent), the activation probability ``rho`` and weight-variance
``tau``, the noise-variance estimate (per-cell quantity reduced to the
structure of the selected case), and finally the per-component frequency
posteriors.  The four variants differ only in how the per-cell noise
quantity is averaged:

* Case I   (``MVALSE``): mean over all cells,
* Case II  (``MVHN-S``): mean over antennas, one value per snapshot,
* Case III (``MVHN-A``): mean over snapshots, one value per antenna,
* Case IV  (``MVHN``):   no averaging.

The frequency sweep takes VALSE's coefficient in closed form (Badiu, Hansen
& Fleury 2017, summed over snapshots as in MVALSE):
``eta_p = 2 (B_p - sum_{q != p} a_q ⊙ U_qp)`` with ``B = (Y ⊙ W) X^H`` and the
coupling ``U_qp = sum_l W_l (x_ql conj(x_pl) + C_l[q, p])``.  Both are built
once per sweep from the weight posterior, which does not change inside it,
so each component reads the moments as they stand, its predecessors'
already refreshed, at O(Mk) cost and with no (M, L) pass of its own.

Runs are strictly single-threaded and deterministic: given the same inputs,
two invocations produce bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import VonMises, _next_pow2, approximate_posterior, moment_vector
from .model import NoiseCase, SnapshotMatrix
from .support_search import EigenPosterior, SupportState, compute_jh, greedy_search, make_workspace

ALGORITHM_CASES = {
    "MVALSE": NoiseCase.I,
    "MVHN-S": NoiseCase.II,
    "MVHN-A": NoiseCase.III,
    "MVHN": NoiseCase.IV,
}


@dataclass
class NoiseEstimate:
    """Case-tagged variance structure.

    ``values`` is a scalar (Case I), a length-L vector (Case II), a length-M
    vector (Case III) or an (M, L) grid (Case IV): the (M, L) grid with the
    case's tied axes averaged out.
    """

    case: NoiseCase
    values: float | np.ndarray

    def compact_grid(self, M: int, L: int) -> np.ndarray:
        """The (M, L) grid with the tied axes kept at length 1: (1, 1), (1, L), (M, 1) or (M, L)."""
        v = np.asarray(self.values, dtype=float)
        shape = self.case.value_shape(M, L)
        if v.shape != shape:
            raise ValueError(f"Case {self.case.value} expects noise values of shape {shape}, "
                             f"got shape {v.shape}")
        return np.expand_dims(v, self.case.tied_axes)


@dataclass
class HyperParams:
    """Activation probability rho in (0, 1) and prior weight variance tau > 0."""

    rho: float
    tau: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


# INIT_NOISE_FRACTION = 0.5 keeps the first support sweep from massively
# overfitting when the data is noise-dominated (smaller values inflate the
# seeded concentrations by 1/fraction and lock rho near its upper clamp).
INIT_NOISE_FRACTION = 0.5
INIT_RHO = 0.5
NOISE_FLOOR_SCALE = 1e-12


@dataclass
class RunOptions:
    """Stopping rule of :func:`run`."""

    tol: float = 1e-6
    max_iterations: int = 500


@dataclass
class InferenceState:
    """Mutable state of one coordinate-ascent run."""

    posteriors: list[VonMises]     # N frequency beliefs
    moments: np.ndarray            # (M, N) expected steering vectors
    support: SupportState
    weight_means: np.ndarray       # (k, L), rows in ascending support order
    weight_posterior: EigenPosterior  # the C_l, same ordering, as the search factored them
    hyper: HyperParams
    noise: NoiseEstimate
    noise_floor: float
    iteration: int = 0


@dataclass
class EstimationResult:
    """Final estimates of one run."""

    k_hat: int
    omegas: np.ndarray     # (k,) posterior mean directions
    kappas: np.ndarray     # (k,) posterior concentrations
    weights: np.ndarray    # (k, L)
    signal: np.ndarray     # (M, L) reconstruction
    noise: NoiseEstimate
    hyper: HyperParams
    iterations: int
    converged: bool


def _clamp_rho(rho: float, n: int) -> float:
    lo, hi = 1.0 / n, 1.0 - 1.0 / n
    if lo > hi:  # n == 1: the clamp interval is empty, keep an uninformative value
        return 0.5
    return min(max(rho, lo), hi)


def init_state(Y: np.ndarray, N: int, case: NoiseCase) -> InferenceState:
    """Deterministic initialization from the data.

    The noise level starts at one value nu0 in every cell, hyper parameters
    at uninformative defaults, and the N frequency beliefs are seeded one at
    a time from the plain periodogram of the running residual (strongest
    remaining peak first, matched-filter weight estimate, then cancellation).
    All components start inactive.

    The residual stays in the antenna domain: one zero-padded FFT of the data
    gives the starting periodogram, each seed reads its weight estimate off
    one DFT row, and its cancellation ``R -= a x^T`` enters the periodogram
    as ``|f|^2 ||x||^2 - 2 Re(conj(f) FFT(R conj(x)))`` with ``f = FFT(a)``.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    M, L = Y.shape
    if not 1 <= N <= M:
        raise ValueError(f"component budget must satisfy 1 <= N <= M, got N={N}, M={M}")

    with np.errstate(over="ignore"):
        mean_power = float(np.sum(np.abs(Y) ** 2)) / (M * L)
    if not np.isfinite(mean_power):
        raise ValueError("sample power overflows float64; rescale the snapshots")
    floor = NOISE_FLOOR_SCALE * mean_power if mean_power > 0 else NOISE_FLOOR_SCALE
    nu0 = max(INIT_NOISE_FRACTION * mean_power, floor)
    noise = NoiseEstimate(case=case, values=np.full(case.value_shape(M, L), nu0))

    rho = _clamp_rho(INIT_RHO, N)
    tau = mean_power / (INIT_RHO * N)
    if tau <= 0:
        tau = 1.0
    hyper = HyperParams(rho=rho, tau=tau)

    G = _next_pow2(16 * M)
    orders = np.arange(M)
    residual = Y.copy()
    power = (np.abs(np.fft.fft(residual, n=G, axis=0)) ** 2).sum(axis=1)  # (G,) periodogram of the residual
    posteriors: list[VonMises] = []
    moments = np.empty((M, N), dtype=np.complex128)
    for i in range(N):
        g_star = int(np.argmax(power))
        x_hat = np.exp(-2j * np.pi * (g_star * orders % G) / G) @ residual / M  # DFT row g*: a(w)^H R / M
        r = residual @ np.conj(x_hat)
        vm = approximate_posterior((2.0 / nu0) * r)
        posteriors.append(vm)
        a = moments[:, i] = moment_vector(vm, M)
        # rank-one cancellation R -= a x^T, written into the periodogram without its (G, L) spectrum
        f = np.fft.fft(a, n=G)
        power += np.abs(f) ** 2 * np.vdot(x_hat, x_hat).real - 2.0 * (np.conj(f) * np.fft.fft(r, n=G)).real
        residual -= np.outer(a, x_hat)

    return InferenceState(
        posteriors=posteriors,
        moments=moments,
        support=SupportState.from_indices(N, ()),
        weight_means=np.zeros((0, L), dtype=np.complex128),
        weight_posterior=EigenPosterior(V=np.zeros((1, 0, 0), dtype=np.complex128), d=np.zeros((L, 0))),
        hyper=hyper,
        noise=noise,
        noise_floor=floor,
    )


def _sweep_terms(state: InferenceState, Y: np.ndarray):
    """What every active component's coefficient shares within one frequency sweep.

    With ``W = 1/compact_grid`` and X the (k, L) weight means: ``B = (Y ⊙ W) X^H``
    (M, k), and the coupling ``U[:, q, p] = Σ_l W[:, l] (X[q, l] conj(X[p, l]) + C_l[q, p])``
    (M|1, k, k) with its diagonal set to zero.  The outer-product part is one
    (M|1, L) @ (L, k²) product in every noise case, and the ``C_l`` part is the
    weight posterior's ``weighted_sum``.  Neither depends on the moments.
    """
    M, L = Y.shape
    X = state.weight_means
    k = len(X)
    W = 1.0 / state.noise.compact_grid(M, L)                  # (M|1, L|1)
    B = (Y * W) @ np.conj(X.T)
    W_l = np.broadcast_to(W, (W.shape[0], L))
    outer = (X.T[:, :, None] * np.conj(X.T)[:, None, :]).reshape(L, k * k)   # [l, q*k + p] = X[q, l] conj(X[p, l])
    U = (W_l @ outer).reshape(-1, k, k) + state.weight_posterior.weighted_sum(W_l)
    idx = np.arange(k)
    U[:, idx, idx] = 0.0
    return B, U


def update_frequencies(state: InferenceState, Y: np.ndarray) -> InferenceState:
    """Refresh posterior and expected steering vector of each active component.

    Components are visited in ascending index order and each update sees the
    already-refreshed moments of its predecessors; inactive components keep
    their last belief.  Component p's coefficient is
    ``eta_p = 2 (B[:, p] - Σ_q A_S[:, q] ⊙ U[:, q, p])`` from the sweep's terms
    (:func:`_sweep_terms`) and the current moments A_S.
    """
    S = list(state.support.active_set)
    if not S:
        return state
    M = Y.shape[0]
    B, U = _sweep_terms(state, Y)
    A_S = state.moments[:, S]
    for p, i in enumerate(S):
        vm = approximate_posterior(2.0 * (B[:, p] - (A_S * U[:, :, p]).sum(axis=1)))
        a_new = moment_vector(vm, M)
        A_S[:, p] = a_new
        state.posteriors[i] = vm
        state.moments[:, i] = a_new
    return state


def update_weights_support(state: InferenceState, Y: np.ndarray) -> InferenceState:
    """Greedy evidence ascent over supports, then store the winning posteriors."""
    M, L = Y.shape
    J, H = compute_jh(state.moments, state.noise.compact_grid(M, L), Y)
    ws = make_workspace(J, H, state.hyper.rho, state.hyper.tau, support=state.support.active_set)
    state.support, ws = greedy_search(ws)
    state.weight_means = ws.x
    state.weight_posterior = ws.posterior
    return state


def update_hyperparams(state: InferenceState) -> InferenceState:
    """Closed-form refresh of rho (clamped) and tau; tau is kept on empty support."""
    N = len(state.posteriors)
    k = state.support.size
    rho = _clamp_rho(k / N, N)
    if k == 0:
        state.hyper = HyperParams(rho=rho, tau=state.hyper.tau)
        return state
    L = state.weight_means.shape[1]
    energy = float(np.sum(np.abs(state.weight_means) ** 2))
    tau = (energy + state.weight_posterior.trace()) / (L * k)
    state.hyper = HyperParams(rho=rho, tau=max(tau, 1e-100))
    return state


def noise_cell_quantities(state: InferenceState, Y: np.ndarray) -> np.ndarray:
    """Per-cell noise quantity: residual power + weight-posterior term + frequency-uncertainty term."""
    S = list(state.support.active_set)
    if not S:
        return np.abs(Y) ** 2
    A_S = state.moments[:, S]
    X = state.weight_means
    resid = Y - A_S @ X
    term1 = np.abs(resid) ** 2
    term2 = state.weight_posterior.cell_variance(A_S)
    term3 = (1.0 - np.abs(A_S) ** 2) @ (np.abs(X) ** 2)
    return term1 + term2 + term3


def update_noise(state: InferenceState, Y: np.ndarray) -> InferenceState:
    """Reduce the per-cell quantity to the case structure, with a positivity floor."""
    cell = noise_cell_quantities(state, Y)
    case = state.noise.case
    state.noise = NoiseEstimate(case=case, values=np.maximum(cell.mean(axis=case.tied_axes), state.noise_floor))
    return state


def _padded_weights(state: InferenceState, N: int, L: int) -> np.ndarray:
    X = np.zeros((N, L), dtype=np.complex128)
    if state.support.size:
        X[list(state.support.active_set), :] = state.weight_means
    return X


def run(
    Y: SnapshotMatrix | np.ndarray,
    n_components: int | None = None,
    case: NoiseCase = NoiseCase.I,
    options: RunOptions | None = None,
) -> EstimationResult:
    """Full coordinate-ascent run on one snapshot matrix.

    Stops when the relative change of the (zero-padded) weight matrix drops
    below ``options.tol`` or after ``options.max_iterations`` iterations.
    """
    if isinstance(Y, SnapshotMatrix):
        Y = Y.data
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim != 2:
        raise ValueError(f"snapshot matrix must be 2-D, got shape {Y.shape}")
    if Y.shape[0] < 2 or Y.shape[1] < 1:
        raise ValueError(f"snapshot matrix needs at least 2 antennas (rows) and 1 snapshot, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("snapshot matrix contains non-finite entries")
    options = options or RunOptions()
    M, L = Y.shape
    N = M if n_components is None else int(n_components)

    state = init_state(Y, N, case)
    prev = _padded_weights(state, N, L)
    converged = False
    for t in range(1, options.max_iterations + 1):
        update_weights_support(state, Y)
        update_hyperparams(state)
        update_noise(state, Y)
        update_frequencies(state, Y)
        state.iteration = t

        cur = _padded_weights(state, N, L)
        num = float(np.linalg.norm(prev - cur))
        den = float(np.linalg.norm(prev))
        prev = cur
        if (num == 0.0) if den == 0.0 else (num / den < options.tol):
            converged = True
            break

    S = list(state.support.active_set)
    omegas = np.array([state.posteriors[i].mu for i in S])
    kappas = np.array([state.posteriors[i].kappa for i in S])
    A_S = state.moments[:, S]
    signal = A_S @ state.weight_means if S else np.zeros((M, L), dtype=np.complex128)
    return EstimationResult(
        k_hat=len(S),
        omegas=omegas,
        kappas=kappas,
        weights=state.weight_means,
        signal=signal,
        noise=state.noise,
        hyper=state.hyper,
        iterations=state.iteration,
        converged=converged,
    )
