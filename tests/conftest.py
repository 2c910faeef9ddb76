"""Shared builders for randomized estimator-state instances."""

import numpy as np
import pytest

from gdoa.circular import VonMises, moment_vector
from gdoa.model import steering_matrix
from gdoa.support_search import EigenPosterior, ScaledGram, compute_jh, make_workspace


def random_variances(rng, M, L, spread_db=12.0):
    """Positive per-cell variance grid with a few-dB spread."""
    db = rng.uniform(0.0, spread_db, size=(M, L))
    return 10.0 ** (db / 10.0) * 0.5


def random_moments(rng, M, N, kappa_range=(5.0, 5e3)):
    """Expected steering vectors of N components with random beliefs."""
    mus = rng.uniform(-np.pi, np.pi, size=N)
    kappas = 10.0 ** rng.uniform(np.log10(kappa_range[0]), np.log10(kappa_range[1]), size=N)
    return np.column_stack([moment_vector(VonMises(mu, k), M) for mu, k in zip(mus, kappas)])


def random_instance(rng, M=8, N=8, L=3, k_true=2, snr_db=10.0, rho=0.2, tau=None, tied_axes=()):
    """Snapshot data with planted components plus a matching (J, H) pair.

    ``tied_axes`` averages the variance grid over those axes and keeps them
    at length 1, as a noise case's ``tied_axes`` does, so J takes that
    case's shape.
    """
    omegas = rng.uniform(-np.pi, np.pi, size=k_true)
    X = (rng.normal(1.0, 0.2, size=(k_true, L)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(k_true, L))))
    Z = steering_matrix(omegas, M) @ X if k_true else np.zeros((M, L), dtype=complex)
    signal_power = np.sum(np.abs(Z) ** 2) / (M * L) if k_true else 1.0
    nu = random_variances(rng, M, L) * signal_power * 10.0 ** (-snr_db / 10.0)
    if tied_axes:
        nu = nu.mean(axis=tied_axes, keepdims=True)
    noise = np.sqrt(nu / 2.0) * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
    Y = Z + noise
    moments = random_moments(rng, M, N)
    if k_true:
        moments[:, :k_true] = np.column_stack(
            [moment_vector(VonMises(w, 10.0 ** rng.uniform(3, 5)), M) for w in omegas]
        )
    J, H = compute_jh(moments, nu, Y)
    tau = float(np.mean(np.abs(X) ** 2)) if (tau is None and k_true) else (tau or 1.0)
    return {"Y": Y, "nu": nu, "moments": moments, "J": J, "H": H, "rho": rho, "tau": tau}


def full_gram(J):
    """Every row of J's (P, N, N) Gram stack, the rows not yet built made in one product."""
    return J.rows(list(range(J.A.shape[1])))


def stack_gram(G, w):
    """A ScaledGram that holds a hand-made (P, N, N) stack, every row built, with its diagonal pinned at G[:, 0, 0]."""
    G = np.asarray(G, dtype=complex)
    P, N, _ = G.shape
    J = ScaledGram(Ah=np.zeros((N, 0), dtype=complex), A=np.zeros((0, N), dtype=complex),
                   g=np.zeros((0, P)), w=np.asarray(w, dtype=float))
    J.G[:] = G
    J.built[:] = True
    J.diag = G[:, 0, 0].real.copy()
    return J


def workspace_of(inst, support=()):
    return make_workspace(inst["J"], inst["H"], inst["rho"], inst["tau"], support=support)


def support_vec(n, indices):
    """The length-n boolean activation vector of an index set."""
    s = np.zeros(n, dtype=bool)
    s[list(indices)] = True
    return s


def dense_covs(posterior):
    """The (L, k, k) stack of the C_l that a weight posterior stands for, with P = 1 or L bases."""
    return (posterior.V * posterior.d[:, None, :]) @ np.conj(np.swapaxes(posterior.V, 1, 2))


def eigen_posterior(C):
    """The posterior of a hand-made (L, k, k) stack, one eigenbasis per snapshot (P = L)."""
    d, V = np.linalg.eigh(np.asarray(C, dtype=complex))
    return EigenPosterior(V=V, d=d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
