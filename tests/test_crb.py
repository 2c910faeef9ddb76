import re

import numpy as np
import pytest

from gdoa.crb import (
    GRAM_COND_LIMIT,
    CrbParameterization,
    SingularFimError,
    crb_frequencies,
    fim,
    signal_partials,
)


def sample_z(params, m, l):
    return complex(np.sum(params.g[:, l] * np.exp(1j * (m * params.omegas + params.phi[:, l]))))


def random_params(rng, K=2, L=3):
    return CrbParameterization(
        omegas=np.sort(rng.uniform(-2.5, 2.5, size=K)),
        g=rng.uniform(0.5, 2.0, size=(K, L)),
        phi=rng.uniform(-np.pi, np.pi, size=(K, L)),
    )


def fd_gradients(params, m, l, h=1e-6):
    """Central finite differences through the stacked parameter vector."""
    K, L = params.K, params.L
    theta0 = np.concatenate([params.omegas, params.g.flatten(order="F"), params.phi.flatten(order="F")])

    def z_of(theta):
        om = theta[:K]
        g = theta[K:K + K * L].reshape((K, L), order="F")
        ph = theta[K + K * L:].reshape((K, L), order="F")
        return sample_z(CrbParameterization(om, g, ph), m, l)

    d_re = np.zeros_like(theta0)
    d_im = np.zeros_like(theta0)
    for p in range(len(theta0)):
        upper = theta0.copy(); upper[p] += h
        lower = theta0.copy(); lower[p] -= h
        dz = (z_of(upper) - z_of(lower)) / (2 * h)
        d_re[p], d_im[p] = dz.real, dz.imag
    return d_re, d_im


class TestSignalPartials:
    def test_first_antenna_frequency_partials_vanish(self, rng):
        params = random_params(rng)
        d_re, d_im = signal_partials(params, 0, 1)
        assert np.array_equal(d_re[:2], [0.0, 0.0])
        assert np.array_equal(d_im[:2], [0.0, 0.0])

    def test_against_finite_differences(self, rng):
        for _ in range(5):
            params = random_params(rng)
            m, l = int(rng.integers(0, 6)), int(rng.integers(0, 3))
            d_re, d_im = signal_partials(params, m, l)
            fd_re, fd_im = fd_gradients(params, m, l)
            np.testing.assert_allclose(d_re, fd_re, atol=1e-6)
            np.testing.assert_allclose(d_im, fd_im, atol=1e-6)

    def test_phase_amplitude_identity(self, rng):
        # d(Re Z)/d(phi_kl) = -g_kl * d(Im Z)/d(g_kl), exactly
        params = random_params(rng)
        K, L = params.K, params.L
        d_re, d_im = signal_partials(params, 3, 2)
        phi_block = slice(K + K * L + 2 * K, K + K * L + 3 * K)
        g_block = slice(K + 2 * K, K + 3 * K)
        np.testing.assert_array_equal(d_re[phi_block], -params.g[:, 2] * d_im[g_block])

    def test_sparsity_pattern(self, rng):
        params = random_params(rng, K=2, L=3)
        d_re, _ = signal_partials(params, 2, 1)
        K, L = 2, 3
        for l in (0, 2):
            assert np.all(d_re[K + l * K:K + (l + 1) * K] == 0.0)
            assert np.all(d_re[K + K * L + l * K:K + K * L + (l + 1) * K] == 0.0)

    def test_index_errors(self, rng):
        params = random_params(rng)
        with pytest.raises(IndexError):
            signal_partials(params, 0, 3)
        with pytest.raises(IndexError):
            signal_partials(params, -1, 0)


class TestFim:
    def test_noise_scaling(self, rng):
        params = random_params(rng)
        nu = np.full((6, 3), 0.8)
        info1 = fim(params, nu)
        info2 = fim(params, 4.0 * nu)
        np.testing.assert_allclose(info2, info1 / 4.0, rtol=1e-12)
        crb1 = crb_frequencies(params, nu)
        crb2 = crb_frequencies(params, 4.0 * nu)
        np.testing.assert_allclose(crb2, 4.0 * crb1, rtol=1e-9)

    def test_single_tone_frequency_entry(self):
        # K=1, L=1, unit amplitude, zero phase, unit variance:
        # the frequency-frequency entry is 2 * sum_m m^2 = M(M-1)(2M-1)/3
        M = 9
        params = CrbParameterization(omegas=np.array([0.7]), g=np.ones((1, 1)), phi=np.zeros((1, 1)))
        info = fim(params, np.ones((M, 1)))
        expected = M * (M - 1) * (2 * M - 1) / 3
        assert info[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_exact_symmetry(self, rng):
        info = fim(random_params(rng), np.full((5, 3), 1.3))
        assert np.array_equal(info, info.T)

    def test_positive_semidefinite(self, rng):
        info = fim(random_params(rng), np.full((8, 3), 0.5))
        eigs = np.linalg.eigvalsh(info)
        assert eigs.min() >= -1e-9 * np.abs(info).max()

    def test_nonpositive_variance_rejected(self, rng):
        with pytest.raises(ValueError):
            fim(random_params(rng), np.zeros((4, 3)))


class TestCrbFrequencies:
    def test_constant_grid_equals_structured_specialization(self, rng):
        # Cases I-III are the Case IV formula with a replicated grid
        params = random_params(rng)
        nu_scalar = 0.9
        grid = np.full((7, 3), nu_scalar)
        per_snapshot = np.broadcast_to(np.array([0.9, 0.9, 0.9]), (7, 3))
        assert np.array_equal(crb_frequencies(params, grid), crb_frequencies(params, per_snapshot))

    def test_bound_shrinks_with_more_antennas(self, rng):
        params = CrbParameterization(omegas=np.array([0.4]), g=np.ones((1, 2)), phi=np.zeros((1, 2)))
        diag = [crb_frequencies(params, np.ones((M, 2)))[0, 0] for M in (8, 16, 32)]
        assert diag[0] > diag[1] > diag[2]

    def test_inverse_contract(self, rng):
        params = random_params(rng)
        nu = np.full((10, 3), 0.7)
        info = fim(params, nu)
        inv = np.linalg.inv(info)
        np.testing.assert_allclose(info @ inv, np.eye(info.shape[0]), atol=1e-8)
        np.testing.assert_allclose(crb_frequencies(params, nu), inv[:2, :2], atol=1e-10)

    def test_duplicate_frequencies_rejected(self):
        params = CrbParameterization(
            omegas=np.array([0.5, 0.5]), g=np.ones((2, 2)), phi=np.zeros((2, 2))
        )
        with pytest.raises(SingularFimError):
            crb_frequencies(params, np.ones((6, 2)))

    def test_zero_amplitude_rejected(self):
        params = CrbParameterization(
            omegas=np.array([0.5]), g=np.array([[1.0, 0.0]]), phi=np.zeros((1, 2))
        )
        with pytest.raises(SingularFimError, match="amplitude"):
            crb_frequencies(params, np.ones((6, 2)))


def noise_grids(rng, M, L):
    """One true variance grid per noise case I-IV."""
    return {
        "I": np.full((M, L), 0.7),
        "II": np.tile(rng.uniform(0.2, 2.0, size=(1, L)), (M, 1)),
        "III": np.tile(rng.uniform(0.2, 2.0, size=(M, 1)), (1, L)),
        "IV": rng.uniform(0.2, 2.0, size=(M, L)),
    }


class TestConcentratedForm:
    @pytest.mark.parametrize("K", [1, 3, 4])
    def test_matches_inverse_fim_block(self, rng, K):
        M, L = 12, 4
        omegas = np.linspace(-2.0, 2.0, K) + rng.uniform(-0.2, 0.2, size=K)
        params = CrbParameterization(omegas, rng.uniform(0.5, 2.0, size=(K, L)),
                                     rng.uniform(-np.pi, np.pi, size=(K, L)))
        for case, nu in noise_grids(rng, M, L).items():
            ref = np.linalg.inv(fim(params, nu))[:K, :K]
            np.testing.assert_allclose(crb_frequencies(params, nu), ref, rtol=1e-10,
                                       atol=1e-10 * np.abs(ref).max(), err_msg=f"case {case}")

    def test_single_source_closed_form(self, rng):
        M, L = 10, 5
        params = random_params(rng, K=1, L=L)
        x = params.g[0] * np.exp(1j * params.phi[0])
        m = np.arange(M, dtype=float)[:, None]
        for nu in noise_grids(rng, M, L).values():
            s0, s1, s2 = (1.0 / nu).sum(axis=0), (m / nu).sum(axis=0), (m * m / nu).sum(axis=0)
            expected = 1.0 / (2.0 * np.sum(np.abs(x) ** 2 * (s2 - s1 * s1 / s0)))
            assert crb_frequencies(params, nu)[0, 0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("spacing, rtol", [(0.1, 1e-11), (0.03, 1e-9), (0.01, 2e-7)])
    def test_closely_spaced_pair_matches_inverse_fim_block(self, rng, spacing, rtol):
        # The Schur complement G2 - G1^H G0^-1 G1 cancels as the pair closes in.  Each
        # rtol is ten times the largest error against inv(fim) of the bound evaluated with
        # an explicit projector P_l, over these cases and rng seeds 20240811, 1 and 2
        # (6.8e-13, 6.3e-11 and 1.2e-8 at the three spacings).
        M, L = 12, 4
        params = CrbParameterization(np.array([0.4, 0.4 + spacing]), rng.uniform(0.5, 2.0, size=(2, L)),
                                     rng.uniform(-np.pi, np.pi, size=(2, L)))
        for case, nu in noise_grids(rng, M, L).items():
            ref = np.linalg.inv(fim(params, nu))[:2, :2]
            np.testing.assert_allclose(crb_frequencies(params, nu), ref, rtol=0,
                                       atol=rtol * np.abs(ref).max(), err_msg=f"case {case}")

    def test_one_ill_conditioned_snapshot_rejected(self):
        # Snapshot 1 weights the low antennas by 100 dB over the high ones, so the pair is
        # resolved there by less than anywhere else.  Its steering Gram alone fails.
        M, L, d = 6, 3, 5e-3
        m = np.arange(M)
        nu = np.ones((M, L))
        nu[:, 1] = 10.0 ** (2 * m)
        params = CrbParameterization(np.array([0.5, 0.5 + d]), np.ones((2, L)), np.zeros((2, L)))
        # For K = 2 the Gram [[s0, c], [conj(c), s0]] has eigenvalues s0 +- |c|, and
        # s0^2 - |c|^2 = sum_mn w_m w_n 2 sin^2((m - n) d / 2) is free of cancellation.
        w = 1.0 / nu
        s0 = w.sum(axis=0)
        c = np.abs(np.exp(1j * m * d) @ w)
        det = np.einsum("ml,nl,mn->l", w, w, 2.0 * np.sin((m[:, None] - m[None, :]) * d / 2.0) ** 2)
        cond = (s0 + c) ** 2 / det
        assert cond[1] > GRAM_COND_LIMIT and cond[0] < GRAM_COND_LIMIT and cond[2] < GRAM_COND_LIMIT
        with pytest.raises(SingularFimError, match="steering Gram") as info:
            crb_frequencies(params, nu)
        reported = float(re.search(r"condition number (\S+) exceeds", str(info.value)).group(1))
        assert reported == pytest.approx(cond[1], rel=1e-3)

    @pytest.mark.parametrize("spacing, singular", [(1e-4, True), (1e-3, False)])
    def test_gram_limit_rejects_bounds_without_correct_digits(self, rng, spacing, singular):
        # At M = 32 a 1e-4 rad pair has a steering Gram near cond 5e6, where the Schur
        # complement keeps no correct digit; a 1e-3 rad pair (cond near 5e4) keeps about eight.
        M, L = 32, 8
        params = CrbParameterization(np.array([0.3, 0.3 + spacing]), np.ones((2, L)),
                                     rng.uniform(-np.pi, np.pi, size=(2, L)))
        nu = rng.uniform(0.5, 2.0, size=(M, L))
        if singular:
            with pytest.raises(SingularFimError, match="steering Gram condition number"):
                crb_frequencies(params, nu)
        else:
            assert np.all(np.isfinite(crb_frequencies(params, nu)))

    @pytest.mark.parametrize("name", ["cholesky", "solve"])
    def test_gram_factorization_failure_is_singular_fim_error(self, rng, monkeypatch, name):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, name, failing)
        with pytest.raises(SingularFimError, match="factorization failed"):
            crb_frequencies(random_params(rng), np.ones((6, 3)))

    def test_near_coincident_frequencies_rejected(self):
        params = CrbParameterization(
            omegas=np.array([0.5, 0.5 + 1e-9]), g=np.ones((2, 2)), phi=np.zeros((2, 2))
        )
        with pytest.raises(SingularFimError):
            crb_frequencies(params, np.ones((6, 2)))

    def test_factorization_failure_is_singular_fim_error(self, rng, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(SingularFimError, match="factorization"):
            crb_frequencies(random_params(rng), np.ones((6, 3)))

    def test_no_frequencies_is_singular_fim_error(self):
        params = CrbParameterization(omegas=np.zeros(0), g=np.zeros((0, 3)), phi=np.zeros((0, 3)))
        with pytest.raises(SingularFimError, match="no frequencies"):
            crb_frequencies(params, np.ones((6, 3)))

    def test_does_not_build_the_full_fim(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("full FIM built")

        monkeypatch.setattr("gdoa.crb.fim", forbidden)
        monkeypatch.setattr("gdoa.crb.signal_partials", forbidden)
        block = crb_frequencies(random_params(rng), np.ones((6, 3)))
        assert block.shape == (2, 2)
