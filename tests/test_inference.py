import dataclasses

import numpy as np
import pytest

from conftest import dense_covs, eigen_posterior, full_gram, random_moments, random_variances, support_vec
from gdoa import inference
from gdoa.circular import VonMises, approximate_posterior, moment_vector
from gdoa.inference import (
    INIT_NOISE_FRACTION,
    EstimationResult,
    HyperParams,
    InferenceState,
    NoiseEstimate,
    _sweep_terms,
    init_state,
    noise_cell_quantities,
    run,
    update_frequencies,
    update_hyperparams,
    update_noise,
    update_weights_support,
)
from gdoa.model import NoiseCase, ScenarioConfig, steering_matrix, steering_vector, synthesize_scene
from gdoa.support_search import (
    SupportState,
    compute_jh,
    ln_z,
    make_workspace,
)


def sweep_eta(state, Y, i):
    """Coefficient of active component i as one frequency sweep forms it from its shared terms."""
    S = state.support.active_set
    B, U = _sweep_terms(state, Y)
    p = S.index(i)
    return 2.0 * (B[:, p] - (state.moments[:, list(S)] * U[:, :, p]).sum(axis=1))


def make_state(rng, M=6, N=6, L=2, active=(1, 3), case=NoiseCase.IV, nu=None):
    """Hand-built valid state with random posteriors around a random support."""
    nu = random_variances(rng, M, L) if nu is None else nu
    k = len(active)
    moments = random_moments(rng, M, N)
    covs = np.zeros((L, k, k), dtype=complex)
    for l in range(L):
        B = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        covs[l] = B @ B.conj().T / 10 + np.eye(k) * 0.05
    means = rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))
    if case is NoiseCase.I:
        values = float(nu.mean())
    elif case is NoiseCase.II:
        values = nu.mean(axis=0)
    elif case is NoiseCase.III:
        values = nu.mean(axis=1)
    else:
        values = nu
    return InferenceState(
        posteriors=[VonMises(float(m), 50.0) for m in rng.uniform(-3, 3, N)],
        moments=moments,
        support=SupportState.from_indices(N, active),
        weight_means=means,
        weight_posterior=eigen_posterior(covs),
        hyper=HyperParams(rho=0.3, tau=1.5),
        noise=NoiseEstimate(case=case, values=values),
        noise_floor=1e-15,
    )


def eta_oracle(state, Y, i):
    """Line-by-line transcription of the frequency-update coefficient formula."""
    S = list(state.support.active_set)
    p = S.index(i)
    M, L = Y.shape
    grid = np.broadcast_to(state.noise.compact_grid(M, L), (M, L))
    C = dense_covs(state.weight_posterior)
    eta = np.zeros(M, dtype=complex)
    for l in range(L):
        sigma_inv = np.diag(1.0 / grid[:, l])
        resid = Y[:, l].copy()
        for q, j in enumerate(S):
            if j != i:
                resid -= state.moments[:, j] * state.weight_means[q, l]
        cov = np.zeros(M, dtype=complex)
        for q, j in enumerate(S):
            if j != i:
                cov += C[l][q, p] * state.moments[:, j]
        eta += 2.0 * sigma_inv @ (resid * np.conj(state.weight_means[p, l]) - cov)
    return eta


class TestInitState:
    def test_zero_matrix_safe(self):
        state = init_state(np.zeros((6, 3), dtype=complex), 4, NoiseCase.I)
        assert np.all(np.atleast_1d(state.noise.values) > 0)
        assert all(np.isfinite(p.kappa) for p in state.posteriors)
        assert state.support.size == 0

    def test_single_source_seed_matches_periodogram(self):
        M, L = 16, 6
        omega = 0.83
        rng = np.random.default_rng(3)
        X = np.ones((1, L), dtype=complex)
        Y = np.outer(steering_vector(omega, M), X[0]) + 0.05 * (
            rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        )
        state = init_state(Y, 8, NoiseCase.I)
        # oracle: dense unweighted periodogram argmax (constant init variances)
        G = 1 << 20
        spectrum = (np.abs(np.fft.fft(Y, n=G, axis=0)) ** 2).sum(axis=1)
        w_star = 2 * np.pi * np.argmax(spectrum) / G
        first = state.posteriors[0].mu
        assert abs(np.angle(np.exp(1j * (first - w_star)))) < np.pi / M
        assert abs(np.angle(np.exp(1j * (first - omega)))) < np.pi / M

    def test_invariants(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        state = init_state(Y, 10, NoiseCase.II)
        assert np.all(np.abs(state.moments) <= 1.0 + 1e-12)
        assert state.weight_means.shape == (0, 4)
        assert 0 < state.hyper.rho < 1 and state.hyper.tau > 0

    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_seeds_match_weighted_periodogram(self, case):
        rng = np.random.default_rng(21)
        M, L = 12, 5
        X = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
        Y = steering_matrix([-0.7, 0.4, 1.9], M) @ X + 0.3 * (
            rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
        state = init_state(Y, M, case)
        assert dense_covs(state.weight_posterior).shape == (L, 0, 0)
        # the seeding written with the inverse-variance weights of the uniform start nu0
        weights_inv = np.full((M, L), 1.0 / (INIT_NOISE_FRACTION * np.mean(np.abs(Y) ** 2)))
        tr_inv = weights_inv.sum(axis=0)
        G = 256  # next power of two >= 16 * M
        residual = Y.copy()
        for i in range(M):
            WR = weights_inv * residual
            spectra = np.fft.fft(WR, n=G, axis=0)
            power = (np.abs(spectra) ** 2 / tr_inv).sum(axis=1)
            x_hat = spectra[np.argmax(power)] / tr_inv
            vm = approximate_posterior(2.0 * (WR * np.conj(x_hat)).sum(axis=1))
            got = state.posteriors[i]
            assert abs(np.angle(np.exp(1j * (got.mu - vm.mu)))) <= 1e-9
            assert got.kappa == pytest.approx(vm.kappa, rel=1e-9)
            a = moment_vector(vm, M)
            np.testing.assert_allclose(state.moments[:, i], a, atol=1e-9)
            residual = residual - np.outer(a, x_hat)

    def test_seeds_match_weighted_periodogram_at_width(self, monkeypatch):
        # M=64, L=100 and 60 dB between the strongest and the weakest source.  Each
        # seed's coefficient is checked against a fresh FFT periodogram of the
        # residual the state's earlier seeds leave, so a drifting running
        # periodogram shows as another bin and an O(1) change of eta.  The
        # coefficient is what is compared: the kappa fitted to a noise-level seed
        # moves by ~1e-9 under last-bit changes of eta (approximate_posterior's
        # Newton stop), whichever way the seeding rounds.
        rng = np.random.default_rng(22)
        M, L = 64, 100
        amplitudes = 10.0 ** (-np.array([0.0, 20.0, 40.0, 60.0]) / 20.0)
        X = amplitudes[:, None] * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4, L)))
        Y = steering_matrix([-2.2, -0.5, 0.9, 2.0], M) @ X + 1e-4 * (
            rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
        etas = []
        monkeypatch.setattr(inference, "approximate_posterior",
                            lambda eta: (etas.append(np.array(eta)), approximate_posterior(eta))[1])
        state = init_state(Y, M, NoiseCase.II)
        assert len(etas) == M
        weights_inv = np.full((M, L), 1.0 / (INIT_NOISE_FRACTION * np.mean(np.abs(Y) ** 2)))
        tr_inv = weights_inv.sum(axis=0)
        G = 1024  # next power of two >= 16 * M
        residual = Y.copy()
        for i in range(M):
            WR = weights_inv * residual
            spectra = np.fft.fft(WR, n=G, axis=0)
            x_hat = spectra[np.argmax((np.abs(spectra) ** 2 / tr_inv).sum(axis=1))] / tr_inv
            want = 2.0 * (WR * np.conj(x_hat)).sum(axis=1)
            np.testing.assert_allclose(etas[i], want, rtol=0, atol=1e-12 * np.abs(want).max())
            residual = residual - np.outer(state.moments[:, i], x_hat)

    def test_budget_validation(self):
        Y = np.zeros((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            init_state(Y, 5, NoiseCase.I)
        with pytest.raises(ValueError):
            init_state(Y, 0, NoiseCase.I)


class TestFrequencyEta:
    def test_matches_straight_line_oracle(self, rng):
        state = make_state(rng)
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        for i in state.support.active_set:
            got = sweep_eta(state, Y, i)
            want = eta_oracle(state, Y, i)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_case_structure_irrelevant_for_constant_grid(self, rng):
        nu = np.full((6, 2), 0.7)
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        state_i = make_state(np.random.default_rng(42), case=NoiseCase.I, nu=nu)
        state_i.noise = NoiseEstimate(case=NoiseCase.I, values=0.7)
        state_iv = make_state(np.random.default_rng(42), case=NoiseCase.IV, nu=nu)
        for i in (1, 3):
            np.testing.assert_array_equal(sweep_eta(state_i, Y, i), sweep_eta(state_iv, Y, i))

    def test_selfconsistent_fixed_point(self):
        # one active component, exact data: the posterior mode must sit at omega0
        M, omega0 = 12, -0.4
        a = steering_vector(omega0, M)
        x = 2.0 + 0.5j
        Y = np.outer(a, [x])
        state = InferenceState(
            posteriors=[VonMises(omega0, 1e6)],
            moments=a.reshape(-1, 1) * 1.0,
            support=SupportState.from_indices(1, (0,)),
            weight_means=np.array([[x]]),
            weight_posterior=eigen_posterior(np.zeros((1, 1, 1), dtype=complex)),
            hyper=HyperParams(rho=0.5, tau=1.0),
            noise=NoiseEstimate(case=NoiseCase.I, values=0.01),
            noise_floor=1e-12,
        )
        eta = sweep_eta(state, Y, 0)
        np.testing.assert_allclose(eta, 2.0 / 0.01 * a * abs(x) ** 2, rtol=1e-12)
        update_frequencies(state, Y)
        assert state.posteriors[0].mu == pytest.approx(omega0, abs=1e-9)

    def test_inactive_untouched(self, rng):
        state = make_state(rng)
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        before = [state.posteriors[i] for i in range(6)]
        update_frequencies(state, Y)
        for i in range(6):
            if i not in state.support.active_set:
                assert state.posteriors[i] is before[i]


class TestSequentialSweep:
    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_each_coefficient_matches_the_oracle_on_the_state_of_its_moment(self, rng, monkeypatch, case):
        M, L = 8, 5
        state = make_state(rng, M=M, N=M, L=L, active=(0, 2, 5), case=case)
        X = 3.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, L)))
        Y = state.moments[:, [0, 2, 5]] @ X + 0.1 * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
        update_weights_support(state, Y)
        S = list(state.support.active_set)
        k = len(S)
        assert k >= 2
        assert dense_covs(state.weight_posterior).shape == (L, k, k)
        assert state.weight_posterior.V.shape == ((L if case is NoiseCase.IV else 1), k, k)
        before = state.moments.copy()
        seen = []

        def recording(eta):
            # eta_oracle reads the moments as they stand now: predecessors already refreshed
            seen.append((np.array(eta), eta_oracle(state, Y, S[len(seen)])))
            return approximate_posterior(eta)

        monkeypatch.setattr(inference, "approximate_posterior", recording)
        update_frequencies(state, Y)
        assert len(seen) == k
        for got, want in seen:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert not np.allclose(state.moments[:, S], before[:, S], rtol=0, atol=1e-6)


class TestWeightSupportUpdate:
    def test_posteriors_match_direct_formula(self, rng):
        state = make_state(rng, M=8, N=8, L=3, active=(0, 2))
        Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        update_weights_support(state, Y)
        S = list(state.support.active_set)
        J, H = compute_jh(state.moments, np.broadcast_to(state.noise.compact_grid(8, 3), (8, 3)), Y)
        G = full_gram(J)
        for l in range(3):
            A = G[l][np.ix_(S, S)] + np.eye(len(S)) / state.hyper.tau
            C_ref = np.linalg.inv(A)
            np.testing.assert_allclose(dense_covs(state.weight_posterior)[l], C_ref, atol=1e-10)
            np.testing.assert_allclose(state.weight_means[:, l], C_ref @ H[S, l], atol=1e-10)

    def test_score_never_decreases(self, rng):
        state = make_state(rng, M=8, N=8, L=3, active=(0, 2))
        Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        J, H = compute_jh(state.moments, np.broadcast_to(state.noise.compact_grid(8, 3), (8, 3)), Y)
        ws = make_workspace(J, H, state.hyper.rho, state.hyper.tau)
        before = ln_z(support_vec(8, state.support.active_set), ws)
        update_weights_support(state, Y)
        after = ln_z(support_vec(8, state.support.active_set), ws)
        assert after >= before - 1e-9


class TestSeparableEigenbasis:
    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_updates_match_the_dense_per_snapshot_formulas(self, rng, case):
        M, L = 8, 5
        for _ in range(5):
            state = make_state(rng, M=M, N=M, L=L, active=(0, 2, 5), case=case)
            X = 3.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, L)))
            Y = state.moments[:, [0, 2, 5]] @ X + 0.1 * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
            tau0 = state.hyper.tau
            update_weights_support(state, Y)
            S = list(state.support.active_set)
            k = len(S)
            post = state.weight_posterior
            if case is NoiseCase.IV:   # one eigenbasis per snapshot
                assert k and post.V.shape == (L, k, k) and post.d.shape == (L, k)
            else:                      # one eigenbasis for all snapshots
                assert k and post.V.shape == (1, k, k) and post.d.shape == (L, k)
            C = dense_covs(post)
            assert C.shape == (L, k, k)
            J, H = compute_jh(state.moments, np.broadcast_to(state.noise.compact_grid(M, L), (M, L)), Y)
            G = full_gram(J)
            C_ref = np.array([np.linalg.inv(G[l][np.ix_(S, S)] + np.eye(k) / tau0) for l in range(L)])
            for l in range(L):
                np.testing.assert_allclose(C[l], C_ref[l], rtol=0, atol=1e-10 * np.abs(C_ref[l]).max())
                np.testing.assert_allclose(state.weight_means[:, l], C_ref[l] @ H[S, l], rtol=0,
                                           atol=1e-10 * np.abs(C_ref[l] @ H[S, l]).max())
            # the two readings that nothing else compares with the dense inverses: Q and sum_l ln det C_l
            W = np.broadcast_to(1.0 / state.noise.compact_grid(M, L), (M, L))
            Q_ref = np.einsum("ml,lij->mij", W, C_ref)
            np.testing.assert_allclose(post.weighted_sum(W), Q_ref, rtol=0, atol=1e-10 * np.abs(Q_ref).max())
            lndet_ref = np.linalg.slogdet(C_ref)[1].sum()
            assert abs(post.ln_det() - lndet_ref) <= 1e-10 * max(1.0, abs(lndet_ref))
            dense = dataclasses.replace(state, weight_posterior=eigen_posterior(C))

            def close(got, want):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

            close(noise_cell_quantities(state, Y), noise_cell_quantities(dense, Y))
            for i in S:
                close(sweep_eta(state, Y, i), eta_oracle(dense, Y, i))
            update_hyperparams(state)
            energy = np.sum(np.abs(state.weight_means) ** 2)
            close(state.hyper.tau, (energy + sum(np.trace(C[l]).real for l in range(L))) / (L * k))

    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_no_case_runs_a_cholesky(self, monkeypatch, case):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        cfg = ScenarioConfig(M=10, L=4, K=2, true_omegas=(-0.6, 1.3), snr_db=15.0,
                             delta_nu_db=0.0 if case is NoiseCase.I else 10.0, noise_case=case, seed=5)
        _, snap = synthesize_scene(cfg)
        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert run(snap, case=case).k_hat == 2


class TestHyperUpdate:
    def test_full_support_clamps_rho(self, rng):
        state = make_state(rng, active=(0, 1, 2, 3, 4, 5))
        update_hyperparams(state)
        assert state.hyper.rho == pytest.approx(1 - 1 / 6)

    def test_constant_magnitude_tau(self, rng):
        g = 1.7
        state = make_state(rng, active=(2,))
        state.weight_means = np.full((1, 2), g, dtype=complex)
        state.weight_posterior = eigen_posterior(np.zeros((2, 1, 1), dtype=complex))
        update_hyperparams(state)
        assert state.hyper.tau == pytest.approx(g**2, rel=1e-12)

    def test_matches_formula(self, rng):
        state = make_state(rng)
        energy = np.sum(np.abs(state.weight_means) ** 2)
        trace = sum(np.trace(dense_covs(state.weight_posterior)[l]).real for l in range(2))
        expected = (energy + trace) / (2 * 2)
        update_hyperparams(state)
        assert state.hyper.tau == pytest.approx(expected, rel=1e-12)
        assert state.hyper.rho == pytest.approx(2 / 6, rel=1e-12)

    def test_empty_support_keeps_tau(self, rng):
        state = make_state(rng, active=())
        state.weight_means = np.zeros((0, 2), dtype=complex)
        state.weight_posterior = eigen_posterior(np.zeros((2, 0, 0), dtype=complex))
        tau0 = state.hyper.tau
        update_hyperparams(state)
        assert state.hyper.tau == tau0
        assert state.hyper.rho == pytest.approx(1 / 6)


class TestNoiseEstimate:
    @pytest.mark.parametrize("case, bad", [
        (NoiseCase.I, np.ones(3)),
        (NoiseCase.II, np.ones(6)),
        (NoiseCase.III, np.ones(3)),
        (NoiseCase.IV, np.ones((3, 6))),
    ])
    def test_full_grid_rejects_wrong_shape(self, case, bad):
        with pytest.raises(ValueError, match=f"Case {case.value} expects .* got shape"):
            NoiseEstimate(case=case, values=bad).compact_grid(6, 3)


class TestNoiseUpdate:
    def test_perfect_fit_floors(self):
        # exact steering moments (|entries| = 1), zero covariance, exact fit
        M, L, omega = 6, 3, 0.9
        a = steering_vector(omega, M)
        x = np.ones((1, L), dtype=complex)
        Y = np.outer(a, x[0])
        state = InferenceState(
            posteriors=[VonMises(omega, np.inf)],
            moments=a.reshape(-1, 1).copy(),
            support=SupportState.from_indices(1, (0,)),
            weight_means=x,
            weight_posterior=eigen_posterior(np.zeros((L, 1, 1), dtype=complex)),
            hyper=HyperParams(rho=0.5, tau=1.0),
            noise=NoiseEstimate(case=NoiseCase.IV, values=np.ones((M, L))),
            noise_floor=1e-10,
        )
        update_noise(state, Y)
        np.testing.assert_allclose(state.noise.values, 1e-10, rtol=1e-6)

    def test_empty_support_gives_sample_power(self, rng):
        state = make_state(rng, active=())
        state.weight_means = np.zeros((0, 2), dtype=complex)
        state.weight_posterior = eigen_posterior(np.zeros((2, 0, 0), dtype=complex))
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        cell = noise_cell_quantities(state, Y)
        np.testing.assert_array_equal(cell, np.abs(Y) ** 2)

    def test_reduction_identities(self, rng):
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        ref_state = make_state(np.random.default_rng(42), case=NoiseCase.IV)
        cell = noise_cell_quantities(ref_state, Y)
        for case, reducer in [
            (NoiseCase.I, lambda c: c.mean()),
            (NoiseCase.II, lambda c: c.mean(axis=0)),
            (NoiseCase.III, lambda c: c.mean(axis=1)),
            (NoiseCase.IV, lambda c: c),
        ]:
            state = make_state(np.random.default_rng(42), case=case)
            update_noise(state, Y)
            expected = reducer(cell)
            np.testing.assert_allclose(np.asarray(state.noise.values), expected, rtol=1e-12)

    def test_floor_enforced(self, rng):
        state = make_state(rng)
        state.noise_floor = 10.0  # absurd floor to force the clamp
        Y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        update_noise(state, Y)
        assert np.all(np.asarray(state.noise.values) >= 10.0)


class TestRun:
    def test_noiseless_single_source(self):
        cfg = ScenarioConfig(M=16, L=8, K=1, true_omegas=(0.7,), snr_db=np.inf,
                             delta_nu_db=0.0, noise_case=NoiseCase.I, seed=5)
        scene, snap = synthesize_scene(cfg)
        result = run(snap, case=NoiseCase.I)
        assert result.k_hat == 1
        rel = np.linalg.norm(result.signal - scene.clean_signal) / np.linalg.norm(scene.clean_signal)
        assert rel <= 1e-3

    def test_deterministic(self):
        cfg = ScenarioConfig(M=12, L=4, K=2, true_omegas=(-0.6, 1.2), snr_db=10.0,
                             delta_nu_db=6.0, noise_case=NoiseCase.II, seed=21)
        _, snap = synthesize_scene(cfg)
        r1 = run(snap, case=NoiseCase.II)
        r2 = run(snap, case=NoiseCase.II)
        assert r1.omegas.tobytes() == r2.omegas.tobytes()
        assert r1.weights.tobytes() == r2.weights.tobytes()
        assert r1.signal.tobytes() == r2.signal.tobytes()
        assert r1.iterations == r2.iterations

    def test_reconstruction_identity(self):
        cfg = ScenarioConfig(M=14, L=5, K=2, true_omegas=(0.3, -1.5), snr_db=12.0,
                             delta_nu_db=0.0, noise_case=NoiseCase.I, seed=13)
        _, snap = synthesize_scene(cfg)
        result = run(snap, case=NoiseCase.I)
        A = np.column_stack([moment_vector(VonMises(m, k), 14)
                             for m, k in zip(result.omegas, result.kappas)])
        np.testing.assert_allclose(result.signal, A @ result.weights, atol=1e-14)

    def test_nonfinite_input_rejected(self):
        Y = np.zeros((4, 2), dtype=complex)
        Y[0, 0] = np.inf
        with pytest.raises(ValueError):
            run(Y)

    def test_budget_too_large_rejected(self):
        with pytest.raises(ValueError):
            run(np.zeros((4, 2), dtype=complex), n_components=5)

    def test_result_fields(self):
        cfg = ScenarioConfig(M=10, L=3, K=1, true_omegas=(1.0,), snr_db=20.0,
                             delta_nu_db=0.0, noise_case=NoiseCase.I, seed=2)
        _, snap = synthesize_scene(cfg)
        result = run(snap, case=NoiseCase.I)
        assert isinstance(result, EstimationResult)
        assert result.k_hat == len(result.omegas) == len(result.kappas)
        assert result.weights.shape == (result.k_hat, 3)
        assert result.signal.shape == (10, 3)
        assert result.converged
