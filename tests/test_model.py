import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa.model import (
    AmplitudeLaw,
    NoiseCase,
    ScenarioConfig,
    SnapshotMatrix,
    nominal_noise_variance,
    omega_to_theta,
    steering_matrix,
    steering_vector,
    synthesize_noise_variances,
    synthesize_scene,
    theta_to_omega,
)


def make_config(**overrides):
    base = dict(M=20, L=10, K=3, true_omegas=(-0.1, 0.5, 2.1), snr_db=5.0,
                delta_nu_db=15.0, noise_case=NoiseCase.II, seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestSteeringVector:
    def test_omega_zero_is_all_ones(self):
        assert np.array_equal(steering_vector(0.0, 4), np.ones(4, dtype=complex))

    def test_pi_two_elements(self):
        np.testing.assert_allclose(steering_vector(np.pi, 2), [1.0, -1.0], atol=1e-15)

    def test_half_rad_phases(self):
        a = steering_vector(0.5, 3)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)
        np.testing.assert_allclose(np.angle(a), [0.0, 0.5, 1.0], atol=1e-15)

    def test_zero_antennas_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(0.3, 0)

    def test_nonfinite_omega_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(np.inf, 4)

    @given(omega=st.floats(-np.pi, np.pi), M=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_unit_magnitude(self, omega, M):
        assert np.all(np.abs(np.abs(steering_vector(omega, M)) - 1.0) <= 1e-15)


class TestAngleConversion:
    def test_thirty_degrees(self):
        assert theta_to_omega(30.0) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_zero(self):
        assert theta_to_omega(0.0) == 0.0

    def test_minus_ninety(self):
        assert theta_to_omega(-90.0) == pytest.approx(-np.pi, abs=1e-12)

    @given(omega=st.floats(-np.pi, np.pi))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, omega):
        assert theta_to_omega(omega_to_theta(omega)) == pytest.approx(omega, abs=1e-12)

    @given(theta=st.floats(-90.0, 90.0))
    @settings(max_examples=100, deadline=None)
    def test_theta_round_trip(self, theta):
        # the inverse direction is 1/cos(theta)-conditioned and sin() saturates
        # within ~1e-7 deg of the endfire bearings, so the attainable absolute
        # accuracy is ~1e-6 deg there
        assert omega_to_theta(theta_to_omega(theta)) == pytest.approx(theta, abs=2e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_to_omega(90.5)
        with pytest.raises(ValueError):
            omega_to_theta(np.pi + 1e-6)


class TestNoiseVariances:
    def test_case_i_constant_from_snr(self, rng):
        cfg = make_config(noise_case=NoiseCase.I, delta_nu_db=0.0)
        clean = np.ones((cfg.M, cfg.L), dtype=complex)
        grid = synthesize_noise_variances(cfg, rng, clean)
        nu0 = nominal_noise_variance(clean, cfg.snr_db)
        assert np.all(grid == nu0)
        # definition check: SNR == 10 log10(||Z||^2 / (nu0 M L))
        snr = 10 * np.log10(np.sum(np.abs(clean) ** 2) / (nu0 * cfg.M * cfg.L))
        assert snr == pytest.approx(cfg.snr_db, abs=1e-12)

    def test_case_ii_ties_antennas(self, rng):
        cfg = make_config(noise_case=NoiseCase.II)
        grid = synthesize_noise_variances(cfg, rng, np.ones((cfg.M, cfg.L), dtype=complex))
        assert np.array_equal(grid, np.broadcast_to(grid[0, :], grid.shape))
        assert len(np.unique(grid[0])) == cfg.L  # snapshots do vary

    def test_case_iii_ties_snapshots(self, rng):
        cfg = make_config(noise_case=NoiseCase.III)
        grid = synthesize_noise_variances(cfg, rng, np.ones((cfg.M, cfg.L), dtype=complex))
        assert np.array_equal(grid, np.broadcast_to(grid[:, :1], grid.shape))

    def test_case_iv_db_mean(self, rng):
        # mean of Uniform(a, a+15) is a+7.5; >= 1e5 cells pins the sample mean
        cfg = ScenarioConfig(M=250, L=400, K=0, true_omegas=(), snr_db=5.0,
                             delta_nu_db=15.0, noise_case=NoiseCase.IV, seed=3)
        clean = np.zeros((cfg.M, cfg.L), dtype=complex)
        grid = synthesize_noise_variances(cfg, rng, clean)
        nu0_db = 10 * np.log10(nominal_noise_variance(clean, cfg.snr_db))
        assert 10 * np.log10(grid).mean() == pytest.approx(nu0_db + 7.5, abs=0.1)

    def test_case_i_draws_nothing(self):
        cfg = make_config(noise_case=NoiseCase.I, delta_nu_db=0.0)
        rng = cfg.rng()
        synthesize_noise_variances(cfg, rng, np.ones((cfg.M, cfg.L), dtype=complex))
        assert rng.standard_normal() == cfg.rng().standard_normal()

    def test_shape_mismatch_rejected(self, rng):
        cfg = make_config()
        with pytest.raises(ValueError):
            synthesize_noise_variances(cfg, rng, np.ones((3, 3), dtype=complex))


class TestSceneSynthesis:
    def test_noiseless_sentinel(self):
        cfg = make_config(noise_case=NoiseCase.I, delta_nu_db=0.0, snr_db=np.inf)
        scene, snap = synthesize_scene(cfg)
        assert np.array_equal(snap.data, scene.clean_signal)
        assert np.all(scene.noise_variances == 0.0)

    def test_no_sources_is_pure_noise(self):
        cfg = make_config(K=0, true_omegas=())
        scene, snap = synthesize_scene(cfg)
        assert np.all(scene.clean_signal == 0.0)
        assert np.any(snap.data != 0.0)

    def test_dimensions(self):
        scene, snap = synthesize_scene(make_config())
        assert snap.data.shape == (20, 10)
        assert scene.weights.shape == (3, 10)
        assert scene.noise_variances.shape == (20, 10)

    def test_seed_reproducibility(self):
        cfg = make_config(seed=99)
        s1, y1 = synthesize_scene(cfg)
        s2, y2 = synthesize_scene(cfg)
        assert y1.data.tobytes() == y2.data.tobytes()
        assert s1.noise_variances.tobytes() == s2.noise_variances.tobytes()

    def test_clean_signal_definition(self):
        scene, _ = synthesize_scene(make_config())
        rebuilt = steering_matrix(scene.omegas, 20) @ scene.weights
        np.testing.assert_allclose(scene.clean_signal, rebuilt, rtol=0, atol=1e-13)

    def test_magnitudes_positive(self):
        cfg = make_config(amplitude_law=AmplitudeLaw(mag_mean=0.05, mag_std=0.5), seed=11)
        scene, _ = synthesize_scene(cfg)  # frequent redraws, must all end positive
        assert np.all(np.abs(scene.weights) > 0)

    def test_empirical_noise_power(self):
        # mean over seeds of |W|^2 / nu must sit near 1 for every cell
        trials = 10_000
        ratios = np.zeros((2, 2))
        for s in range(trials):
            cfg = ScenarioConfig(M=2, L=2, K=1, true_omegas=(0.7,), snr_db=3.0,
                                 delta_nu_db=9.0, noise_case=NoiseCase.IV, seed=s)
            scene, snap = synthesize_scene(cfg)
            w = snap.data - scene.clean_signal
            ratios += np.abs(w) ** 2 / scene.noise_variances
        np.testing.assert_allclose(ratios / trials, 1.0, rtol=0.05)


class TestConfigValidation:
    def test_too_many_sources(self):
        with pytest.raises(ValueError):
            make_config(M=2, K=3, true_omegas=(0.1, 0.2, 0.3))

    def test_duplicate_frequencies(self):
        with pytest.raises(ValueError):
            make_config(true_omegas=(0.5, 0.5, 2.1))

    def test_case_i_requires_zero_fluctuation(self):
        with pytest.raises(ValueError):
            make_config(noise_case=NoiseCase.I, delta_nu_db=15.0)

    def test_snapshot_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(data=np.array([[np.nan + 0j]]))
