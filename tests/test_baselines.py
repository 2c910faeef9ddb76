import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa.baselines import AngularGrid, cbf_spectrum
from gdoa.model import steering_vector, theta_to_omega


class TestAngularGrid:
    def test_default_density(self):
        grid = AngularGrid.uniform(361)
        assert grid.thetas[0] == -90.0 and grid.thetas[-1] == 90.0
        assert np.allclose(np.diff(grid.thetas), 0.5)

    def test_omegas(self):
        grid = AngularGrid.uniform(5)
        np.testing.assert_allclose(grid.omegas, np.pi * np.sin(np.deg2rad(grid.thetas)))

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            AngularGrid(thetas=np.array([0.0, 1.0, 3.0]))

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            AngularGrid.uniform(1)


class TestCbfSpectrum:
    def test_single_source_peaks_at_truth(self):
        M, L = 20, 4
        theta = -30.0
        a = steering_vector(theta_to_omega(theta), M)
        Y = np.outer(a, np.ones(L))
        grid = AngularGrid.uniform(361)
        power = cbf_spectrum(Y, grid)
        assert grid.thetas[int(np.argmax(power))] == pytest.approx(theta)
        # unit-amplitude source reads ~1 at its bearing (1/M^2 scaling)
        assert power.max() == pytest.approx(1.0, rel=1e-12)

    def test_white_noise_is_flat_on_average(self):
        M, L = 16, 8
        grid = AngularGrid.uniform(181)
        acc = np.zeros(181)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            Y = (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))) / np.sqrt(2)
            acc += cbf_spectrum(Y, grid)
        mean_power = acc / 1000
        assert np.abs(mean_power / mean_power.mean() - 1.0).max() <= 0.10

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        assert np.all(cbf_spectrum(Y, AngularGrid.uniform(61)) >= 0.0)

    @given(phase=st.floats(-np.pi, np.pi))
    @settings(max_examples=25, deadline=None)
    def test_common_phase_rotation_invariance(self, phase):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        grid = AngularGrid.uniform(61)
        base = cbf_spectrum(Y, grid)
        rotated = cbf_spectrum(np.exp(1j * phase) * Y, grid)
        np.testing.assert_allclose(rotated, base, rtol=1e-10)
