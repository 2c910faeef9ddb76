import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive

import circular_reference
import gdoa
from gdoa.circular import (
    VonMises,
    _plan,
    _series_basis,
    _series_eval,
    approximate_posterior,
    bessel_ratio,
    moment_vector,
    wrap_angle,
)


def bessel_series(x: float, m: int) -> float:
    """Power-series oracle for I_m(x), summed to machine precision."""
    term = (x / 2.0) ** m / math.factorial(m)
    total = term
    t = 0
    while True:
        t += 1
        term *= (x / 2.0) ** 2 / (t * (t + m))
        total += term
        if term < 1e-18 * total:
            return total


def bessel_ratio_asymptotic(order: np.ndarray, kappa: float) -> np.ndarray:
    """Oracle for large kappa: ratio of the large-argument expansions of I_m and I_0.

    Three terms each; the relative error is O((m^2/kappa)^4), below 1e-13
    for m <= 128 once kappa >= 1e7.
    """
    mu = 4.0 * order.astype(float) ** 2
    z8 = 8.0 * kappa
    num = (1.0
           - (mu - 1.0) / z8
           + (mu - 1.0) * (mu - 9.0) / (2.0 * z8**2)
           - (mu - 1.0) * (mu - 9.0) * (mu - 25.0) / (6.0 * z8**3))
    den = 1.0 + 1.0 / z8 + 9.0 / (2.0 * z8**2) + 225.0 / (6.0 * z8**3)
    return num / den


def vm_moment_quadrature(mu: float, kappa: float, m: int) -> complex:
    """E[exp(1j*m*omega)] under a von Mises law by adaptive quadrature.

    Uses the overflow-safe scaled density exp(kappa*(cos(w-mu)-1)).
    """
    norm = 2.0 * np.pi * ive(0, kappa)
    re = quad(lambda w: np.cos(m * w) * np.exp(kappa * (np.cos(w - mu) - 1.0)),
              mu - np.pi, mu + np.pi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    im = quad(lambda w: np.sin(m * w) * np.exp(kappa * (np.cos(w - mu) - 1.0)),
              mu - np.pi, mu + np.pi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    return (re + 1j * im) / norm


class TestBesselRatio:
    def test_zero_kappa_first_order(self):
        assert bessel_ratio(0.0, 1) == 0.0

    def test_identity_order(self):
        assert bessel_ratio(0.0, 0) == 1.0

    def test_against_series_oracle(self):
        oracle = bessel_series(2.0, 1) / bessel_series(2.0, 0)
        assert bessel_ratio(2.0, 1) == pytest.approx(oracle, rel=1e-12)
        assert bessel_ratio(2.0, 1) == pytest.approx(0.6978, abs=1e-4)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            bessel_ratio(-1.0, 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_ratio(1.0, -1)

    @given(kappa=st.floats(0.0, 1e6), m=st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_bounded(self, kappa, m):
        r = bessel_ratio(kappa, m)
        assert 0.0 <= r <= 1.0

    def test_monotone_in_kappa(self):
        kappas = np.logspace(-3, 8, 60)
        for m in (1, 2, 7, 31):
            vals = np.array([bessel_ratio(k, m) for k in kappas])
            assert np.all(np.diff(vals) >= 0)

    def test_large_kappa_stable(self):
        for kappa in (1e6, 1e9, 1e12, np.inf):
            r = bessel_ratio(kappa, np.arange(33))
            assert np.all(np.isfinite(r))
            assert r[1] == pytest.approx(1.0, abs=1e-5)

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            bessel_ratio(1.0, 1.5)

    @pytest.mark.parametrize("M", [1, 2, 17, 20, 64, 129])
    def test_against_ive_oracle(self, M):
        m = np.arange(M)
        for kappa in np.logspace(-8, 7, 151):
            want = ive(m, kappa) / ive(0, kappa)
            got = bessel_ratio(kappa, m)
            keep = want > 1e-290  # below that the oracle itself is subnormal or zero
            np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)

    def test_against_asymptotic_oracle(self):
        m = np.arange(129)
        for kappa in np.logspace(7, 15, 81):
            np.testing.assert_allclose(bessel_ratio(kappa, m), bessel_ratio_asymptotic(m, kappa),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e300, 1.7e308, np.inf])
    def test_extreme_kappa_finite_without_warnings(self, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = bessel_ratio(kappa, np.arange(129))
        assert np.all(np.isfinite(r)) and np.all((0.0 <= r) & (r <= 1.0))
        if kappa == 0.0:
            np.testing.assert_array_equal(r, np.eye(1, 129)[0])

    def test_scalar_and_array_orders(self):
        m = np.array([[3, 0], [1, 7]])
        r = bessel_ratio(4.5, m)
        assert r.shape == m.shape
        assert type(bessel_ratio(4.5, 7)) is float and bessel_ratio(4.5, 7) == r[1, 1]


class TestMomentVector:
    def test_uniform_distribution(self):
        a = moment_vector(VonMises(0.7, 0.0), 5)
        np.testing.assert_array_equal(a, [1, 0, 0, 0, 0])

    def test_point_mass_limit(self):
        mu = -1.2
        a = moment_vector(VonMises(mu, 1e9), 6)
        np.testing.assert_allclose(a, np.exp(1j * mu * np.arange(6)), atol=1e-3)

    def test_against_quadrature(self):
        vm = VonMises(0.3, 5.0)
        a = moment_vector(vm, 4)
        oracle = np.array([vm_moment_quadrature(vm.mu, vm.kappa, m) for m in range(4)])
        np.testing.assert_allclose(a, oracle, atol=1e-8)

    def test_first_moment_consistency(self):
        vm = VonMises(1.1, 7.3)
        a = moment_vector(vm, 3)
        assert np.angle(a[1]) == pytest.approx(vm.mu, abs=1e-15)
        assert abs(a[1]) == bessel_ratio(vm.kappa, 1)

    def test_nonincreasing_magnitudes(self):
        a = moment_vector(VonMises(0.4, 12.0), 16)
        mags = np.abs(a)
        assert np.all(np.diff(mags) <= 1e-15)


def log_density(eta, omega):
    """Unnormalized log-density Re{eta^H a(omega)} at one angle or an array of angles."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    vals = (np.conj(eta)[None, :] * np.exp(1j * np.outer(w, np.arange(len(eta))))).real.sum(axis=1)
    return float(vals[0]) if np.ndim(omega) == 0 else vals


def dense_mode_oracle(eta, n_grid=2**20):
    """Argmax of the exact log-density on a dense grid, then bounded refinement."""
    from scipy.optimize import minimize_scalar

    G = n_grid
    grid = (np.fft.ifft(np.conj(eta), n=G) * G).real
    g = int(np.argmax(grid))
    lo, hi = 2 * np.pi * (g - 1) / G, 2 * np.pi * (g + 1) / G
    res = minimize_scalar(lambda w: -log_density(eta, w), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return wrap_angle(res.x)


class TestApproximatePosterior:
    def test_single_harmonic_is_exact(self):
        c = 3.7
        eta = np.zeros(8, dtype=complex)
        eta[1] = c
        vm = approximate_posterior(eta)
        assert vm.mu == 0.0
        assert vm.kappa == pytest.approx(c, rel=1e-12)

    def test_single_harmonic_phase(self):
        # eta_1 = c*exp(1j*phi) shifts the mode to +phi
        c, phi = 2.0, 0.9
        eta = np.zeros(6, dtype=complex)
        eta[1] = c * np.exp(1j * phi)
        vm = approximate_posterior(eta)
        assert vm.mu == pytest.approx(phi, abs=1e-12)
        assert vm.kappa == pytest.approx(c, rel=1e-10)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        vm = approximate_posterior(eta)
        oracle = dense_mode_oracle(eta)
        assert abs(wrap_angle(vm.mu - oracle)) < 1e-6

    def test_mode_dominates_grid(self):
        rng = np.random.default_rng(123)
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        for _ in range(20):
            eta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            vm = approximate_posterior(eta)
            assert log_density(eta, vm.mu) >= log_density(eta, grid).max() - 1e-9

    def test_laplace_concentration_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            eta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            assert approximate_posterior(eta).kappa > 0

    def test_degenerate_zero_eta(self):
        vm = approximate_posterior(np.zeros(8, dtype=complex))
        assert vm.mu == 0.0 and vm.kappa == 0.0

    def test_eta_too_short(self):
        with pytest.raises(ValueError):
            approximate_posterior(np.zeros(1, dtype=complex))

    # rejected cleanly: any numpy warning on the way (e.g. from 0*inf) fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("position", [0, 9, 19], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, position, part, bad):
        eta = np.random.default_rng(3).standard_normal(20) + 1j
        eta[position] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
        with pytest.raises(ValueError, match="^eta contains non-finite entries$"):
            approximate_posterior(eta)

    @pytest.mark.parametrize("M", [2, 20, 64])
    def test_series_basis_matches_direct_sums(self, M):
        rng = np.random.default_rng(M)
        orders = np.arange(M)
        for _ in range(10):
            eta_conj = np.conj(rng.standard_normal(M) + 1j * rng.standard_normal(M))
            omega = rng.uniform(-np.pi, np.pi)
            t = eta_conj * np.exp(1j * orders * omega)
            want = (t.real.sum(), -(orders * t.imag).sum(), -(orders ** 2 * t.real).sum())
            got = _series_eval(_series_basis(eta_conj, _plan(M).derivs), 1j * orders, omega)
            for g, w, p in zip(got, want, range(3)):
                # relative to the sum of term magnitudes: the sums may cancel
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12 * (orders ** p * np.abs(eta_conj)).sum())


def test_tones_halfway_between_grid_points_fit_as_the_reference():
    """An exact tie between two grid points is where the real-FFT scan may pick the other one.

    The fit still lands on the same mode: within 1e-9 rad in mu and 1e-12
    relative in kappa of the complex-FFT reference.
    """
    rng = np.random.default_rng(18)
    probes = other_point = 0
    for M in (2, 3, 16, 17, 20, 64, 129):
        G = _plan(M).G
        m = np.arange(M)
        for amplitude in np.logspace(-3, 4, 8):
            for g in rng.integers(0, G, size=22):
                eta = amplitude * np.exp(1j * m * (2.0 * np.pi * (g + 0.5) / G))
                got, want = approximate_posterior(eta), circular_reference.approximate_posterior(eta)
                assert abs(wrap_angle(got.mu - want.mu)) <= 1e-9, (M, amplitude, g)
                assert abs(got.kappa - want.kappa) <= 1e-12 * want.kappa, (M, amplitude, g)
                c = np.conj(eta)
                real_scan = np.fft.irfft(c, n=G, norm="forward").argmax()
                other_point += real_scan != np.fft.ifft(c, n=G, norm="forward").real.argmax()
                probes += 1
    assert probes == 1232 and other_point > 0  # the case does reach ties that the two scans break apart


class TestVonMisesType:
    def test_mu_wrapped(self):
        assert VonMises(3 * np.pi, 1.0).mu == pytest.approx(-np.pi, abs=1e-12)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            VonMises(0.0, -0.5)

    @given(x=st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_wrap_angle_range(self, x):
        w = wrap_angle(x)
        assert -np.pi <= w < np.pi
        assert np.cos(w - x) == pytest.approx(1.0, abs=1e-9)


def _scipy_modules_after(script: str, *args) -> str:
    """The ``scipy*`` modules loaded once ``script`` has run in a fresh interpreter, printed as a list."""
    script += "\nprint(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    src = str(Path(gdoa.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_estimator_and_crb_load_no_scipy():
    """``import gdoa``, one run and one CRB need numpy alone (scipy serves the tests)."""
    script = """
import sys
import numpy as np
import gdoa
from gdoa.model import steering_matrix

rng = np.random.default_rng(0)
omegas, X = np.array([0.8]), np.ones((1, 4), dtype=complex)
Y = steering_matrix(omegas, 8) @ X + 0.1 * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
gdoa.run(Y, case=gdoa.NoiseCase.II)
gdoa.crb_frequencies(gdoa.CrbParameterization.from_weights(omegas, X), np.full((8, 4), 0.01))
"""
    assert _scipy_modules_after(script) == "[]"


def test_sweep_and_mc_load_no_scipy(tmp_path):
    """A sweep that matches frequencies, runs CBF and the CRB, and ``gdoa mc`` need numpy alone."""
    script = """
import json
import sys
from pathlib import Path
from gdoa.cli import main
from gdoa.io import parse_scenario
from gdoa.sweep import SweepConfig, run_sweep

base = {"M": 8, "L": 4, "true_omegas": [0.8], "snr_db": 20.0, "noise_case": "II", "seed": 5}
table = run_sweep(SweepConfig(base=parse_scenario(base), sweep_axis="snr_db", values=(20.0,), trials=1,
                              algorithms=("MVALSE", "CBF"), include_crb=True))
assert [r.freq_sq_error is not None for r in table.records] == [True, True], table.records
path = Path(sys.argv[1]) / "sweep.json"
path.write_text(json.dumps({"base": base, "sweep_axis": "snr_db", "values": [20.0], "trials": 1,
                            "algorithms": ["MVHN-S", "CBF"], "include_crb": True}))
assert main(["mc", "--config", str(path), "--out", str(Path(sys.argv[1]) / "table.csv")]) == 0
"""
    assert _scipy_modules_after(script, str(tmp_path)) == "[]"
