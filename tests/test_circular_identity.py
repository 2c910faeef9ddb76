"""The von Mises fit, the Bessel table and the moments are bitwise those of the reference copy.

``circular_reference`` holds the uncached, numpy-scalar form of the same
functions.  Every comparison here is on bytes: the same grid, the same
Newton steps and the same concentration, not merely close values.
"""

import numpy as np
import pytest

import circular_reference as ref
from gdoa import circular

SIZES = (2, 3, 16, 17, 20, 64, 129)


def _noise(rng, M):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


def _tone(rng, M, kappa):
    """A tone whose Laplace concentration is about ``kappa``: f'' = -A * sum(m^2)."""
    m = np.arange(M)
    return kappa / float((m * m).sum()) * np.exp(1j * (m * rng.uniform(-np.pi, np.pi) + rng.uniform(-np.pi, np.pi)))


def probe_etas(M):
    """290 coefficient vectors of length M: noise, one or two tones in noise, entry 0 alone."""
    rng = np.random.default_rng(1000 + M)
    etas = [scale * _noise(rng, M) for scale in np.logspace(-6, 6, 40)]
    for kappa in np.logspace(-3, 9, 120):
        tone = _tone(rng, M, kappa)
        etas.append(tone + 10.0 ** rng.uniform(-4, 0.5) * np.abs(tone).max() * _noise(rng, M))
    for kappa in np.logspace(-3, 9, 120):
        tones = _tone(rng, M, kappa) + _tone(rng, M, kappa * 10.0 ** rng.uniform(-2, 0))
        etas.append(tones + 10.0 ** rng.uniform(-4, 0) * np.abs(tones).max() * _noise(rng, M))
    for scale in np.logspace(-3, 3, 10):
        eta = np.zeros(M, dtype=complex)
        eta[0] = scale * complex(*rng.standard_normal(2))
        etas.append(eta)
    return etas


def _bytes(vm, M, mod):
    return np.array([vm.mu, vm.kappa]).tobytes(), mod.moment_vector(vm, M).tobytes()


def test_fit_and_moments_are_bitwise_the_reference():
    count, kappas = 0, []
    for M in SIZES:
        for eta in probe_etas(M):
            got = circular.approximate_posterior(eta)
            want = ref.approximate_posterior(eta)
            assert _bytes(got, M, circular) == _bytes(want, M, ref), (M, count)
            kappas.append(got.kappa)
            count += 1
    assert count >= 2000
    positive = [k for k in kappas if k > 0]
    assert min(positive) < 1e-2 and max(positive) > 1e8  # the set spans the concentrations asked of it


@pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-3, 1.0, 700.0, 1e12, np.inf])
def test_bessel_ratio_is_bitwise_the_reference(kappa):
    for n in (1, 2, 16, 17, 19, 63, 128):
        orders = np.arange(n + 1)
        assert circular.bessel_ratio(kappa, orders).tobytes() == ref.bessel_ratio(kappa, orders).tobytes()
        assert circular._ratio_table(kappa, n).tobytes() == ref._ratio_table(kappa, n).tobytes()
    for m in (0, 1, 5, 40):
        assert np.float64(circular.bessel_ratio(kappa, m)).tobytes() == np.float64(ref.bessel_ratio(kappa, m)).tobytes()


def _outcome(fit, eta):
    try:
        with np.errstate(all="ignore"):
            vm = fit(eta)
    except ValueError as exc:
        return "raised", str(exc)
    return "fitted", np.array([vm.mu, vm.kappa]).tobytes()


@pytest.mark.parametrize("M", [3, 20, 64])
def test_finite_eta_whose_weighted_sum_overflows_is_fitted_as_the_reference(M):
    rng = np.random.default_rng(M)
    m = np.arange(M)
    noisy = 1e300 * _noise(rng, M)
    noisy[-1] = -1e308j
    for eta in (np.full(M, 1e308 + 1e308j), 1e308 * np.exp(1j * 0.3 * m), noisy):
        with np.errstate(over="ignore"):
            assert not np.isfinite((m * np.abs(eta)).sum())
        assert np.all(np.isfinite(eta))
        assert _outcome(circular.approximate_posterior, eta) == _outcome(ref.approximate_posterior, eta)
