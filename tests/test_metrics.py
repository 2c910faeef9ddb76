import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from gdoa.metrics import EXACT_DB, gated_freq_mse, nmse_ratio, wrapped_distance
from gdoa.sweep import _db_of_mean


class TestNmse:
    def test_exact_reconstruction_sentinel(self):
        Z = np.ones((3, 2), dtype=complex)
        assert nmse_ratio(Z, Z) == 0.0
        assert _db_of_mean([nmse_ratio(Z, Z)]) == EXACT_DB  # the table's dB column

    def test_zero_estimate_is_zero_db(self):
        Z = np.ones((3, 2), dtype=complex)
        assert nmse_ratio(np.zeros_like(Z), Z) == pytest.approx(1.0, rel=1e-15)

    def test_relative_perturbation(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        assert nmse_ratio(Z * 1.01, Z) == pytest.approx(1e-4, rel=1e-9)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse_ratio(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse_ratio(np.ones((2, 2)), np.ones((2, 3)))


class TestGatedFreqMse:
    def test_exact_estimate_gated_in(self):
        truth = np.array([0.2, -1.0])
        res = gated_freq_mse(truth.copy(), truth, N=10)
        assert res is not None and res.db == EXACT_DB

    def test_wrong_order_gated_out(self):
        assert gated_freq_mse([0.2], [0.2, -1.0], N=10) is None

    def test_error_beyond_gate_excluded(self):
        N = 10
        truth = np.array([0.0])
        res = gated_freq_mse([1.1 * np.pi / N], truth, N=N)
        assert res is None

    def test_gate_boundary_inclusive(self):
        N = 10
        res = gated_freq_mse([np.pi / N], [0.0], N=N)
        assert res is not None
        assert res.db == pytest.approx(10 * np.log10((np.pi / N) ** 2))

    def test_wrapped_error(self):
        res = gated_freq_mse([np.pi - 0.01], [-np.pi + 0.01], N=20)
        assert res is not None
        assert res.sq_error == pytest.approx(0.02**2, rel=1e-9)

    def test_empty_case(self):
        assert gated_freq_mse([], [], N=10) is None

    @given(perm_seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm_seed):
        rng = np.random.default_rng(perm_seed)
        truth = np.array([-1.2, 0.1, 2.0])
        est = truth + rng.uniform(-0.05, 0.05, size=3)
        base = gated_freq_mse(est, truth, N=20)
        shuffled = gated_freq_mse(rng.permutation(est), truth, N=20)
        assert base is not None and shuffled is not None
        assert shuffled.sq_error == pytest.approx(base.sq_error, rel=1e-12)

    def test_assignment_is_min_cost(self):
        # swapped nearest-neighbour pairing must be found by the matcher
        truth = np.array([0.0, 0.3])
        est = np.array([0.29, 0.01])
        res = gated_freq_mse(est, truth, N=10)
        assert res is not None
        assert res.assignment.tolist() == [1, 0]

    def test_squared_cost_breaks_linear_tie(self):
        # both pairings have summed distance 0.05; only the parallel one has the least squared error
        res = gated_freq_mse([0.11, 0.12], [0.13, 0.15], N=20)
        assert res is not None
        assert res.assignment.tolist() == [0, 1]
        assert res.sq_error == pytest.approx(0.02**2 + 0.03**2, rel=1e-12)


@st.composite
def circle_matchings(draw, max_k):
    """Truths and estimates around one centre: spread over the circle, clustered, or across +-pi."""
    k = draw(st.integers(1, max_k))
    centre = draw(st.one_of(st.sampled_from([np.pi, -np.pi]), st.floats(-np.pi, np.pi)))
    spread = draw(st.sampled_from([0.01, 0.3, np.pi]))
    angle = st.floats(-1.0, 1.0).map(lambda u: centre + spread * u)
    truth = draw(st.lists(angle, min_size=k, max_size=k))
    estimate = draw(st.lists(angle, min_size=k, max_size=k))
    duplicates = draw(st.integers(0, k - 1))
    estimate[k - duplicates:] = estimate[:1] * duplicates
    return np.array(truth), np.array(estimate)


def squared_costs(truth, estimate):
    return wrapped_distance(truth[:, None], estimate[None, :]) ** 2


class TestMatcherOracles:
    """The sorted-shift matcher against general assignment; N=1 turns the gate off."""

    @given(case=circle_matchings(max_k=7))
    @settings(max_examples=300, deadline=None)
    def test_brute_force_minimum(self, case):
        truth, estimate = case
        cost = squared_costs(truth, estimate)
        perms = np.array(list(itertools.permutations(range(truth.size))))
        totals = cost[np.arange(truth.size), perms].sum(axis=1)
        res = gated_freq_mse(estimate, truth, N=1)
        assert res is not None
        assert res.sq_error == pytest.approx(totals.min(), abs=1e-12)
        assert res.sq_error == pytest.approx(cost[np.arange(truth.size), res.assignment].sum(), abs=1e-15)
        best = np.flatnonzero(totals <= totals.min() + 1e-12)
        if best.size == 1:
            assert res.assignment.tolist() == perms[best[0]].tolist()

    @given(case=circle_matchings(max_k=12))
    @settings(max_examples=200, deadline=None)
    def test_assignment_solver_minimum(self, case):
        truth, estimate = case
        cost = squared_costs(truth, estimate)
        rows, cols = linear_sum_assignment(cost)
        res = gated_freq_mse(estimate, truth, N=1)
        assert res is not None
        assert res.sq_error == pytest.approx(cost[rows, cols].sum(), abs=1e-12)
        assert sorted(res.assignment.tolist()) == list(range(truth.size))


class TestWrappedDistance:
    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry(self, a, b):
        d = wrapped_distance(a, b)
        assert 0.0 <= d <= np.pi
        assert wrapped_distance(b, a) == pytest.approx(d, abs=1e-12)

    def test_two_pi_identification(self):
        assert wrapped_distance(0.1, 0.1 + 2 * np.pi) == pytest.approx(0.0, abs=1e-12)
