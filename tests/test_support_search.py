import numpy as np
import pytest

from conftest import (
    dense_covs,
    full_gram,
    random_instance,
    random_moments,
    random_variances,
    stack_gram,
    support_vec,
    workspace_of,
)
from gdoa import support_search
from gdoa.inference import NoiseCase, update_hyperparams, update_weights_support
from gdoa.model import steering_matrix
from gdoa.support_search import (
    NumericalError,
    ScaledGram,
    SupportState,
    _sweep_deltas,
    apply_flip,
    compute_jh,
    greedy_search,
    ln_z,
    make_workspace,
)
from test_inference import make_state


def spread_j(J):
    """J as one (N, N) matrix per snapshot: the w_l G_p expanded."""
    return J.w[:, None, None] * full_gram(J)


def per_cell(J):
    """J in the per-cell form, one Gram per snapshot (P = L) and w = 1."""
    G = spread_j(J)
    return stack_gram(G, np.ones(len(G)))


def per_snapshot_j(inst):
    """The instance's J spread to one (N, N) matrix per snapshot."""
    return spread_j(inst["J"])


def dense_posteriors(inst, order, tau):
    """From-scratch posterior mean/covariance for a given activation order."""
    idx = list(order)
    k = len(idx)
    J = per_snapshot_j(inst)
    L = J.shape[0]
    C = np.zeros((L, k, k), dtype=complex)
    x = np.zeros((k, L), dtype=complex)
    for l in range(L):
        A = J[l][np.ix_(idx, idx)] + np.eye(k) / tau
        C[l] = np.linalg.inv(A)
        x[:, l] = C[l] @ inst["H"][idx, l]
    return C, x


def dense_score(inst, indices, rho, tau):
    """ln_z by one direct inverse per snapshot."""
    idx = list(indices)
    k = len(idx)
    score = k * (np.log(rho) - np.log1p(-rho))
    for l, J_l in enumerate(per_snapshot_j(inst)):
        A = J_l[np.ix_(idx, idx)] + np.eye(k) / tau
        h = inst["H"][idx, l]
        score -= np.linalg.slogdet(A)[1] + k * np.log(tau) - np.vdot(h, np.linalg.solve(A, h)).real
    return score


def head_compute_jh(A, nu, Y):
    """compute_jh on a full (M, L) grid as it was when every case built L Grams."""
    W = 1.0 / nu
    Ah = A.conj().T
    J = (Ah[None, :, :] * W.T[:, None, :]) @ A
    tr = W.sum(axis=0)
    idx = np.arange(A.shape[1])
    J[:, idx, idx] = tr[:, None]
    H = Ah @ (W * Y)
    return J, H


def assert_is_fresh(ws, inst):
    """The workspace holds exactly what a direct build at its support gives, in ascending order."""
    assert ws.order == sorted(ws.order)
    fresh = make_workspace(inst["J"], inst["H"], inst["rho"], inst["tau"], support=ws.order)
    assert np.array_equal(dense_covs(ws.posterior), dense_covs(fresh.posterior)) and np.array_equal(ws.x, fresh.x)


class TestComputeJH:
    def test_matches_triple_loop(self, rng):
        M, N, L = 7, 5, 4
        A = random_moments(rng, M, N)
        nu = random_variances(rng, M, L)
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        J, H = compute_jh(A, nu, Y)
        G = full_gram(J)
        for l in range(L):
            for i in range(N):
                for j in range(N):
                    if i == j:
                        expected = np.sum(1.0 / nu[:, l])
                    else:
                        expected = sum(np.conj(A[m, i]) * A[m, j] / nu[m, l] for m in range(M))
                    assert abs(G[l, i, j] - expected) <= 1e-13 * max(1.0, abs(expected))
            for i in range(N):
                expected = sum(np.conj(A[m, i]) * Y[m, l] / nu[m, l] for m in range(M))
                assert abs(H[i, l] - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_diagonal_is_trace_of_inverse_covariance(self, rng):
        inst = random_instance(rng)
        tr = (1.0 / inst["nu"]).sum(axis=0)
        G = full_gram(inst["J"])
        for l in range(G.shape[0]):
            assert np.array_equal(np.diag(G[l]).real, np.full(G.shape[1], tr[l]))

    def test_unit_variance_reduces_to_dirichlet_kernel(self):
        M, L = 8, 2
        omegas = np.array([0.3, -1.1, 2.0])
        A = steering_matrix(omegas, M)
        Y = np.ones((M, L), dtype=complex)
        J, _ = compute_jh(A, np.ones((M, L)), Y)
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = np.vdot(A[:, i], A[:, j])
                    assert full_gram(J)[0, i, j] == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_variance_rejected(self, rng):
        inst = random_instance(rng)
        bad = inst["nu"].copy()
        bad[0, 0] = 0.0
        with pytest.raises(ValueError):
            compute_jh(inst["moments"], bad, inst["Y"])

    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_one_scaled_gram_per_block_in_every_case(self, rng, case):
        M, N, L = 9, 6, 5
        nu = random_variances(rng, M, L).mean(axis=case.tied_axes, keepdims=True)
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        J, H = compute_jh(random_moments(rng, M, N), nu, Y)
        assert isinstance(J, ScaledGram)
        P = L if case is NoiseCase.IV else 1
        assert [a.shape for a in (full_gram(J), J.w, H)] == [(P, N, N), (L,), (N, L)]
        if case is NoiseCase.IV:
            assert np.array_equal(J.w, np.ones(L))


class TestLazyRows:
    """Gram rows are built as the search reads them, each bit for bit the row of the full product."""

    @staticmethod
    def full_product(A, nu):
        """The whole (P, N, N) stack in one product, its diagonal pinned, as compute_jh builds it."""
        W = 1.0 / nu
        g = np.ones((len(A), 1)) if nu.shape[0] == 1 else W
        Ah = A.conj().T
        G = (Ah[None, :, :] * g.T[:, None, :]) @ A
        idx = np.arange(A.shape[1])
        G[:, idx, idx] = g.sum(axis=0)[:, None]
        return G

    @pytest.mark.parametrize("M, L", [(20, 10), (64, 100)])
    @pytest.mark.parametrize("case", [NoiseCase.II, NoiseCase.III, NoiseCase.IV], ids=lambda c: c.value)
    def test_rows_built_one_flip_at_a_time_are_the_full_product(self, rng, M, L, case):
        N = M
        A = random_moments(rng, M, N)
        nu = random_variances(rng, M, L).mean(axis=case.tied_axes, keepdims=True)
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        J, H = compute_jh(A, nu, Y)
        want = self.full_product(A, nu)
        assert len(want) == (L if case is NoiseCase.IV else 1)
        ws = make_workspace(J, H, 0.2, 1.0)
        assert not J.built.any()
        # from the empty support, each flip activates one row not read before: a lone missing row
        for step, m in enumerate(rng.permutation(N)[:8].tolist()):
            apply_flip(m, ws)
            assert J.built.sum() == step + 1
            assert np.array_equal(J.G[:, J.built], want[:, J.built])
            if step % 3 == 2:          # a deactivation and a reactivation build nothing
                apply_flip(m, ws)
                apply_flip(m, ws)
                assert J.built.sum() == step + 1
        assert np.array_equal(full_gram(J), want)

    def test_search_builds_only_the_rows_of_the_supports_it_visits(self, rng, monkeypatch):
        visited = []

        def recording(k, ws):
            out = flip(k, ws)
            visited.append(tuple(ws.order))
            return out

        flip = support_search.apply_flip
        monkeypatch.setattr(support_search, "apply_flip", recording)
        for case in NoiseCase:
            for _ in range(5):
                inst = random_instance(rng, M=20, N=20, L=10, k_true=3, snr_db=10.0, tied_axes=case.tied_axes)
                visited.clear()
                support, ws = greedy_search(workspace_of(inst, (4,)))
                assert visited and visited[-1] == support.active_set
                read = {4}.union(*visited)
                assert set(np.flatnonzero(inst["J"].built).tolist()) == read and len(read) < 20

    def test_schur_failure_is_numerical_error(self):
        # g with a negative cell: G = [[0.1, 1.9], [1.9, 0.1]], so [G]_{0} + 1 is positive
        # but the Schur complement of candidate 1 is 1.1 - 1.9^2/1.1 < 0
        A = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        J = ScaledGram(Ah=A.conj().T, A=A, g=np.array([[1.0], [-0.9]]), w=np.ones(3))
        ws = make_workspace(J, np.ones((2, 3), dtype=complex), 0.5, 1.0, support=(0,))
        assert J.built.tolist() == [True, False]
        with pytest.raises(NumericalError, match="nonpositive Schur complement"):
            greedy_search(ws)


STRUCTURED = [NoiseCase.I, NoiseCase.II, NoiseCase.III]
SHARED = [NoiseCase.I, NoiseCase.III]   # every snapshot has the same J_l, so the same C_l


class TestStructuredJ:
    @pytest.mark.parametrize("case", STRUCTURED, ids=lambda c: c.value)
    def test_matches_full_grid(self, rng, case):
        M, N, L = 9, 6, 5
        for _ in range(10):
            A = random_moments(rng, M, N)
            nu = random_variances(rng, M, L).mean(axis=case.tied_axes, keepdims=True)
            Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
            J, H = compute_jh(A, nu, Y)
            J_full, H_full = compute_jh(A, np.broadcast_to(nu, (M, L)), Y)
            G_full = full_gram(J_full)
            assert isinstance(J, ScaledGram) and full_gram(J).shape == (1, N, N) and J.w.shape == (L,)
            assert isinstance(J_full, ScaledGram) and G_full.shape == (L, N, N)
            assert np.array_equal(J_full.w, np.ones(L))
            assert np.abs(spread_j(J) - G_full).max() <= 1e-12 * np.abs(G_full).max()
            assert np.abs(H - H_full).max() <= 1e-12 * np.abs(H_full).max()

    def test_full_grid_is_bitwise_unchanged(self, rng):
        M, N, L = 12, 9, 7
        A = random_moments(rng, M, N)
        nu = random_variances(rng, M, L)
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        (J, H), (J_ref, H_ref) = compute_jh(A, nu, Y), head_compute_jh(A, nu, Y)
        assert np.array_equal(full_gram(J), J_ref) and np.array_equal(J.w, np.ones(L)) and np.array_equal(H, H_ref)

    @pytest.mark.parametrize("case", SHARED, ids=lambda c: c.value)
    def test_shared_j_flips_match_dense(self, rng, case):
        for _ in range(40):
            inst = random_instance(rng, L=4, k_true=int(rng.integers(0, 3)), tied_axes=case.tied_axes)
            assert np.all(inst["J"].w == inst["J"].w[0])
            size = int(rng.integers(0, 5))
            support = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
            ws = workspace_of(inst, support)
            base = dense_score(inst, support, inst["rho"], inst["tau"])
            assert abs(ws.ln_z - base) <= 1e-10 * max(1.0, abs(base))
            for k in range(8):
                flipped = set(support) ^ {k}
                expected = dense_score(inst, sorted(flipped), inst["rho"], inst["tau"]) - base
                got = _sweep_deltas(ws)[k]
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
            k = int(rng.integers(0, 8))
            apply_flip(k, ws)
            C = dense_covs(ws.posterior)
            assert C.shape == (4, len(ws.order), len(ws.order)) and ws.x.shape == (len(ws.order), 4)
            C_ref, x_ref = dense_posteriors(inst, ws.order, inst["tau"])
            if ws.order:
                assert np.abs(C - C_ref).max() <= 1e-10 * max(1.0, np.abs(C_ref).max())
                assert np.abs(ws.x - x_ref).max() <= 1e-10 * max(1.0, np.abs(x_ref).max())

    @pytest.mark.parametrize("case", SHARED, ids=lambda c: c.value)
    def test_shared_covariance_matches_every_snapshot(self, rng, case):
        inst = random_instance(rng, L=4, tied_axes=case.tied_axes)
        ws = workspace_of(inst, (5, 2))
        assert ws.order == [2, 5]
        C = dense_covs(ws.posterior)
        assert C.shape == (4, 2, 2)
        C_ref, x_ref = dense_posteriors(inst, ws.order, inst["tau"])
        for C_l, C_ref_l in zip(C, C_ref):
            assert np.array_equal(C_l, C[0])
            np.testing.assert_allclose(C_l, C_ref_l, atol=1e-10)
        np.testing.assert_allclose(ws.x, x_ref, atol=1e-10)

    @pytest.mark.parametrize("case", SHARED, ids=lambda c: c.value)
    def test_tau_sums_the_shared_covariance_over_snapshots(self, rng, case):
        M, L = 8, 5
        state = make_state(rng, M=M, N=M, L=L, active=(0, 2, 5), case=case)
        X = 3.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, L)))
        Y = state.moments[:, [0, 2, 5]] @ X + 0.1 * (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L)))
        tau0 = state.hyper.tau
        update_weights_support(state, Y)
        S = list(state.support.active_set)
        assert S
        J, H = compute_jh(state.moments, np.array(np.broadcast_to(state.noise.compact_grid(M, L), (M, L))), Y)
        energy = trace = 0.0
        G = full_gram(J)
        for l in range(L):
            C_l = np.linalg.inv(G[l][np.ix_(S, S)] + np.eye(len(S)) / tau0)
            energy += np.sum(np.abs(C_l @ H[S, l]) ** 2)
            trace += np.trace(C_l).real
        update_hyperparams(state)
        assert dense_covs(state.weight_posterior).shape == (L, len(S), len(S))
        assert state.hyper.tau == pytest.approx((energy + trace) / (L * len(S)), rel=1e-10)


LAYOUTS = [(0, 1), (0,), (1,), ()]


class TestFactor:
    @pytest.mark.parametrize("tied_axes", LAYOUTS, ids=str)
    def test_scores_match_dense(self, rng, tied_axes):
        for trial in range(25):
            inst = random_instance(rng, L=4, k_true=int(rng.integers(0, 3)), tied_axes=tied_axes)
            support = sorted(rng.choice(8, size=trial % 5, replace=False).tolist())
            expected = dense_score(inst, support, inst["rho"], inst["tau"])
            for got in (workspace_of(inst, support).ln_z, ln_z(support_vec(8, support), workspace_of(inst))):
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("tied_axes", LAYOUTS, ids=str)
    def test_factor_gives_dense_inverse(self, rng, tied_axes):
        for trial in range(25):
            inst = random_instance(rng, L=4, k_true=int(rng.integers(0, 3)), tied_axes=tied_axes)
            ws = workspace_of(inst, rng.choice(8, size=1 + trial % 5, replace=False).tolist())
            k = len(ws.order)
            # unitary eigenbases, one for separable noise and one per snapshot for per-cell noise,
            # and positive per-snapshot eigenvalues
            post = ws.posterior
            assert post.V.shape == (1 if tied_axes else 4, k, k) and post.d.shape == (4, k) and np.all(post.d > 0)
            assert np.abs(np.conj(np.swapaxes(post.V, 1, 2)) @ post.V - np.eye(k)).max() <= 1e-14 * k
            C_ref, _ = dense_posteriors(inst, ws.order, inst["tau"])
            C = dense_covs(ws.posterior)
            assert C.shape == (4, k, k)
            assert np.abs(C - C_ref).max() <= 1e-10 * np.abs(C_ref).max()

    def test_indefinite_system_rejected(self, rng):
        inst = random_instance(rng)
        with pytest.raises(NumericalError, match="positive definite"):
            make_workspace(stack_gram(np.broadcast_to(-5.0 * np.eye(8), (3, 8, 8)), np.ones(3)),
                           inst["H"], 0.5, 1.0, support=(0, 3))


def rel_gap(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


class TestSeparableEigenbasis:
    """The one-basis workspace of separable noise against the per-snapshot (P = L) workspace of the spread stack."""

    @pytest.mark.parametrize("case", STRUCTURED, ids=lambda c: c.value)
    def test_compute_jh_builds_no_snapshot_stack(self, rng, case):
        M, N, L = 9, 6, 5
        nu = random_variances(rng, M, L).mean(axis=case.tied_axes, keepdims=True)
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        J, H = compute_jh(random_moments(rng, M, N), nu, Y)
        assert isinstance(J, ScaledGram)
        G = full_gram(J)
        assert [a.shape for a in (G, J.w, H)] == [(1, N, N), (L,), (N, L)]
        if case is NoiseCase.III:  # tied over snapshots: the weights sit in G
            assert np.array_equal(np.diag(G[0]).real, np.full(N, (1.0 / nu).sum()))
            assert np.array_equal(J.w, np.ones(L))
        else:                      # tied over antennas: G = A^H A, w = 1/s
            assert np.array_equal(np.diag(G[0]).real, np.full(N, float(M)))
            assert np.array_equal(J.w, np.broadcast_to(1.0 / nu[0], (L,)))

    @pytest.mark.parametrize("case", STRUCTURED, ids=lambda c: c.value)
    def test_flip_sequences_match_dense_workspace(self, rng, case):
        for trial in range(40):
            inst = random_instance(rng, L=5, k_true=int(rng.integers(0, 4)), tied_axes=case.tied_axes)
            dense = per_cell(inst["J"])
            ws = workspace_of(inst, rng.choice(8, size=trial % 5, replace=False).tolist())
            for _ in range(4):
                ref = make_workspace(dense, inst["H"], inst["rho"], inst["tau"], support=ws.order)
                assert len(ws.posterior.V) == 1 and len(ref.posterior.V) == 5
                assert abs(ws.ln_z - ref.ln_z) <= 1e-10 * max(1.0, abs(ref.ln_z))
                got, want = _sweep_deltas(ws), _sweep_deltas(ref)
                assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
                C, C_ref = dense_covs(ws.posterior), dense_covs(ref.posterior)
                assert C.shape == C_ref.shape == (5, len(ws.order), len(ws.order))
                if ws.order:
                    assert rel_gap(ws.x, ref.x) <= 1e-10 and rel_gap(C, C_ref) <= 1e-10
                apply_flip(int(rng.integers(0, 8)), ws)

    @pytest.mark.parametrize("case", STRUCTURED, ids=lambda c: c.value)
    def test_greedy_search_reaches_the_dense_support(self, rng, case):
        for _ in range(40):
            inst = random_instance(rng, L=5, k_true=int(rng.integers(0, 4)),
                                   snr_db=float(rng.uniform(0, 20)), tied_axes=case.tied_axes)
            support, ws = greedy_search(workspace_of(inst))
            ref, _ = greedy_search(make_workspace(per_cell(inst["J"]), inst["H"], inst["rho"], inst["tau"]))
            assert support.active_set == ref.active_set == tuple(ws.order)
            assert_is_fresh(ws, inst)

    @pytest.mark.parametrize("case", list(NoiseCase), ids=lambda c: c.value)
    def test_eigh_failure_is_numerical_error(self, rng, monkeypatch, case):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        inst = random_instance(rng, tied_axes=case.tied_axes)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalError, match="posterior system not positive definite: Eigenvalues"):
            workspace_of(inst, (0, 3))

    @pytest.mark.parametrize("case", STRUCTURED, ids=lambda c: c.value)
    def test_nonpositive_eigenvalue_rejected(self, rng, case):
        inst = random_instance(rng, tied_axes=case.tied_axes)
        J = stack_gram(-5.0 * np.eye(8)[None], inst["J"].w)
        with pytest.raises(NumericalError, match="posterior system not positive definite: eigenvalue"):
            make_workspace(J, inst["H"], 0.5, 1.0, support=(0, 3))


class TestLnZ:
    def test_empty_support_scores_zero(self, rng):
        inst = random_instance(rng)
        ws = workspace_of(inst)
        assert ln_z(np.zeros(8, dtype=bool), ws) == 0.0

    def test_monotone_in_rho(self, rng):
        inst = random_instance(rng)
        s = support_vec(8, (1, 4))
        scores = []
        for rho in (0.1, 0.3, 0.6, 0.9):
            ws = make_workspace(inst["J"], inst["H"], rho, inst["tau"])
            scores.append(ln_z(s, ws))
        assert np.all(np.diff(scores) > 0)

    def test_flip_difference_equals_delta(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            size = rng.integers(0, 4)
            support = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
            ws = workspace_of(inst, support)
            base = ln_z(support_vec(8, support), ws)
            for k in range(8):
                flipped = support_vec(8, support)
                flipped[k] = ~flipped[k]
                expected = ln_z(flipped, ws) - base
                assert _sweep_deltas(ws)[k] == pytest.approx(expected, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("tied_axes", LAYOUTS, ids=str)
    def test_flip_difference_equals_delta_at_empty_and_full_support(self, rng, tied_axes):
        # every candidate is inactive at k = 0 and active at k = N; P = 1 for a tied layout, P = L per cell
        inst = random_instance(rng, L=4, tied_axes=tied_axes)
        assert inst["J"].g.shape[1] == (1 if tied_axes else 4)
        for support in ((), tuple(range(8))):
            ws = workspace_of(inst, support)
            base = ln_z(support_vec(8, support), ws)
            deltas = _sweep_deltas(ws)
            for k in range(8):
                flipped = support_vec(8, support)
                flipped[k] = ~flipped[k]
                assert deltas[k] == pytest.approx(ln_z(flipped, ws) - base, rel=1e-8, abs=1e-8)


class TestDeltas:
    def test_activate_from_empty_support(self, rng):
        inst = random_instance(rng)
        ws = workspace_of(inst)
        apply_flip(3, ws)
        tr = (1.0 / inst["nu"]).sum(axis=0)
        v_expected = 1.0 / (tr + 1.0 / inst["tau"])
        np.testing.assert_allclose(dense_covs(ws.posterior)[:, 0, 0], v_expected, rtol=1e-13)
        np.testing.assert_allclose(ws.x[0], v_expected * inst["H"][3, :], rtol=1e-13)

    def test_singleton_flip_symmetry(self, rng):
        inst = random_instance(rng)
        k = 2
        ws_single = workspace_of(inst, (k,))
        ws_empty = workspace_of(inst)
        act = _sweep_deltas(ws_empty)[k]
        assert _sweep_deltas(ws_single)[k] == pytest.approx(-act, rel=1e-10)

    def test_strong_component_never_pruned(self, rng):
        inst = random_instance(rng, k_true=1, snr_db=30.0)
        ws = workspace_of(inst, (0,))
        assert _sweep_deltas(ws)[0] < -100.0


class TestApplyFlip:
    def test_activate_then_deactivate_restores(self, rng):
        inst = random_instance(rng)
        ws = workspace_of(inst, (1, 5))
        C0, x0 = dense_covs(ws.posterior).copy(), ws.x.copy()
        apply_flip(3, ws)
        apply_flip(3, ws)
        np.testing.assert_allclose(dense_covs(ws.posterior), C0, atol=1e-10)
        np.testing.assert_allclose(ws.x, x0, atol=1e-10)

    def test_post_flip_matches_dense(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            size = rng.integers(0, 4)
            support = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
            ws = workspace_of(inst, support)
            apply_flip(int(rng.integers(0, 8)), ws)
            C_ref, x_ref = dense_posteriors(inst, ws.order, inst["tau"])
            np.testing.assert_allclose(dense_covs(ws.posterior), C_ref, atol=1e-10)
            np.testing.assert_allclose(ws.x, x_ref, atol=1e-10)

    def test_hermitian_preserved_over_many_flips(self, rng):
        inst = random_instance(rng)
        ws = workspace_of(inst)
        for t in range(120):
            apply_flip(int(rng.integers(0, 8)), ws)
            C = dense_covs(ws.posterior)
            herm_gap = np.abs(C - np.conj(np.swapaxes(C, 1, 2))).max() if ws.order else 0.0
            assert herm_gap <= 1e-12

    def test_flips_match_fresh_workspace_bitwise(self, rng):
        for trial in range(200):
            case = list(NoiseCase)[trial % 4]
            inst = random_instance(rng, L=3, k_true=int(rng.integers(0, 3)), tied_axes=case.tied_axes)
            size = int(rng.integers(0, 5))
            ws = workspace_of(inst, rng.choice(8, size=size, replace=False).tolist())
            for _ in range(3):
                apply_flip(int(rng.integers(0, 8)), ws)
                assert_is_fresh(ws, inst)


class TestGreedySearch:
    def test_pure_noise_with_tiny_rho_stays_empty(self, rng):
        inst = random_instance(rng, k_true=0, rho=1e-6)
        support, _ = greedy_search(workspace_of(inst))
        assert support.size == 0

    def test_score_trajectory_strictly_increases(self, rng):
        inst = random_instance(rng, k_true=2)
        ws = workspace_of(inst)
        scores = [ws.ln_z]
        while True:
            deltas = _sweep_deltas(ws)
            k = int(np.argmax(deltas))
            if deltas[k] <= 0:
                break
            apply_flip(k, ws)
            scores.append(ws.ln_z)
        assert np.all(np.diff(scores) > 0)

    def test_local_optimality(self, rng):
        for _ in range(10):
            inst = random_instance(rng, k_true=int(rng.integers(0, 3)))
            support, ws = greedy_search(workspace_of(inst))
            base = ln_z(support_vec(8, support.active_set), ws)
            for k in range(8):
                flipped = support_vec(8, support.active_set)
                flipped[k] = ~flipped[k]
                assert ln_z(flipped, ws) - base <= 1e-9

    def test_finds_planted_components(self, rng):
        inst = random_instance(rng, k_true=2, snr_db=25.0)
        support, _ = greedy_search(workspace_of(inst))
        assert {0, 1} <= set(support.active_set)

    def test_result_matches_fresh_workspace_bitwise(self, rng):
        for _ in range(50):
            inst = random_instance(rng, k_true=int(rng.integers(0, 4)), snr_db=float(rng.uniform(0, 20)))
            support, ws = greedy_search(workspace_of(inst))
            assert support.active_set == tuple(ws.order)
            assert_is_fresh(ws, inst)

    def test_deterministic(self, rng):
        inst = random_instance(rng, k_true=2)
        s1, _ = greedy_search(workspace_of(inst))
        s2, _ = greedy_search(workspace_of(inst))
        assert s1.active_set == s2.active_set


class TestWorkspace:
    def test_order_stays_ascending(self, rng):
        inst = random_instance(rng)
        ws = workspace_of(inst)
        for k in (5, 1, 3):
            apply_flip(k, ws)
        assert ws.order == [1, 3, 5]
        C_ref, x_ref = dense_posteriors(inst, ws.order, inst["tau"])
        np.testing.assert_allclose(ws.x, x_ref, atol=1e-10)
        np.testing.assert_allclose(dense_covs(ws.posterior), C_ref, atol=1e-10)

    def test_invalid_hyper_rejected(self, rng):
        inst = random_instance(rng)
        with pytest.raises(ValueError):
            make_workspace(inst["J"], inst["H"], 0.0, 1.0)
        with pytest.raises(ValueError):
            make_workspace(inst["J"], inst["H"], 0.5, 0.0)

    def test_support_state_sorted(self):
        st = SupportState.from_indices(6, (4, 1))
        assert st.active_set == (1, 4)
        assert st.size == 2
