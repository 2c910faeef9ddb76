"""Acceptance suite: one test per criterion, each printing a PASS line.

The statistical checks run reduced Monte Carlo batches at fixed master seeds
through the same sweep harness the CLI uses, so they double as end-to-end
exercises of the public surface.
"""

import itertools
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import ive

from conftest import dense_covs, full_gram, random_instance, support_vec, workspace_of
from gdoa.baselines import AngularGrid, cbf_spectrum
from gdoa.circular import VonMises, moment_vector
from gdoa.crb import CrbParameterization, fim, signal_partials
from gdoa.inference import NoiseCase, update_noise
from gdoa.model import ScenarioConfig, synthesize_scene, theta_to_omega
from gdoa.support_search import _sweep_deltas, apply_flip, greedy_search, ln_z
from gdoa.sweep import SweepConfig, run_sweep
from test_inference import make_state

VC_BASE = dict(M=20, L=10, K=3, true_omegas=(-0.1, 0.5, 2.1), delta_nu_db=15.0)


def report(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


def dense_posteriors(inst, order, tau):
    idx = list(order)
    k = len(idx)
    J = inst["J"].w[:, None, None] * full_gram(inst["J"])   # one (N, N) matrix per snapshot
    L = J.shape[0]
    C = np.zeros((L, k, k), dtype=complex)
    x = np.zeros((k, L), dtype=complex)
    for l in range(L):
        A = J[l][np.ix_(idx, idx)] + np.eye(k) / tau
        C[l] = np.linalg.inv(A)
        x[:, l] = C[l] @ inst["H"][idx, l]
    return C, x


def test_criterion_1_rank_one_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(200):
        inst = random_instance(rng, M=8, N=8, L=3, k_true=int(rng.integers(0, 3)))
        size = int(rng.integers(0, 5))
        support = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
        ws = workspace_of(inst, support)
        base = ln_z(support_vec(8, support), ws)
        for k in range(8):
            flipped = support_vec(8, support)
            flipped[k] = ~flipped[k]
            expected = ln_z(flipped, ws) - base
            got = _sweep_deltas(ws)[k]
            assert abs(got - expected) <= 1e-8 * max(1.0, abs(expected))
        k = int(rng.integers(0, 8))
        apply_flip(k, ws)
        C_ref, x_ref = dense_posteriors(inst, ws.order, inst["tau"])
        if ws.order:
            assert np.abs(dense_covs(ws.posterior) - C_ref).max() <= 1e-10 * max(1.0, np.abs(C_ref).max())
            assert np.abs(ws.x - x_ref).max() <= 1e-10 * max(1.0, np.abs(x_ref).max())
        else:
            assert dense_covs(ws.posterior).shape == (3, 0, 0) and ws.x.shape == (0, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"rank-one oracle equivalence ({elapsed:.1f}s)")


def test_criterion_2_brute_force_support_search():
    rng = np.random.default_rng(202)
    hits = 0
    for trial in range(100):
        N = 8 if trial % 2 == 0 else 10
        inst = random_instance(rng, M=N, N=N, L=3, k_true=int(rng.integers(0, 4)),
                               snr_db=float(rng.uniform(0, 20)), rho=0.15)
        ws = workspace_of(inst)
        support, ws = greedy_search(ws)
        greedy_score = ln_z(support_vec(N, support.active_set), ws)

        best = 0.0
        for size in range(N + 1):
            for combo in itertools.combinations(range(N), size):
                best = max(best, ln_z(support_vec(N, combo), ws))
        assert greedy_score <= best + 1e-9 * max(1.0, abs(best))
        if abs(greedy_score - best) <= 1e-6 * max(1.0, abs(best)):
            hits += 1

        for k in range(N):  # local optimality, exactly
            flipped = support_vec(N, support.active_set)
            flipped[k] = ~flipped[k]
            assert ln_z(flipped, ws) - greedy_score <= 1e-9
    assert hits >= 90
    report(2, f"brute-force support search (global optimum in {hits}/100)")


def test_criterion_3_noise_averaging_identities():
    rng = np.random.default_rng(303)
    for trial in range(25):
        seed = int(rng.integers(0, 2**31))
        M, L = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        active = tuple(sorted(rng.choice(M, size=int(rng.integers(1, min(M, 4))), replace=False).tolist()))
        Y = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        ref = make_state(np.random.default_rng(seed), M=M, N=M, L=L, active=active, case=NoiseCase.IV)
        update_noise(ref, Y)
        cell = np.asarray(ref.noise.values)
        for case, expected in [
            (NoiseCase.I, cell.mean()),
            (NoiseCase.II, cell.mean(axis=0)),
            (NoiseCase.III, cell.mean(axis=1)),
        ]:
            state = make_state(np.random.default_rng(seed), M=M, N=M, L=L, active=active, case=case)
            update_noise(state, Y)
            got = np.asarray(state.noise.values)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    report(3, "noise-averaging identities")


def test_criterion_4_crb_gradient_check():
    rng = np.random.default_rng(404)
    probes = 0
    while probes < 1000:
        K, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = CrbParameterization(
            omegas=rng.uniform(-3, 3, size=K),
            g=rng.uniform(0.3, 2.0, size=(K, L)),
            phi=rng.uniform(-np.pi, np.pi, size=(K, L)),
        )
        theta0 = np.concatenate([params.omegas, params.g.flatten(order="F"),
                                 params.phi.flatten(order="F")])

        def z_of(theta, m, l):
            om = theta[:K]
            g = theta[K:K + K * L].reshape((K, L), order="F")
            ph = theta[K + K * L:].reshape((K, L), order="F")
            return complex(np.sum(g[:, l] * np.exp(1j * (m * om + ph[:, l]))))

        for _ in range(10):
            m, l = int(rng.integers(0, 8)), int(rng.integers(0, L))
            d_re, d_im = signal_partials(params, m, l)
            h = 1e-6
            for p in range(len(theta0)):
                up = theta0.copy(); up[p] += h
                dn = theta0.copy(); dn[p] -= h
                dz = (z_of(up, m, l) - z_of(dn, m, l)) / (2 * h)
                assert abs(d_re[p] - dz.real) <= 1e-6 * max(1.0, abs(d_re[p]))
                assert abs(d_im[p] - dz.imag) <= 1e-6 * max(1.0, abs(d_im[p]))
            probes += 1

        nu = rng.uniform(0.2, 2.0, size=(8, L))
        info = fim(params, nu)
        assert np.array_equal(info, info.T)
        assert np.linalg.eigvalsh(info).min() >= -1e-9 * np.abs(info).max()

    # structured cases == per-cell formula with a replicated grid, exactly
    params = CrbParameterization(omegas=np.array([0.3, -1.2]), g=np.ones((2, 3)),
                                 phi=np.zeros((2, 3)))
    constant = np.full((6, 3), 0.7)
    assert np.array_equal(fim(params, constant),
                          fim(params, np.broadcast_to(np.full(3, 0.7), (6, 3))))
    report(4, "CRB gradient and structure checks (1000 probes)")


def test_criterion_5_circular_moments_vs_quadrature():
    for kappa in (0.1, 1.0, 10.0, 100.0, 1e4):
        for mu in (0.0, 0.45, -2.3):
            vm = VonMises(mu, kappa)
            a = moment_vector(vm, 33)
            norm = 2.0 * np.pi * ive(0, kappa)
            for m in range(33):
                re = quad(lambda w: np.cos(m * w) * np.exp(kappa * (np.cos(w - mu) - 1.0)),
                          mu - np.pi, mu + np.pi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                im = quad(lambda w: np.sin(m * w) * np.exp(kappa * (np.cos(w - mu) - 1.0)),
                          mu - np.pi, mu + np.pi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                assert abs(a[m] - (re + 1j * im) / norm) <= 1e-8
    report(5, "von Mises moments vs adaptive quadrature")


def test_criterion_6_single_source_statistics():
    t0 = time.perf_counter()
    base = ScenarioConfig(M=20, L=10, K=1, true_omegas=(0.5,), snr_db=20.0,
                          delta_nu_db=0.0, noise_case=NoiseCase.I, seed=606)
    sweep = SweepConfig(base=base, sweep_axis="snr_db", values=(20.0,), trials=200,
                        algorithms=("MVALSE",), include_crb=True)
    table = run_sweep(sweep)
    row = table.rows[0]
    assert row.p_correct_order >= 0.95
    assert row.gated_trials > 0
    assert abs(row.mean_freq_mse_db - row.crb_db) <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, f"single-source statistics (P={row.p_correct_order:.3f}, "
              f"MSE-CRB gap {row.mean_freq_mse_db - row.crb_db:+.2f} dB, {elapsed:.0f}s)")


ALGOS = ("MVALSE", "MVHN-S", "MVHN-A", "MVHN")


def _vc_sweep(case, values, seed, algorithms=ALGOS, trials=50):
    base = ScenarioConfig(noise_case=case, snr_db=5.0, seed=seed, **VC_BASE)
    return run_sweep(SweepConfig(base=base, sweep_axis="snr_db", values=values,
                                 trials=trials, algorithms=algorithms))


def _dominance_and_monotone(table, leader, values):
    p = {(r.algorithm, r.value): r.p_correct_order for r in table.rows}
    for v in values:
        for other in ALGOS:
            assert p[(leader, v)] >= p[(other, v)] - 0.1, (
                f"{leader} not dominant at {v} dB: {p[(leader, v)]:.2f} vs "
                f"{other} {p[(other, v)]:.2f}")
    mse = [r.mean_freq_mse_db for r in table.rows if r.algorithm == leader]
    assert all(np.isfinite(m) for m in mse), f"{leader} has undefined MSE points: {mse}"
    assert all(a > b for a, b in zip(mse, mse[1:])), f"{leader} MSE not decreasing: {mse}"
    return p, mse


def test_criterion_7_trend_reproduction():
    t0 = time.perf_counter()
    values = (0.0, 5.0, 10.0, 15.0)

    table_ii = _vc_sweep(NoiseCase.II, values, seed=701)
    p_ii, mse_ii = _dominance_and_monotone(table_ii, "MVHN-S", values)

    table_iii = _vc_sweep(NoiseCase.III, values, seed=702)
    p_iii, mse_iii = _dominance_and_monotone(table_iii, "MVHN-A", values)

    table_iv = _vc_sweep(NoiseCase.IV, (5.0,), seed=703)
    nmse = {r.algorithm: r.mean_nmse_db for r in table_iv.rows}
    assert nmse["MVHN"] > nmse["MVHN-S"]
    assert nmse["MVHN"] > nmse["MVHN-A"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(7, "reduced-scale trend reproduction "
              f"(II: P={[p_ii[('MVHN-S', v)] for v in values]}, "
              f"III: P={[p_iii[('MVHN-A', v)] for v in values]}, "
              f"IV NMSE: {nmse}; {elapsed:.0f}s)")


def _local_peaks(power_db):
    inner = (power_db[1:-1] > power_db[:-2]) & (power_db[1:-1] >= power_db[2:])
    return np.flatnonzero(inner) + 1


def _has_3db_split(thetas, power_db, lo, hi):
    sel = (thetas >= lo) & (thetas <= hi)
    idx = np.flatnonzero(sel)
    p = power_db[idx]
    peaks = _local_peaks(p)
    for a, b in itertools.combinations(peaks, 2):
        dip = p[min(a, b):max(a, b) + 1].min()
        if p[a] - dip >= 3.0 and p[b] - dip >= 3.0:
            return True
    return False


def test_criterion_8_resolution():
    grid = AngularGrid.uniform(361)
    sep = tuple(theta_to_omega(t) for t in (-40.0, -20.0))
    close = tuple(theta_to_omega(t) for t in (30.0, 35.0))

    # CBF on one fixed realization per geometry (Case II noise)
    cfg_sep = ScenarioConfig(M=20, L=10, K=2, true_omegas=sep, snr_db=5.0,
                             delta_nu_db=15.0, noise_case=NoiseCase.II, seed=801)
    _, snap = synthesize_scene(cfg_sep)
    power_db = 10 * np.log10(cbf_spectrum(snap, grid, normalize=True))
    peaks = _local_peaks(power_db)
    top2 = peaks[np.argsort(power_db[peaks])[::-1][:2]]
    found = np.sort(grid.thetas[top2])
    assert abs(found[0] - (-40.0)) <= 1.0
    assert abs(found[1] - (-20.0)) <= 1.0

    cfg_close = ScenarioConfig(M=20, L=10, K=2, true_omegas=close, snr_db=5.0,
                               delta_nu_db=15.0, noise_case=NoiseCase.II, seed=802)
    _, snap = synthesize_scene(cfg_close)
    power_db = 10 * np.log10(cbf_spectrum(snap, grid, normalize=True))
    assert not _has_3db_split(grid.thetas, power_db, 25.0, 40.0)

    # the matching variational estimators resolve both geometries
    rates = {}
    for algo, case, seed in (("MVHN-S", NoiseCase.II, 803), ("MVHN-A", NoiseCase.III, 804)):
        for name, omegas in (("sep", sep), ("close", close)):
            base = ScenarioConfig(M=20, L=10, K=2, true_omegas=omegas, snr_db=5.0,
                                  delta_nu_db=15.0, noise_case=case, seed=seed)
            table = run_sweep(SweepConfig(base=base, sweep_axis="snr_db", values=(5.0,),
                                          trials=50, algorithms=(algo,)))
            rates[(algo, name)] = table.rows[0].p_correct_order
            assert rates[(algo, name)] >= 0.80, f"{algo}/{name}: {rates[(algo, name)]}"
    report(8, f"CBF resolution + variational pair resolution {rates}")


def test_criterion_9_mc_determinism(tmp_path):
    import json

    from gdoa.cli import main

    sweep_doc = {
        "base": {"M": 12, "L": 6, "true_omegas": [-0.4, 1.1], "snr_db": 10.0,
                 "delta_nu_db": 12.0, "noise_case": "II", "seed": 909},
        "sweep_axis": "delta_nu_db",
        "values": [6.0, 12.0],
        "trials": 3,
        "algorithms": ["MVHN-S", "CBF"],
        "include_crb": True,
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc))
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["mc", "--config", str(cfg), "--out", str(out1), "--seed", "42"]) == 0
    assert main(["mc", "--config", str(cfg), "--out", str(out2), "--seed", "42"]) == 0
    assert main(["mc", "--config", str(cfg), "--out", str(out3), "--seed", "42",
                 "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    report(9, "byte-identical Monte Carlo tables")
