import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from gdoa import sweep
from gdoa.model import NoiseCase, ScenarioConfig, synthesize_scene
from gdoa.support_search import NumericalError
from gdoa.sweep import (
    SweepConfig,
    run_sweep,
    run_trial,
    seed_schedule,
    write_result_table,
    write_trial_log,
)


def small_sweep(**over):
    base = ScenarioConfig(M=8, L=4, K=1, true_omegas=(0.8,), snr_db=15.0,
                          delta_nu_db=6.0, noise_case=NoiseCase.II, seed=77)
    kw = dict(base=base, sweep_axis="snr_db", values=(10.0, 20.0), trials=3,
              algorithms=("MVALSE", "MVHN-S"), include_crb=True)
    kw.update(over)
    return SweepConfig(**kw)


class TestSeedSchedule:
    def test_injective_over_a_million_pairs(self):
        seeds = {seed_schedule(1234, t, v) for t in range(2000) for v in range(500)}
        assert len(seeds) == 1_000_000

    def test_master_seed_changes_stream(self):
        assert seed_schedule(1, 0, 0) != seed_schedule(2, 0, 0)

    def test_deterministic(self):
        assert seed_schedule(99, 5, 3) == seed_schedule(99, 5, 3)

    def test_value_index_range_checked(self):
        with pytest.raises(ValueError):
            seed_schedule(0, 0, 1 << 20)
        with pytest.raises(ValueError):
            seed_schedule(0, -1, 0)


class TestTrialPairing:
    def test_algorithms_share_the_scene(self):
        cfg = small_sweep()
        seed = seed_schedule(0, 0, 0)
        records = run_trial(cfg, 10.0, 0, seed)
        assert {r.algorithm for r in records} == {"MVALSE", "MVHN-S"}
        assert len({r.seed for r in records}) == 1
        # same seed renders the same snapshots
        scen = replace(cfg.base, snr_db=10.0, seed=seed)
        _, y1 = synthesize_scene(scen)
        _, y2 = synthesize_scene(scen)
        assert y1.data.tobytes() == y2.data.tobytes()

    def test_crb_shared_across_algorithms(self):
        records = run_trial(small_sweep(), 10.0, 0, 42)
        traces = {r.crb_trace for r in records}
        assert len(traces) == 1 and None not in traces


class TestRunSweep:
    def test_table_layout(self):
        table = run_sweep(small_sweep())
        assert [(r.algorithm, r.value) for r in table.rows] == [
            ("MVALSE", 10.0), ("MVALSE", 20.0), ("MVHN-S", 10.0), ("MVHN-S", 20.0)]
        assert len(table.records) == 2 * 2 * 3

    def test_means_recomputable_from_records(self):
        table = run_sweep(small_sweep())
        for row in table.rows:
            group = [r for r in table.records if r.algorithm == row.algorithm and r.value == row.value]
            nmse = [r.nmse for r in group if r.nmse is not None]
            assert row.mean_nmse_db == 10 * math.log10(float(np.mean(nmse)))
            assert row.p_correct_order == float(np.mean([r.order_correct for r in group]))
            gated = [r.freq_sq_error for r in group if r.freq_sq_error is not None]
            assert row.gated_trials == len(gated)
            if gated:
                assert row.mean_freq_mse_db == 10 * math.log10(float(np.mean(gated)))

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = small_sweep(trials=2)
        t_serial = run_sweep(cfg, workers=1)
        t_pool = run_sweep(cfg, workers=2)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
        write_result_table(p1, t_serial)
        write_result_table(p2, t_pool)
        assert p1.read_bytes() == p2.read_bytes()

    def test_master_seed_override(self):
        cfg = small_sweep(trials=2)
        a = run_sweep(cfg)
        b = run_sweep(cfg, master_seed=1)
        assert a.records[0].seed != b.records[0].seed

    def test_numerical_failure_fails_one_trial(self, tmp_path, monkeypatch):
        cfg = small_sweep(trials=2)
        clean = run_sweep(cfg)
        real_run = sweep.run
        calls = []

        def run_failing_third_call(*args, **kwargs):
            calls.append(kwargs["case"])
            if len(calls) == 3:  # MVALSE on the second trial of the first value
                raise NumericalError("injected")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(sweep, "run", run_failing_third_call)
        tables = []
        for _ in range(2):
            calls.clear()
            tables.append(run_sweep(cfg))
        failed = tables[0].records[2]
        assert (failed.algorithm, failed.value, failed.trial) == ("MVALSE", 10.0, 1)
        assert (failed.k_hat, failed.order_correct, failed.nmse, failed.freq_sq_error) == (0, False, None, None)
        assert failed.crb_trace == clean.records[2].crb_trace
        for i, (got, want) in enumerate(zip(tables[0].records, clean.records)):
            if i != 2:
                assert replace(got, runtime_s=0.0) == replace(want, runtime_s=0.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, table in zip(paths, tables):
            write_result_table(path, table)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eigh_failure_fails_every_estimator_variant(self, monkeypatch):
        # every noise case factors the posterior system by eigh; only CBF avoids it
        cfg = small_sweep(trials=2, include_crb=False, algorithms=("MVALSE", "MVHN-S", "MVHN-A", "MVHN", "CBF"))
        clean = run_sweep(cfg)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        table = run_sweep(cfg)
        assert [r.algorithm for r in table.records] == [r.algorithm for r in clean.records]
        for got, want in zip(table.records, clean.records):
            if got.algorithm in ("MVALSE", "MVHN-S", "MVHN-A", "MVHN"):
                assert (got.k_hat, got.order_correct, got.nmse, got.freq_sq_error) == (0, False, None, None)
            else:
                assert got.algorithm == "CBF"
                assert replace(got, runtime_s=0.0) == replace(want, runtime_s=0.0)

    def test_cbf_rows(self, tmp_path):
        cfg = small_sweep(algorithms=("CBF",), trials=2, include_crb=False)
        table = run_sweep(cfg)
        row = table.rows[0]
        assert math.isnan(row.mean_nmse_db)
        assert math.isnan(row.p_correct_order)
        assert row.crb_db is None
        path = tmp_path / "t.csv"
        write_result_table(path, table)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["mean_nmse_db"] == "nan"
        assert rows[0]["crb_db"] == ""

    def test_trial_log_round_numbers(self, tmp_path):
        table = run_sweep(small_sweep(trials=2))
        path = tmp_path / "log.csv"
        write_trial_log(path, table)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(table.records)
        # linear values in the log reproduce the table means exactly
        first = table.rows[0]
        sel = [float(r["nmse_linear"]) for r in rows
               if r["algorithm"] == first.algorithm and float(r["snr_db"]) == first.value]
        assert 10 * math.log10(float(np.mean(sel))) == first.mean_nmse_db


class TestSweepConfigValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError):
            small_sweep(sweep_axis="nope")

    def test_no_values(self):
        with pytest.raises(ValueError):
            small_sweep(values=())

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_sweep(algorithms=("ESPRIT",))

    def test_zero_trials(self):
        with pytest.raises(ValueError):
            small_sweep(trials=0)
