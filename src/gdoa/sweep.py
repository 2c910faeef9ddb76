"""Monte Carlo sweeps over SNR or noise-fluctuation strength.

Every (trial, value) pair gets one seed from an injective schedule, one
synthesized scene from that seed, and every requested algorithm sees the
same snapshot matrix, so comparisons are paired.  Trials can run across
worker processes; aggregation always happens in (value, trial) order, so the
output table is byte-identical regardless of the worker count.

Aggregated error columns are linear-domain means converted to dB afterwards;
per-trial linear values live in the optional trial log, from which every
table column can be recomputed exactly.  Wall-clock runtimes are kept out of
the table (they would break byte-for-byte reproducibility) and are reported
in memory and in the trial log instead.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import AngularGrid, cbf_spectrum
from .crb import CrbParameterization, SingularFimError, crb_frequencies
from .inference import ALGORITHM_CASES, RunOptions, run
from .metrics import EXACT_DB, gated_freq_mse, nmse_ratio
from .model import ScenarioConfig, synthesize_scene, theta_to_omega
from .support_search import NumericalError

SWEEP_AXES = ("snr_db", "delta_nu_db")
KNOWN_ALGORITHMS = tuple(ALGORITHM_CASES) + ("CBF",)
_MASK64 = (1 << 64) - 1
_VALUE_BITS = 20  # seed schedule supports < 2**20 sweep values per sweep


@dataclass(frozen=True)
class SweepConfig:
    base: ScenarioConfig
    sweep_axis: str
    values: tuple[float, ...]
    trials: int
    algorithms: tuple[str, ...]
    include_crb: bool = False
    output_path: str | None = None

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        unknown = [a for a in self.algorithms if a not in KNOWN_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; expected a subset of {KNOWN_ALGORITHMS}")
        if not self.algorithms:
            raise ValueError("sweep needs at least one algorithm")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))


@dataclass(frozen=True)
class TrialRecord:
    algorithm: str
    value: float
    trial: int
    seed: int
    k_hat: int
    order_correct: bool
    nmse: float | None          # linear ratio; None for CBF
    freq_sq_error: float | None  # linear, only when gated in
    crb_trace: float | None      # linear, shared by all algorithms of the trial
    runtime_s: float


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    value: float
    mean_nmse_db: float          # nan if no valid trials
    p_correct_order: float
    mean_freq_mse_db: float      # nan if no gated trials
    gated_trials: int
    crb_db: float | None         # None when CRB not requested
    mean_runtime_s: float


@dataclass
class ResultTable:
    axis: str
    rows: list[ResultRow]
    records: list[TrialRecord]


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def seed_schedule(master_seed: int, trial_index: int, value_index: int) -> int:
    """Injective per-trial seed (SplitMix64 mixing of an injective pair code)."""
    if not 0 <= value_index < (1 << _VALUE_BITS):
        raise ValueError(f"value_index must be < 2**{_VALUE_BITS}, got {value_index}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    pair = ((trial_index << _VALUE_BITS) | value_index) & _MASK64
    return _splitmix64((master_seed & _MASK64) ^ _splitmix64(pair))


def _cbf_peak_omegas(Y, K: int) -> np.ndarray | None:
    """Top-K local maxima of the standard 361-point beam spectrum, as frequencies."""
    grid = AngularGrid.uniform(361)
    power = cbf_spectrum(Y, grid)
    interior = (power[1:-1] > power[:-2]) & (power[1:-1] >= power[2:])
    peaks = np.flatnonzero(interior) + 1
    if len(peaks) < K:
        return None
    top = peaks[np.argsort(power[peaks])[::-1][:K]]
    return theta_to_omega(grid.thetas[top])


def _estimate(algo: str, snap, K: int, N: int):
    """``(k_hat, omegas, signal)`` of one algorithm; CBF reconstructs no signal, a failed run finds nothing."""
    if algo == "CBF":
        omegas = _cbf_peak_omegas(snap, K)
        return (0, None, None) if omegas is None else (K, omegas, None)
    try:
        result = run(snap, n_components=N, case=ALGORITHM_CASES[algo], options=RunOptions())
    except NumericalError:
        return 0, None, None
    return result.k_hat, result.omegas, result.signal


def run_trial(config: SweepConfig, value: float, trial: int, seed: int) -> list[TrialRecord]:
    """Synthesize one scene and run every requested algorithm on it.

    An estimator run that fails numerically is recorded as a failed trial for
    that algorithm (no components, wrong order, no errors) and the other
    algorithms still run.  A scene without sources has no NMSE.
    """
    scenario = replace(config.base, **{config.sweep_axis: value}, seed=seed)
    scene, snap = synthesize_scene(scenario)
    K, N = scenario.K, scenario.M

    crb_trace = None
    if config.include_crb and K > 0:
        try:
            params = CrbParameterization.from_weights(scene.omegas, scene.weights)
            crb_trace = float(np.trace(crb_frequencies(params, scene.noise_variances)))
        except SingularFimError:
            crb_trace = None

    records = []
    for algo in config.algorithms:
        t0 = time.perf_counter()
        k_hat, omega_hat, signal = _estimate(algo, snap, K, N)
        runtime = time.perf_counter() - t0
        gated = gated_freq_mse(omega_hat, scene.omegas, N) if omega_hat is not None and k_hat == K else None
        records.append(TrialRecord(
            algorithm=algo, value=value, trial=trial, seed=seed, k_hat=k_hat,
            order_correct=signal is not None and k_hat == K,
            nmse=nmse_ratio(signal, scene.clean_signal) if signal is not None and K > 0 else None,
            freq_sq_error=None if gated is None else gated.sq_error,
            crb_trace=crb_trace, runtime_s=runtime,
        ))
    return records


def _trial_job(args):
    config, value_index, trial, master_seed = args
    seed = seed_schedule(master_seed, trial, value_index)
    return run_trial(config, config.values[value_index], trial, seed)


def _db_of_mean(values: list[float]) -> float:
    if not values:
        return math.nan
    mean = float(np.mean(values))
    return EXACT_DB if mean == 0.0 else 10.0 * math.log10(mean)


def run_sweep(config: SweepConfig, master_seed: int | None = None, workers: int = 1) -> ResultTable:
    """Run the full sweep and aggregate into one row per (algorithm, value)."""
    master = config.base.seed if master_seed is None else int(master_seed)
    jobs = [(config, vi, t, master) for vi in range(len(config.values)) for t in range(config.trials)]

    # both maps yield in job order, which is the (value, trial) aggregation order
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so that `import gdoa` loads no multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [rec for recs in pool.map(_trial_job, jobs, chunksize=4) for rec in recs]
    else:
        records = [rec for recs in map(_trial_job, jobs) for rec in recs]

    rows = []
    for algo in config.algorithms:
        for value in config.values:
            group = [r for r in records if r.algorithm == algo and r.value == value]
            nmses = [r.nmse for r in group if r.nmse is not None]
            gated = [r.freq_sq_error for r in group if r.freq_sq_error is not None]
            traces = [r.crb_trace for r in group if r.crb_trace is not None]
            rows.append(ResultRow(
                algorithm=algo,
                value=value,
                mean_nmse_db=_db_of_mean(nmses),
                p_correct_order=(float(np.mean([r.order_correct for r in group]))
                                 if algo != "CBF" else math.nan),
                mean_freq_mse_db=_db_of_mean(gated),
                gated_trials=len(gated),
                crb_db=_db_of_mean(traces) if config.include_crb and traces else None,
                mean_runtime_s=float(np.mean([r.runtime_s for r in group])),
            ))
    return ResultTable(axis=config.sweep_axis, rows=rows, records=records)


def write_result_table(path, table: ResultTable) -> None:
    """Plot-ready CSV, one row per (algorithm, sweep value); fully deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", table.axis, "mean_nmse_db", "p_correct_order",
                         "mean_freq_mse_db", "gated_trials", "crb_db"])
        for row in table.rows:
            writer.writerow([
                row.algorithm,
                repr(row.value),
                repr(row.mean_nmse_db),
                repr(row.p_correct_order),
                repr(row.mean_freq_mse_db),
                row.gated_trials,
                "" if row.crb_db is None else repr(row.crb_db),
            ])


def write_trial_log(path, table: ResultTable) -> None:
    """Per-trial dump carrying the linear values behind every table column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", table.axis, "trial", "seed", "k_hat", "order_correct",
                         "nmse_linear", "freq_sq_error", "gated", "crb_trace", "runtime_s"])
        for r in table.records:
            writer.writerow([
                r.algorithm, repr(r.value), r.trial, r.seed, r.k_hat, int(r.order_correct),
                "" if r.nmse is None else repr(r.nmse),
                "" if r.freq_sq_error is None else repr(r.freq_sq_error),
                int(r.freq_sq_error is not None),
                "" if r.crb_trace is None else repr(r.crb_trace),
                repr(r.runtime_s),
            ])


