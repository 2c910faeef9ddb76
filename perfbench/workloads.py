"""The three benchmark workloads, their warm-ups and their output checks.

Each workload is a closed loop with one caller: it runs whole rounds of the
same operation mix until the timed part reaches the requested seconds, and
checks each round's outputs outside the timed part.  Inputs come from the
workload seed only; the program receives the generated snapshots or files.

* ``paper-sweep``: ``sweep.run_sweep`` on the paper's reduced protocol; one
  operation is one trial (one scene, five algorithms, one CRB).
* ``wide-array-files``: the ``gdoa estimate`` path in-process; one operation
  is ``io.read_snapshots`` -> ``inference.run`` -> ``io.write_estimation_result``.
* ``crb-scenes``: the ``gdoa crb`` path in-process; one operation is
  ``io.read_scene`` -> ``crb.crb_frequencies`` -> ``io.write_crb_report``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from time import perf_counter

import numpy as np

from gdoa import baselines, crb, inference, model, sweep
from gdoa import io as gio

import reference
from layers import VARIANT_OF_CASE, VARIANTS

# Largest relative deviation accepted between the program and a reference
# formula; both agree to about 1e-15 today.
REFERENCE_TOL = 1e-9
# Largest accepted gap, in dB, between the mean squared frequency error of
# the matched variant over a run and the mean Stoica-Nehorai bound.
CRB_GAP_DB = 6.0

def _mix(seed: int, index: int) -> int:
    """Scene seed of input ``index`` under workload seed ``seed``."""
    return (seed * 1_000_003 + index) & ((1 << 63) - 1)


def _scenario(M, L, omegas, snr_db, case, delta_nu_db, seed) -> model.ScenarioConfig:
    return model.ScenarioConfig(
        M=M, L=L, K=len(omegas), true_omegas=tuple(omegas), snr_db=snr_db,
        delta_nu_db=0.0 if case is model.NoiseCase.I else delta_nu_db,
        noise_case=case, seed=seed,
    )


def estimate_problems(result, N: int) -> list[str]:
    """Properties every estimator run must have."""
    out = []
    if not result.k_hat <= N:
        out.append(f"k_hat {result.k_hat} exceeds the budget {N}")
    if len(result.omegas) != result.k_hat or len(result.kappas) != result.k_hat:
        out.append("estimate count differs from k_hat")
    for label, arr in (("omegas", result.omegas), ("kappas", result.kappas),
                       ("weights", result.weights), ("signal", result.signal)):
        if not np.all(np.isfinite(arr)):
            out.append(f"non-finite {label}")
    noise = np.atleast_1d(np.asarray(result.noise.values, dtype=float))
    if not (np.all(np.isfinite(noise)) and np.all(noise > 0)):
        out.append("noise estimate not finite and positive")
    return out


def crb_problems(block, omegas, weights, noise_variances) -> list[str]:
    ref = reference.stoica_nehorai_crb(omegas, weights, noise_variances)
    err = reference.relative_error(block, ref)
    return [] if err <= REFERENCE_TOL else [f"CRB differs from Stoica-Nehorai by {err:.3g}"]


def single_source_problems() -> list[str]:
    """crb_frequencies and the reference against the K = 1 closed form."""
    cfg = _scenario(32, 40, (0.7,), 5.0, model.NoiseCase.IV, 15.0, seed=11)
    scene, _ = model.synthesize_scene(cfg)
    params = crb.CrbParameterization.from_weights(scene.omegas, scene.weights)
    closed = reference.single_source_crb(scene.weights, scene.noise_variances)
    out = []
    for label, value in (
        ("crb_frequencies", crb.crb_frequencies(params, scene.noise_variances)[0, 0]),
        ("Stoica-Nehorai", reference.stoica_nehorai_crb(scene.omegas, scene.weights,
                                                        scene.noise_variances)[0, 0]),
    ):
        if abs(value - closed) > REFERENCE_TOL * closed:
            out.append(f"K=1: {label} {value!r} differs from the closed form {closed!r}")
    return out


class Workload:
    """Shared bookkeeping; subclasses define the inputs, rounds and checks."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, workdir, recorder):
        self.seed = seed
        self.workdir = workdir
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []           # seconds per successful operation
        self.variant_latencies = {v: [] for v in VARIANTS}
        self.problems: list[str] = []              # run-level check failures
        self.failures: list[str] = []              # first few per-operation failures

    def capture_hooks(self) -> dict:
        """``{(module, attribute): (before, after)}`` hooks the checks need."""
        return {}

    def fail(self, op: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"operation {op}: {why}")

    def finish(self) -> None:
        """Run-level checks, outside the timed part."""

    def report(self) -> list[str]:
        return []


class PaperSweep(Workload):
    """The paper's reduced Monte Carlo protocol, one trial per SNR per round."""

    name = "paper-sweep"
    M, L, OMEGAS = 20, 10, (-0.1, 0.5, 2.1)
    SNRS = (0.0, 5.0, 10.0, 15.0)
    ALGORITHMS = ("MVALSE", "MVHN-S", "MVHN-A", "MVHN", "CBF")
    ops_per_round = len(SNRS)

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        base = _scenario(self.M, self.L, self.OMEGAS, 0.0, model.NoiseCase.II, 15.0, seed=seed)
        self.config = sweep.SweepConfig(base=base, sweep_axis="snr_db", values=self.SNRS, trials=1,
                                        algorithms=self.ALGORITHMS, include_crb=True)
        self.captured: list[tuple] = []
        self.order_hits: list[bool] = []           # MVHN-S order found at the top SNR

    def capture_hooks(self):
        def trial(args, kwargs, result, seconds):
            self.captured.append(("trial", self.rec.op, seconds))

        def run(args, kwargs, result, seconds):
            case = kwargs.get("case", model.NoiseCase.I)
            self.captured.append(("run", self.rec.op, (VARIANT_OF_CASE[case], result, seconds)))

        def cbf(args, kwargs, result, seconds):
            self.captured.append(("cbf", self.rec.op, (args[0], args[1], result)))

        def bound(args, kwargs, result, seconds):
            self.captured.append(("crb", self.rec.op, (args[0], args[1], result)))

        def next_op():
            self.rec.op += 1

        return {("sweep", "run_trial"): (next_op, trial), ("sweep", "run"): (None, run),
                ("sweep", "cbf_spectrum"): (None, cbf), ("sweep", "crb_frequencies"): (None, bound)}

    def round(self, r: int):
        self.captured.clear()
        first = self.rec.op + 1
        try:
            table = sweep.run_sweep(self.config, master_seed=_mix(self.seed, r), workers=1)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            return first, exc
        return first, table

    def check(self, out) -> None:
        first, table = out
        ops = range(first, first + self.ops_per_round)
        self.attempted += self.ops_per_round
        if isinstance(table, Exception):
            for op in ops:
                self.fail(op, f"run_sweep raised {table!r}")
            return
        bad = {op: [] for op in ops}
        latency = {}
        for kind, op, payload in self.captured:
            if kind == "trial":
                latency[op] = payload
            elif kind == "run":
                variant, result, seconds = payload
                bad[op] += estimate_problems(result, self.M)
                self.variant_latencies[variant].append(seconds)
            elif kind == "cbf":
                snap, grid, power = payload
                err = reference.relative_error(power, reference.beam_power(snap.data, grid.thetas))
                if err > REFERENCE_TOL:
                    bad[op].append(f"beam power differs from the direct evaluation by {err:.3g}")
            else:
                params, noise, block = payload
                weights = params.g * np.exp(1j * params.phi)
                bad[op] += crb_problems(block, params.omegas, weights, noise)
        row_problems = rows_problems(table)
        for i, op in enumerate(ops):
            recs = [rec for rec in table.records if rec.value == self.SNRS[i]]
            if len(recs) != len(self.ALGORITHMS):
                bad[op].append(f"{len(recs)} trial records, expected {len(self.ALGORITHMS)}")
            bad[op] += row_problems
            if op not in latency:
                bad[op].append("trial not observed")
        for op in ops:
            if bad[op]:
                self.fail(op, "; ".join(bad[op]))
            else:
                self.latencies.append(latency[op])
        top = max(self.SNRS)
        self.order_hits += [rec.order_correct for rec in table.records
                            if rec.algorithm == "MVHN-S" and rec.value == top]

    def finish(self):
        if self.order_hits and sum(self.order_hits) * 2 <= len(self.order_hits):
            self.problems.append(f"MVHN-S found the order in only {sum(self.order_hits)} of "
                                 f"{len(self.order_hits)} trials at {max(self.SNRS)} dB")
        self.problems += single_source_problems()
        self.problems += sweep_determinism_problems(self.workdir)

    def report(self):
        lines = []
        for variant, values in self.variant_latencies.items():
            lines.append(f"estimate latency {variant}: {latency_summary(values)}")
        lines.append(f"MVHN-S order found at {max(self.SNRS)} dB: "
                     f"{sum(self.order_hits)}/{len(self.order_hits)}")
        return lines


def rows_problems(table) -> list[str]:
    """Recompute every table row from the trial records (linear means, then dB)."""
    def db(values):
        if not values:
            return math.nan
        mean = math.fsum(values) / len(values)
        return -300.0 if mean == 0.0 else 10.0 * math.log10(mean)

    def same(a, b):
        if a is None or b is None:
            return a is b
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    out = []
    for row in table.rows:
        group = [r for r in table.records if r.algorithm == row.algorithm and r.value == row.value]
        gated = [r.freq_sq_error for r in group if r.freq_sq_error is not None]
        traces = [r.crb_trace for r in group if r.crb_trace is not None]
        expected = (
            db([r.nmse for r in group if r.nmse is not None]),
            math.nan if row.algorithm == "CBF" else sum(r.order_correct for r in group) / len(group),
            db(gated),
            len(gated),
            db(traces) if traces else None,
        )
        got = (row.mean_nmse_db, row.p_correct_order, row.mean_freq_mse_db, row.gated_trials, row.crb_db)
        if not all(same(a, b) for a, b in zip(got, expected)):
            out.append(f"row {row.algorithm}@{row.value} does not follow from its trial records")
    return out


def sweep_determinism_problems(workdir) -> list[str]:
    """The table is byte-identical with one and two workers, and follows from its records."""
    base = _scenario(PaperSweep.M, PaperSweep.L, PaperSweep.OMEGAS, 0.0, model.NoiseCase.II, 15.0, seed=5)
    config = sweep.SweepConfig(base=base, sweep_axis="snr_db", values=(0.0, 15.0), trials=3,
                               algorithms=("MVHN-S", "CBF"), include_crb=True)
    blobs, out = [], []
    for workers in (1, 2):
        table = sweep.run_sweep(config, master_seed=3, workers=workers)
        out += rows_problems(table)
        path = os.path.join(workdir, f"determinism-{workers}.csv")
        sweep.write_result_table(path, table)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    if blobs[0] != blobs[1]:
        out.append("sweep table differs between one and two workers")
    return out


class WideArrayFiles(Workload):
    """Snapshot files of a 64-element array, estimated by the matched variant."""

    name = "wide-array-files"
    M, L, SNR_DB, DELTA_NU_DB = 64, 100, 0.0, 15.0
    OMEGAS = (-1.9, -0.8, 0.3, 0.4, 1.2, 2.5)      # 0.3 and 0.4 form the 0.1 rad pair
    POOL = 32
    ops_per_round = 4                              # Case II/III x text/binary

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.inputs = []
        for i in range(self.POOL):
            case = model.NoiseCase.II if i % 2 == 0 else model.NoiseCase.III
            suffix = ".bin" if (i // 2) % 2 else ".txt"
            cfg = _scenario(self.M, self.L, self.OMEGAS, self.SNR_DB, case, self.DELTA_NU_DB, _mix(seed, i))
            scene, snap = model.synthesize_scene(cfg)
            path = os.path.join(workdir, f"snapshots-{i:03d}{suffix}")
            gio.write_snapshots(path, snap)
            bound = np.trace(reference.stoica_nehorai_crb(scene.omegas, scene.weights,
                                                          scene.noise_variances))
            self.inputs.append((path, case, snap.data, scene.omegas, bound))
        self.sq_errors: list[float] = []
        self.bounds: list[float] = []

    def round(self, r: int):
        outs = []
        for j in range(self.ops_per_round):
            i = (r * self.ops_per_round + j) % self.POOL
            path, case = self.inputs[i][:2]
            out_path = os.path.join(self.workdir, f"estimate-{j}.json")
            self.rec.op += 1
            with self.rec.span("op"):
                t0 = perf_counter()
                try:
                    snap = gio.read_snapshots(path)
                    t1 = perf_counter()
                    result = inference.run(snap, case=case)
                    t2 = perf_counter()
                    gio.write_estimation_result(out_path, result, case)
                    t3 = perf_counter()
                except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
                    outs.append((self.rec.op, i, exc, None, None, None))
                    continue
            outs.append((self.rec.op, i, snap, result, out_path, (t3 - t0, t2 - t1)))
        return outs

    def check(self, outs) -> None:
        for op, i, snap, result, out_path, times in outs:
            self.attempted += 1
            if isinstance(snap, Exception):
                self.fail(op, f"raised {snap!r}")
                continue
            _, case, data, omegas, bound = self.inputs[i]
            bad = estimate_problems(result, self.M)
            if not np.array_equal(snap.data, data) or snap.case is not case:
                bad.append("snapshot file did not read back as written")
            with open(out_path) as fh:
                doc = json.load(fh)
            if doc["k_hat"] != result.k_hat or doc["omegas"] != [float(w) for w in result.omegas]:
                bad.append("estimation result file does not match the estimate")
            sq = reference.matched_sq_error(result.omegas, omegas, self.M)
            if sq is None:
                bad.append(f"k_hat={result.k_hat}: order not found or outside the pi/N gate")
            if bad:
                self.fail(op, "; ".join(bad))
                continue
            self.latencies.append(times[0])
            self.variant_latencies[VARIANT_OF_CASE[case]].append(times[1])
            self.sq_errors.append(sq)
            self.bounds.append(bound)

    def crb_gap_db(self) -> float:
        return 10.0 * math.log10(math.fsum(self.sq_errors) / math.fsum(self.bounds))

    def finish(self):
        if self.sq_errors and not abs(self.crb_gap_db()) <= CRB_GAP_DB:
            self.problems.append(f"mean squared frequency error is {self.crb_gap_db():+.2f} dB from "
                                 f"the Stoica-Nehorai bound (limit +-{CRB_GAP_DB} dB)")

    def report(self):
        lines = [f"estimate latency {v}: {latency_summary(self.variant_latencies[v])}"
                 for v in ("MVHN-S", "MVHN-A")]
        if self.sq_errors:
            lines.append(f"matched-variant MSE vs Stoica-Nehorai CRB: {self.crb_gap_db():+.2f} dB "
                         f"over {len(self.sq_errors)} estimates")
        return lines


class CrbScenes(Workload):
    """Scene files of a 32-element array, all four noise cases in turn."""

    name = "crb-scenes"
    M, L, SNR_DB, DELTA_NU_DB = 32, 40, 5.0, 15.0
    OMEGAS = (-1.2, -0.3, 0.6, 1.9)
    CASES = tuple(model.NoiseCase)
    POOL = 24
    ops_per_round = len(CASES)

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.inputs = []
        for i in range(self.POOL):
            case = self.CASES[i % len(self.CASES)]
            cfg = _scenario(self.M, self.L, self.OMEGAS, self.SNR_DB, case, self.DELTA_NU_DB, _mix(seed, i))
            scene, _ = model.synthesize_scene(cfg)
            path = os.path.join(workdir, f"scene-{i:03d}.json")
            gio.write_scene(path, scene)
            self.inputs.append((path, scene))

    def round(self, r: int):
        outs = []
        for j in range(self.ops_per_round):
            i = (r * self.ops_per_round + j) % self.POOL
            out_path = os.path.join(self.workdir, f"crb-{j}.json")
            self.rec.op += 1
            with self.rec.span("op"):
                t0 = perf_counter()
                try:
                    scene = gio.read_scene(self.inputs[i][0])
                    params = crb.CrbParameterization.from_weights(scene.omegas, scene.weights)
                    block = crb.crb_frequencies(params, scene.noise_variances)
                    gio.write_crb_report(out_path, scene.omegas, block,
                                         10.0 * math.log10(float(np.trace(block))))
                    seconds = perf_counter() - t0
                except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
                    outs.append((self.rec.op, i, exc, None, None))
                    continue
            outs.append((self.rec.op, i, block, out_path, seconds))
        return outs

    def check(self, outs) -> None:
        for op, i, block, out_path, seconds in outs:
            self.attempted += 1
            if isinstance(block, Exception):
                self.fail(op, f"raised {block!r}")
                continue
            truth = self.inputs[i][1]
            bad = crb_problems(block, truth.omegas, truth.weights, truth.noise_variances)
            with open(out_path) as fh:
                doc = json.load(fh)
            if doc["crb_frequencies"] != np.asarray(block, dtype=float).tolist():
                bad.append("CRB report does not match the bound")
            if bad:
                self.fail(op, "; ".join(bad))
            else:
                self.latencies.append(seconds)

    def finish(self):
        self.problems += single_source_problems()


WORKLOADS = {w.name: w for w in (PaperSweep, WideArrayFiles, CrbScenes)}


def tail_percentile(n: int) -> int | None:
    """Highest of p75, p90, p95, p99 with at least ten of ``n`` samples beyond it."""
    best = None
    for p in (75, 90, 95, 99):
        if n * (100 - p) >= 1000:
            best = p
    return best


def latency_summary(values) -> str:
    if not values:
        return "no samples"
    ms = [v * 1e3 for v in values]
    text = f"p50 {statistics.median(ms):.1f} ms (n={len(ms)})"
    p = tail_percentile(len(ms))
    return text + (f", p{p} {np.percentile(ms, p):.1f} ms" if p else ", no tail below 40 samples")


def warm_up(name: str, workdir) -> None:
    """Import the program and make one small call into every layer the workload uses."""
    cfg = _scenario(8, 4, (0.5,), 10.0, model.NoiseCase.II, 10.0, seed=1)
    scene, snap = model.synthesize_scene(cfg)
    params = crb.CrbParameterization.from_weights(scene.omegas, scene.weights)
    if name == PaperSweep.name:
        inference.run(snap, case=model.NoiseCase.II)
        crb.crb_frequencies(params, scene.noise_variances)
        baselines.cbf_spectrum(snap, baselines.AngularGrid.uniform(361))
        sweep.run_sweep(sweep.SweepConfig(base=cfg, sweep_axis="snr_db", values=(10.0,), trials=1,
                                          algorithms=("MVALSE", "CBF"), include_crb=True))
    elif name == WideArrayFiles.name:
        for suffix in (".txt", ".bin"):
            path = os.path.join(workdir, f"warm-up{suffix}")
            gio.write_snapshots(path, snap)
            gio.read_snapshots(path)
        result = inference.run(snap, case=model.NoiseCase.II)
        gio.write_estimation_result(os.path.join(workdir, "warm-up.json"), result, model.NoiseCase.II)
    else:
        path = os.path.join(workdir, "warm-up-scene.json")
        gio.write_scene(path, scene)
        gio.read_scene(path)
        block = crb.crb_frequencies(params, scene.noise_variances)
        gio.write_crb_report(os.path.join(workdir, "warm-up-crb.json"), scene.omegas, block, 0.0)
