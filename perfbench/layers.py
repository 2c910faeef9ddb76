"""Which of the program's functions are wrapped, and the per-layer metrics built from them."""

from __future__ import annotations

import os
import statistics

from gdoa import crb, inference, model, sweep
from gdoa import io as gio

MODULES = {"inference": inference, "sweep": sweep, "crb": crb, "io": gio}

# (module, attribute as its caller looks it up, span name by defining module)
LAYER_SPANS = [
    ("inference", "compute_jh", "support_search.compute_jh"),
    ("inference", "make_workspace", "support_search.make_workspace"),
    ("inference", "greedy_search", "support_search.greedy_search"),
    ("inference", "approximate_posterior", "circular.approximate_posterior"),
    ("inference", "moment_vector", "circular.moment_vector"),
    ("inference", "update_noise", "inference.update_noise"),
    ("inference", "update_frequencies", "inference.update_frequencies"),
    ("inference", "run", "inference.run"),
    ("sweep", "run", "inference.run"),
    ("sweep", "run_trial", "sweep.run_trial"),
    ("sweep", "synthesize_scene", "model.synthesize_scene"),
    ("sweep", "cbf_spectrum", "baselines.cbf_spectrum"),
    ("sweep", "gated_freq_mse", "metrics.gated_freq_mse"),
    ("sweep", "crb_frequencies", "crb.crb_frequencies"),
    ("crb", "crb_frequencies", "crb.crb_frequencies"),
    ("crb", "fim", "crb.fim"),
    ("io", "read_snapshots", "io.read_snapshots"),
    ("io", "write_estimation_result", "io.write_estimation_result"),
    ("io", "read_scene", "io.read_scene"),
    ("io", "write_crb_report", "io.write_crb_report"),
]

VARIANTS = tuple(inference.ALGORITHM_CASES)
VARIANT_OF_CASE = {case: name for name, case in inference.ALGORITHM_CASES.items()}

# (metric, span it is measured on, statistic); every value is per operation
# except fim_dim (mean per FIM) and the per-variant medians.
PER_LAYER = [
    ("support_search.compute_jh.ms", "support_search.compute_jh", "ms"),
    ("support_search.make_workspace.ms", "support_search.make_workspace", "ms"),
    ("support_search.greedy_search.ms", "support_search.greedy_search", "ms"),
    ("support_search.flips", "support_search.greedy_search", "count"),
    ("circular.approximate_posterior.ms", "circular.approximate_posterior", "ms"),
    ("circular.approximate_posterior.calls", "circular.approximate_posterior", "calls"),
    ("circular.moment_vector.ms", "circular.moment_vector", "ms"),
    ("inference.run.self_ms", "inference.run", "self_ms"),
    ("inference.update_noise.ms", "inference.update_noise", "ms"),
    ("inference.update_frequencies.ms", "inference.update_frequencies", "ms"),
    ("inference.iterations", "inference.run", "count"),
    ("inference.capped_runs", "inference.run", "count"),
    ("crb.crb_frequencies.ms", "crb.crb_frequencies", "ms"),
    ("crb.fim.ms", "crb.fim", "ms"),
    ("crb.fim_dim", "crb.fim", "mean"),
    ("io.read_snapshots.ms", "io.read_snapshots", "ms"),
    ("io.write_estimation_result.ms", "io.write_estimation_result", "ms"),
    ("io.read_scene.ms", "io.read_scene", "ms"),
    ("io.write_crb_report.ms", "io.write_crb_report", "ms"),
    ("io.bytes_read", "io.read_snapshots", "count"),
    ("io.bytes_written", "io.write_estimation_result", "count"),
    ("baselines.cbf_spectrum.ms", "baselines.cbf_spectrum", "ms"),
    ("model.synthesize_scene.ms", "model.synthesize_scene", "ms"),
    ("metrics.gated_freq_mse.ms", "metrics.gated_freq_mse", "ms"),
    ("sweep.run_trial.self_ms", "sweep.run_trial", "self_ms"),
] + [(f"inference.run.p50_ms.{v}", "inference.run", "median") for v in VARIANTS]


def install(rec, workload, samples) -> None:
    """Wrap every layer boundary: the workload's capture hooks always, counting hooks when tracing.

    ``samples`` collects ``inference.run`` seconds per variant in the traced run.
    """
    counting = _counting_hooks(rec, samples) if rec.tracing else {}
    capturing = workload.capture_hooks()
    for module, attr, name in LAYER_SPANS:
        before, capture = capturing.get((module, attr), (None, None))
        hooks = [h for h in (capture, counting.get((module, attr))) if h is not None]

        def after(args, kwargs, result, seconds, hooks=hooks):
            for hook in hooks:
                hook(args, kwargs, result, seconds)

        rec.wrap(MODULES[module], attr, name, before=before, after=after if hooks else None)


def _counting_hooks(rec, samples) -> dict:
    def flips(args, kwargs, result, seconds):
        rec.count("support_search.flips", result[1].flips)

    def run(args, kwargs, result, seconds):
        options = kwargs.get("options") or inference.RunOptions()
        rec.count("inference.iterations", result.iterations)
        rec.count("inference.capped_runs", int(not result.converged
                                               and result.iterations >= options.max_iterations))
        samples[VARIANT_OF_CASE[kwargs.get("case", model.NoiseCase.I)]].append(seconds)

    def fim(args, kwargs, result, seconds):
        rec.count("crb.fim_dim", args[0].dim)

    def read(args, kwargs, result, seconds):
        rec.count("io.bytes_read", os.path.getsize(args[0]))

    def write(args, kwargs, result, seconds):
        rec.count("io.bytes_written", os.path.getsize(args[0]))

    return {("inference", "greedy_search"): flips, ("inference", "run"): run, ("sweep", "run"): run,
            ("crb", "fim"): fim, ("io", "read_snapshots"): read, ("io", "read_scene"): read,
            ("io", "write_estimation_result"): write, ("io", "write_crb_report"): write}


def metrics(rec, ops: int, samples) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the metrics whose span the program no longer has."""
    total, self_ns, calls = rec.totals()
    out, absent = {}, []
    for metric, span, stat in PER_LAYER:
        if span in rec.absent:
            absent.append(metric)
            continue
        if stat == "ms":
            value, unit = total[span] / 1e6 / ops, "ms/op"
        elif stat == "self_ms":
            value, unit = self_ns[span] / 1e6 / ops, "ms/op"
        elif stat == "calls":
            value, unit = calls[span] / ops, "count/op"
        elif stat == "count":
            value, unit = rec.counts[metric] / ops, "count/op"
        elif stat == "mean":
            value, unit = (rec.counts[metric] / calls[span] if calls[span] else 0.0), "count"
        else:
            values = samples[metric.rsplit(".", 1)[1]]
            value, unit = (statistics.median(values) * 1e3 if values else 0.0), "ms"
        out[metric] = {"value": value, "unit": unit}
    return out, absent
