"""gdoa benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 28 --trace 0

Runs against the checkout's ``src/`` without installing it, in one process,
with the BLAS/OpenMP thread pools pinned to one thread.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the program's layer boundaries are wrapped,
spans are written to ``.perfbench_out/<workload>/spans.csv`` and the JSON
object carries the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up probes per untraced run, spread over the timed part so that their
# median sees the same host load as the operations.
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("paper-sweep", "wide-array-files", "crb-scenes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(workload: str, workdir: Path) -> float:
    """Seconds for a fresh interpreter to import gdoa and warm up the workload's layers."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)],
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gdoa" / "__init__.py").is_file():
        print(f"perfbench: no gdoa package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times = []
    probes = 0 if args.trace else SETUP_REPEATS

    import layers
    import spans
    import workloads

    workloads.warm_up(args.workload, str(workdir))
    rec = spans.Recorder(tracing=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir), rec)
    samples = {v: [] for v in layers.VARIANTS}
    layers.install(rec, workload, samples)
    busy, r = 0.0, 0
    try:
        while busy < args.seconds:
            # Probe k runs once a share k / probes of the timed part is done.
            while len(setup_times) < probes and len(setup_times) * args.seconds <= busy * probes:
                setup_times.append(time_setup(args.workload, workdir))
            t0 = perf_counter()
            out = workload.round(r)
            busy += perf_counter() - t0
            workload.check(out)
            r += 1
    finally:
        rec.restore()
    while len(setup_times) < probes:
        setup_times.append(time_setup(args.workload, workdir))
    rss = peak_rss_mb()
    workload.finish()

    done = workload.attempted - workload.failed
    if args.trace:
        rec.write(workdir / "spans.csv")
        metrics, absent = layers.metrics(rec, max(done, 1), samples)
        if absent:
            print("absent (the program no longer has the name): " + ", ".join(absent))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "op_p50_ms": {"value": statistics.median(workload.latencies) * 1e3 if done else 0.0,
                          "unit": "ms"},
        }
    print(f"{args.workload} seed={args.seed}: {workload.attempted} operations in {r} rounds, "
          f"{busy:.2f} s timed ({done / busy:.4f} ops/s, tracing {'on' if args.trace else 'off'}), "
          f"{workload.failed} failed")
    print(f"operation latency: {workloads.latency_summary(workload.latencies)}")
    for line in workload.report() + workload.failures + workload.problems:
        print(line)
    print(json.dumps({"correct": not workload.problems, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
