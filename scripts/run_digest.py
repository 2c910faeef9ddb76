#!/usr/bin/env python3
"""One line per estimator run over a fixed run set, with a digest of its results.

Run it on two versions of the package and compare the outputs:

    PYTHONPATH=src python3 scripts/run_digest.py > after.txt
    PYTHONPATH=src python3 scripts/run_digest.py before.txt after.txt

Each line gives the variant, the scene (noise case, M, L, SNR, seed), ``k_hat``,
the iteration count, ``converged``, the sha256 of the bytes of the posterior
mean frequencies, the concentrations, the weight means and the noise values,
in that order, and last the posterior mean frequencies omega themselves
(``repr``, in support order).

A change meant to leave every estimate bit for bit as it was prints the same
output before and after it, so ``diff`` of the two outputs is the evidence.  A
change that may move the last bits passes when, on every line, ``k_hat``, the
iteration count and ``converged`` are equal and every omega stays within
1e-8 rad, the tolerance of ``tests/test_pinned_results.py``.  Given two such
outputs, the script applies that rule: it prints how many lines are
byte-identical, in all and per variant, and the largest omega move per
variant, names each line that fails, and exits 1 if any does.  The run set is
80 runs, all four variants on each scene:

* M=20, L=10, K=3 at omega = (-0.1, 0.5, 2.1), Cases II and IV, 0/5/10/15 dB,
  seeds 9100-9101 (64 runs);
* M=64, L=100, K=6 at omega = (-1.9, -0.8, 0.3, 0.4, 1.2, 2.5), Cases II and
  III, 0 dB, seeds 9200-9201 (16 runs; each MVHN run there takes seconds and
  stops at the iteration cap).

Every scene has a 15 dB noise fluctuation.  The BLAS thread pools are pinned
to one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast
import hashlib
import math
import re
import sys
from collections import Counter

import numpy as np

from gdoa.inference import ALGORITHM_CASES, run
from gdoa.model import NoiseCase, ScenarioConfig, synthesize_scene

SMALL = dict(M=20, L=10, omegas=(-0.1, 0.5, 2.1), cases=(NoiseCase.II, NoiseCase.IV),
             snrs=(0.0, 5.0, 10.0, 15.0), seeds=(9100, 9101))
WIDE = dict(M=64, L=100, omegas=(-1.9, -0.8, 0.3, 0.4, 1.2, 2.5), cases=(NoiseCase.II, NoiseCase.III),
            snrs=(0.0,), seeds=(9200, 9201))
DELTA_NU_DB = 15.0
OMEGA_TOL = 1e-8
LINE = re.compile(r"(?P<run>.*?) k_hat=(?P<k_hat>\S+) iterations=(?P<iterations>\S+) "
                  r"converged=(?P<converged>\S+) sha256=\S+ omegas=(?P<omegas>.*)")


def digest(result) -> str:
    h = hashlib.sha256()
    for part in (result.omegas, result.kappas, result.weights, result.noise.values):
        h.update(np.ascontiguousarray(part, dtype=float if np.isrealobj(part) else complex).tobytes())
    return h.hexdigest()


def run_set(spec):
    for case in spec["cases"]:
        for snr in spec["snrs"]:
            for seed in spec["seeds"]:
                cfg = ScenarioConfig(M=spec["M"], L=spec["L"], K=len(spec["omegas"]),
                                     true_omegas=spec["omegas"], snr_db=snr, delta_nu_db=DELTA_NU_DB,
                                     noise_case=case, seed=seed)
                _, snap = synthesize_scene(cfg)
                for variant in ALGORITHM_CASES:
                    result = run(snap, case=ALGORITHM_CASES[variant])
                    yield (f"{variant} case={case.value} M={spec['M']} L={spec['L']} snr={snr:g} seed={seed} "
                           f"k_hat={result.k_hat} iterations={result.iterations} "
                           f"converged={int(result.converged)} sha256={digest(result)} "
                           f"omegas={[float(w) for w in result.omegas]!r}")


def parse(lines) -> dict:
    """Map each run (variant and scene) to its line and its parsed fields."""
    runs = {}
    for line in lines:
        line = line.rstrip("\n")
        match = LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"not a digest line: {line!r}")
        runs[match["run"]] = (line, match)
    return runs


def compare(before, after) -> tuple[list[str], list[str]]:
    """Report lines and failure lines for two digest outputs, under the rule in the module docstring."""
    old, new = parse(before), parse(after)
    failures = [f"FAIL {run}: missing after" for run in old if run not in new]
    failures += [f"FAIL {run}: not in before" for run in new if run not in old]
    compared, identical, moves = Counter(), Counter(), {}
    for run, (line, a) in old.items():
        if run not in new:
            continue
        b = new[run][1]
        variant = run.split()[0]
        compared[variant] += 1
        identical[variant] += line == new[run][0]
        changed = [f"{key} {a[key]} -> {b[key]}" for key in ("k_hat", "iterations", "converged") if a[key] != b[key]]
        if changed:
            failures.append(f"FAIL {run}: " + ", ".join(changed))
            continue
        # wrapped to [-pi, pi): a mean direction near the seam may change sign
        move = max((abs(math.remainder(x - y, 2.0 * math.pi)) for x, y in
                    zip(ast.literal_eval(a["omegas"]), ast.literal_eval(b["omegas"]))), default=0.0)
        moves[variant] = max(moves.get(variant, 0.0), move)
        if not move <= OMEGA_TOL:
            failures.append(f"FAIL {run}: omega moved by {move:.3g} rad")
    report = [f"{identical.total()}/{len(old)} lines byte-identical"]
    # a variant none of whose lines kept k_hat, iterations and converged has no omega move: nan
    report += [f"{variant}: {identical[variant]}/{n} byte-identical, "
               f"largest omega move {moves.get(variant, math.nan):.3g} rad" for variant, n in compared.items()]
    return report, failures


def main(argv) -> int:
    if len(argv) == 2:
        with open(argv[0]) as before, open(argv[1]) as after:
            report, failures = compare(before, after)
        print("\n".join(report + failures))
        return 1 if failures else 0
    if argv:
        print("usage: run_digest.py [BEFORE AFTER]", file=sys.stderr)
        return 2
    for spec in (SMALL, WIDE):
        for line in run_set(spec):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
