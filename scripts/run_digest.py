#!/usr/bin/env python3
"""One line per estimator run over a fixed run set, with a digest of its results.

Run it on two versions of the package and compare the outputs:

    PYTHONPATH=src python3 scripts/run_digest.py > after.txt

Each line gives the variant, the scene (noise case, M, L, SNR, seed), ``k_hat``,
the iteration count, ``converged``, the sha256 of the bytes of the posterior
mean frequencies, the concentrations, the weight means and the noise values,
in that order, and last the posterior mean frequencies omega themselves
(``repr``, in support order).

A change meant to leave every estimate bit for bit as it was prints the same
output before and after it, so ``diff`` of the two outputs is the evidence.  A
change that may move the last bits passes when, on every line, ``k_hat``, the
iteration count and ``converged`` are equal and every omega stays within
1e-8 rad, the tolerance of ``tests/test_pinned_results.py``.  The run set is
76 runs:

* M=20, L=10, K=3 at omega = (-0.1, 0.5, 2.1), Cases II and IV, 0/5/10/15 dB,
  seeds 9100-9101, all four variants (64 runs);
* M=64, L=100, K=6 at omega = (-1.9, -0.8, 0.3, 0.4, 1.2, 2.5), Cases II and
  III, 0 dB, seeds 9200-9201, MVALSE, MVHN-S and MVHN-A (12 runs).

Every scene has a 15 dB noise fluctuation.  The BLAS thread pools are pinned
to one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys

import numpy as np

from gdoa.inference import ALGORITHM_CASES, run
from gdoa.model import NoiseCase, ScenarioConfig, synthesize_scene

SMALL = dict(M=20, L=10, omegas=(-0.1, 0.5, 2.1), cases=(NoiseCase.II, NoiseCase.IV),
             snrs=(0.0, 5.0, 10.0, 15.0), seeds=(9100, 9101), variants=tuple(ALGORITHM_CASES))
WIDE = dict(M=64, L=100, omegas=(-1.9, -0.8, 0.3, 0.4, 1.2, 2.5), cases=(NoiseCase.II, NoiseCase.III),
            snrs=(0.0,), seeds=(9200, 9201), variants=("MVALSE", "MVHN-S", "MVHN-A"))
DELTA_NU_DB = 15.0


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
                for variant in spec["variants"]:
                    result = run(snap, case=ALGORITHM_CASES[variant])
                    yield (f"{variant} case={case.value} M={spec['M']} L={spec['L']} snr={snr:g} seed={seed} "
                           f"k_hat={result.k_hat} iterations={result.iterations} "
                           f"converged={int(result.converged)} sha256={digest(result)} "
                           f"omegas={[float(w) for w in result.omegas]!r}")


def main() -> int:
    for spec in (SMALL, WIDE):
        for line in run_set(spec):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
