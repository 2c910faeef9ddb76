#!/usr/bin/env python3
"""SNR or noise-fluctuation sweep of all four estimator variants on a three-source scene.

Reduced-scale version of the benchmark protocol: M = 20 antennas, L = 10
snapshots, sources at omega = (-0.1, 0.5, 2.1).  The ``snr_db`` axis keeps a
15 dB noise fluctuation; the ``delta_nu_db`` axis sweeps the spread (in dB)
of the per-snapshot / per-antenna / per-cell noise levels at a fixed 5 dB
nominal SNR.  Writes a plot-ready CSV table.
"""

import argparse
import sys

from gdoa import NoiseCase, ScenarioConfig, SweepConfig
from gdoa.sweep import run_sweep, write_result_table, write_trial_log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--axis", required=True, choices=("snr_db", "delta_nu_db"), help="swept parameter")
    parser.add_argument("--values", type=float, nargs="+", default=[0.0, 5.0, 10.0, 15.0, 20.0])
    parser.add_argument("--case", default="II", help="noise case generating the data")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--crb", action="store_true", help="include the CRB column")
    parser.add_argument("--out", default=None, help="output CSV (default: snr_sweep.csv or delta_nu_sweep.csv)")
    parser.add_argument("--per-trial-log", default=None)
    args = parser.parse_args(argv)

    case = NoiseCase.from_label(args.case)
    if case is NoiseCase.I and args.axis == "delta_nu_db":
        parser.error("Case I has no noise fluctuation to sweep")
    out = args.out or {"snr_db": "snr_sweep.csv", "delta_nu_db": "delta_nu_sweep.csv"}[args.axis]
    base = ScenarioConfig(M=20, L=10, K=3, true_omegas=(-0.1, 0.5, 2.1), snr_db=5.0,
                          delta_nu_db=0.0 if case is NoiseCase.I else 15.0,
                          noise_case=case, seed=args.seed)
    config = SweepConfig(base=base, sweep_axis=args.axis, values=tuple(args.values),
                         trials=args.trials,
                         algorithms=("MVALSE", "MVHN-S", "MVHN-A", "MVHN"),
                         include_crb=args.crb)

    def progress(done, total):
        if done % 20 == 0 or done == total:
            print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)

    table = run_sweep(config, workers=args.workers, progress=progress)
    print(file=sys.stderr)
    write_result_table(out, table)
    if args.per_trial_log:
        write_trial_log(args.per_trial_log, table)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
