"""Command-line interface.

Subcommands:

* ``synth``    -- synthesize a scene + snapshot file pair from a scenario config
* ``estimate`` -- run one estimator variant on a snapshot file
* ``cbf``      -- write the conventional beam-power table for a snapshot file
* ``crb``      -- write the frequency CRB for a scene file
* ``mc``       -- run a Monte Carlo sweep and write the result table

Exit code 0 on success; any error prints a message to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import io
from .baselines import AngularGrid, cbf_spectrum
from .crb import CrbParameterization, crb_frequencies
from .inference import ALGORITHM_CASES, RunOptions, run
from .model import synthesize_scene
from .support_search import NumericalError
from .sweep import run_sweep, write_result_table, write_trial_log


def _add_synth(sub):
    p = sub.add_parser("synth", help="synthesize a scene and snapshot file pair")
    p.add_argument("--config", required=True, help="scenario config (JSON)")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.scene.json and <out>.snapshots.txt")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--binary", action="store_true", help="write the snapshot matrix in the binary format")
    p.set_defaults(func=_cmd_synth)


def _cmd_synth(args) -> int:
    config = io.read_scenario_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    scene, snap = synthesize_scene(config)
    scene_path = f"{args.out}.scene.json"
    snap_path = f"{args.out}.snapshots." + ("bin" if args.binary else "txt")
    io.write_scene(scene_path, scene)
    io.write_snapshots(snap_path, snap)
    print(f"wrote {scene_path} and {snap_path}")
    return 0


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="run one estimator variant on a snapshot file")
    p.add_argument("snapshots", help="snapshot file (text or binary)")
    p.add_argument("--algo", default="MVALSE", help="MVALSE | MVHN-S | MVHN-A | MVHN (default: MVALSE)")
    p.add_argument("--budget", type=int, default=None, help="component budget N (default: antenna count)")
    p.add_argument("--out", required=True, help="output estimation result (JSON)")
    p.set_defaults(func=_cmd_estimate)


def _cmd_estimate(args) -> int:
    if args.algo not in ALGORITHM_CASES:
        raise ValueError(f"unknown algorithm {args.algo!r}; expected one of {sorted(ALGORITHM_CASES)}")
    case = ALGORITHM_CASES[args.algo]
    snap = io.read_snapshots(args.snapshots)
    result = run(snap, n_components=args.budget, case=case, options=RunOptions())
    io.write_estimation_result(args.out, result, case)
    print(f"wrote {args.out} (K_hat={result.k_hat}, iterations={result.iterations})")
    return 0


def _add_cbf(sub):
    p = sub.add_parser("cbf", help="write the conventional beam-power table")
    p.add_argument("snapshots", help="snapshot file (text or binary)")
    p.add_argument("--grid-count", type=int, default=361, help="number of uniform bearing grid points")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_cbf)


def _cmd_cbf(args) -> int:
    snap = io.read_snapshots(args.snapshots)
    grid = AngularGrid.uniform(args.grid_count)
    power = cbf_spectrum(snap, grid)
    io.write_cbf_table(args.out, grid, power)
    print(f"wrote {args.out}")
    return 0


def _add_crb(sub):
    p = sub.add_parser("crb", help="write the frequency CRB for a scene")
    p.add_argument("scene", help="scene file (JSON)")
    p.add_argument("--out", required=True, help="output report (JSON)")
    p.set_defaults(func=_cmd_crb)


def _cmd_crb(args) -> int:
    scene = io.read_scene(args.scene)
    params = CrbParameterization.from_weights(scene.omegas, scene.weights)
    block = crb_frequencies(params, scene.noise_variances)
    io.write_crb_report(args.out, scene.omegas, block, 10.0 * np.log10(np.trace(block)))
    print(f"wrote {args.out}")
    return 0


def _add_mc(sub):
    p = sub.add_parser("mc", help="run a Monte Carlo sweep")
    p.add_argument("--config", required=True, help="sweep config (JSON)")
    p.add_argument("--out", default=None, help="output table CSV (overrides config output_path)")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--per-trial-log", default=None, help="also dump one CSV row per trial")
    p.set_defaults(func=_cmd_mc)


def _cmd_mc(args) -> int:
    config = io.read_sweep_config(args.config)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    out = args.out or config.output_path
    if out is None:
        raise ValueError("no output path: give --out or set 'output_path' in the sweep config")
    table = run_sweep(config, master_seed=args.seed, workers=max(1, args.workers))
    write_result_table(out, table)
    if args.per_trial_log:
        write_trial_log(args.per_trial_log, table)
    runtimes = ", ".join(f"{row.algorithm}@{row.value:g}: {row.mean_runtime_s:.3f}s"
                         for row in table.rows)
    print(f"wrote {out}", file=sys.stdout)
    print(f"mean runtimes: {runtimes}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdoa",
                                     description="grid-less DOA estimation under heteroscedastic noise")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_estimate(sub)
    _add_cbf(sub)
    _add_crb(sub)
    _add_mc(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
