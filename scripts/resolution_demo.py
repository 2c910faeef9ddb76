#!/usr/bin/env python3
"""Beam-power vs variational estimates for a well-separated and a close pair.

Synthesizes two-source scenes at 5 dB nominal SNR with 15 dB noise
fluctuation, prints the conventional beamformer peaks next to the
variational estimates, and optionally dumps the beam-power curves as CSV.
"""

import argparse
import sys

import numpy as np

from gdoa import (
    ALGORITHM_CASES,
    AngularGrid,
    NoiseCase,
    ScenarioConfig,
    cbf_spectrum,
    omega_to_theta,
    run,
    synthesize_scene,
    theta_to_omega,
)
from gdoa.io import write_cbf_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="II", help="noise case of the synthesized data (II or III)")
    parser.add_argument("--algo", default=None, help="estimator variant (default: matches --case)")
    parser.add_argument("--seed", type=int, default=801)
    parser.add_argument("--out-prefix", default=None, help="write <prefix>_<pair>.csv beam tables")
    args = parser.parse_args(argv)

    case = NoiseCase.from_label(args.case)
    algo = args.algo or {NoiseCase.II: "MVHN-S", NoiseCase.III: "MVHN-A"}.get(case, "MVALSE")
    grid = AngularGrid.uniform(361)

    for name, thetas in (("separated", (-40.0, -20.0)), ("close", (30.0, 35.0))):
        omegas = tuple(theta_to_omega(t) for t in thetas)
        cfg = ScenarioConfig(M=20, L=10, K=2, true_omegas=omegas, snr_db=5.0,
                             delta_nu_db=15.0, noise_case=case, seed=args.seed)
        scene, snap = synthesize_scene(cfg)

        power = cbf_spectrum(snap, grid)
        power = power / power.max()
        power_db = 10 * np.log10(power)
        inner = (power_db[1:-1] > power_db[:-2]) & (power_db[1:-1] >= power_db[2:])
        peaks = np.flatnonzero(inner) + 1
        top = peaks[np.argsort(power_db[peaks])[::-1][:2]]

        result = run(snap, case=ALGORITHM_CASES[algo])
        est = sorted(float(omega_to_theta(w)) for w in result.omegas)
        sigmas = [np.degrees(1 / np.sqrt(k)) if k > 0 else float("inf") for k in result.kappas]

        print(f"{name} pair, truth {thetas} deg, data case {case.value}")
        print(f"  CBF top-2 peaks: {sorted(np.round(grid.thetas[top], 2).tolist())} deg")
        print(f"  {algo}: K_hat={result.k_hat}, thetas={np.round(est, 3).tolist()} deg, "
              f"posterior sigmas ~{np.round(sorted(sigmas), 4).tolist()} deg")
        if args.out_prefix:
            path = f"{args.out_prefix}_{name}.csv"
            write_cbf_table(path, grid, power)
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
