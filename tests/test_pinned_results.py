"""Pinned end-to-end results: one matched variant per noise case on fixed scenes.

The table holds ``k_hat``, the iteration count and the posterior mean
frequencies (in support order) of full runs.  A change meant to leave the
estimator's results alone keeps the counts equal and every frequency within
1e-8 rad; a change meant to move them updates the table with its reasons.
"""

import numpy as np
import pytest

from gdoa.inference import ALGORITHM_CASES, run
from gdoa.model import NoiseCase, ScenarioConfig, synthesize_scene

PINNED = [
    ("MVALSE", 5.0, 3, 40, (-0.09527896938082492, 2.099002223376571, 0.5019902507897767)),
    ("MVALSE", 15.0, 3, 34, (-0.09859176136734682, 2.099820786812341, 0.5009028964448801)),
    ("MVHN-S", 5.0, 3, 55, (2.0926151795431824, -0.08849536001353364, 0.4941996722212343)),
    ("MVHN-S", 15.0, 3, 38, (2.097139701345739, -0.09608310932503628, 0.49869814949805047)),
    ("MVHN-A", 5.0, 3, 68, (2.1042146552278354, -0.10047124836266086, 0.5356368475550353)),
    ("MVHN-A", 15.0, 3, 66, (2.104118915084145, -0.10029892684041286, 0.5107573606209992)),
    ("MVHN", 5.0, 4, 500, (2.1145367520603573, 0.5053239571922679, -0.13704945965567106, -2.1863263548162637)),
    ("MVHN", 15.0, 3, 500, (2.1136437481318096, -0.09179859132766666, 0.5027369666196626)),
]


@pytest.mark.parametrize("algo, snr_db, k_hat, iterations, omegas", PINNED,
                         ids=[f"{a}-{s:g}dB" for a, s, *_ in PINNED])
def test_results_match_the_pinned_table(algo, snr_db, k_hat, iterations, omegas):
    case = ALGORITHM_CASES[algo]
    cfg = ScenarioConfig(M=20, L=10, K=3, true_omegas=(-0.1, 0.5, 2.1), snr_db=snr_db,
                         delta_nu_db=0.0 if case is NoiseCase.I else 15.0, noise_case=case, seed=7100)
    _, snap = synthesize_scene(cfg)
    result = run(snap, case=case)
    assert (result.k_hat, result.iterations) == (k_hat, iterations)
    assert np.abs(result.omegas - np.array(omegas)).max() <= 1e-8
