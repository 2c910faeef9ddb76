import csv
import json

import numpy as np
import pytest

import gdoa.cli
import gdoa.crb
from gdoa import io
from gdoa.cli import main
from gdoa.model import SnapshotMatrix
from gdoa.support_search import NumericalError


def write_scenario(path, **over):
    doc = {"M": 8, "L": 4, "true_omegas": [0.8], "snr_db": 20.0,
           "delta_nu_db": 6.0, "noise_case": "II", "seed": 5}
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


def write_sweep(path, scenario_doc=None, **over):
    doc = {
        "base": scenario_doc or {"M": 8, "L": 4, "true_omegas": [0.8], "snr_db": 15.0,
                                 "delta_nu_db": 6.0, "noise_case": "II", "seed": 5},
        "sweep_axis": "snr_db",
        "values": [10.0, 20.0],
        "trials": 2,
        "algorithms": ["MVALSE", "MVHN-S"],
        "include_crb": True,
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


class TestSynthEstimate:
    def test_synth_writes_pair(self, tmp_path):
        cfg = write_scenario(tmp_path / "cfg.json")
        out = tmp_path / "demo"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "demo.scene.json").exists()
        assert (tmp_path / "demo.snapshots.txt").exists()

    def test_estimate_round_trips_dimensions(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path / "cfg.json")
        out = tmp_path / "demo"
        main(["synth", "--config", str(cfg), "--out", str(out)])
        result_path = tmp_path / "result.json"
        code = main(["estimate", str(tmp_path / "demo.snapshots.txt"),
                     "--algo", "MVHN-S", "--out", str(result_path)])
        assert code == 0
        doc = json.loads(result_path.read_text())
        assert doc["k_hat"] == len(doc["omegas"]) == len(doc["kappas"])
        assert len(doc["signal"]["re"]) == 8 and len(doc["signal"]["re"][0]) == 4
        assert doc["assumed_case"] == "II"

    def test_estimate_by_case(self, tmp_path):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        code = main(["estimate", str(tmp_path / "d.snapshots.txt"),
                     "--algo", "MVHN-A", "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["assumed_case"] == "III"

    def test_estimate_rejects_unknown_algorithm(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        code = main(["estimate", str(tmp_path / "d.snapshots.txt"),
                     "--algo", "MUSIC", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error: unknown algorithm 'MUSIC'" in capsys.readouterr().err

    def test_binary_snapshots(self, tmp_path):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"), "--binary"])
        snap = io.read_snapshots(tmp_path / "d.snapshots.bin")
        assert snap.data.shape == (8, 4)

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_is_clean_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])

        def failing(*args, **kwargs):
            raise NumericalError("posterior system not invertible")

        monkeypatch.setattr(gdoa.cli, "run", failing)
        code = main(["estimate", str(tmp_path / "d.snapshots.txt"), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error: posterior system not invertible" in capsys.readouterr().err

    def test_case_ii_factorisation_failure_is_clean_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        code = main(["estimate", str(tmp_path / "d.snapshots.txt"), "--algo", "MVHN-S",
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "r.json").exists()
        assert err.startswith("error: posterior system not positive definite: Eigenvalues did not converge")
        assert "Traceback" not in err

    @pytest.mark.parametrize("shape", [(1, 4), (4, 0)], ids=["one-antenna", "no-snapshot"])
    def test_too_small_array_names_the_cause(self, tmp_path, capsys, shape):
        path = tmp_path / "y.txt"
        io.write_snapshots(path, SnapshotMatrix(np.ones(shape, dtype=complex)))
        code = main(["estimate", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: snapshot matrix needs at least 2 antennas (rows) and 1 snapshot, got shape {shape}\n")

    def test_overflowing_power_names_the_cause(self, tmp_path, capsys):
        path = tmp_path / "y.txt"
        io.write_snapshots(path, SnapshotMatrix(np.full((4, 3), 1e300, dtype=complex)))
        code = main(["estimate", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: sample power overflows float64; rescale the snapshots\n"

    def test_malformed_config_names_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"M": 8, "L": 4, "true_omegas": [0.1], "noise_case": "II"}))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "snr_db" in capsys.readouterr().err


class TestMalformedInput:
    """Bad values exit 1 with a message that names the file and the key, never a traceback."""

    @pytest.mark.parametrize("over, key", [
        ({"true_omegas": 0.1}, "true_omegas"),
        ({"true_omegas": ["a"]}, "true_omegas"),
        ({"M": "x"}, "M"),
        ({"seed": [1]}, "seed"),
        ({"amplitude": {"mag_mean": "big"}}, "mag_mean"),
        ({"M": 8.9}, "M"),
        ({"M": "8"}, "M"),
        ({"L": True}, "L"),
        ({"K": 1.0}, "K"),
        ({"seed": 1.7}, "seed"),
        ({"amplitude": 5}, "amplitude"),
        ({"snr_db": "10"}, "snr_db"),
        ({"delta_nu_db": False}, "delta_nu_db"),
        ({"true_omegas": [True]}, "true_omegas"),
        ({"amplitude": {"mag_mean": "1.5"}}, "mag_mean"),
    ], ids=["omegas-scalar", "omegas-string", "M-string", "seed-list", "mag-mean-string",
            "M-fraction", "M-numeric-string", "L-bool", "K-float", "seed-fraction", "amplitude-number",
            "snr-numeric-string", "delta-nu-bool", "omegas-bool", "mag-mean-numeric-string"])
    def test_synth_names_key(self, tmp_path, capsys, over, key):
        cfg = write_scenario(tmp_path / "cfg.json", **over)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}") and f"key '{key}'" in err

    @pytest.mark.parametrize("over, key", [
        ({"values": 5}, "values"),
        ({"values": ["hot"]}, "values"),
        ({"algorithms": "MVALSE"}, "algorithms"),
        ({"trials": "many"}, "trials"),
        ({"trials": 2.5}, "trials"),
        ({"include_crb": "false"}, "include_crb"),
        ({"include_crb": 0}, "include_crb"),
        ({"output_path": 5}, "output_path"),
        ({"base": [1]}, "base"),
    ], ids=["values-scalar", "values-string", "algorithms-string", "trials-string",
            "trials-fraction", "include-crb-string", "include-crb-int", "output-path-number", "base-list"])
    def test_mc_names_key(self, tmp_path, capsys, over, key):
        sweep = write_sweep(tmp_path / "sweep.json", **over)
        assert main(["mc", "--config", str(sweep), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep}") and f"key '{key}'" in err

    @pytest.mark.parametrize("doc, cause", [
        (5, "expected a JSON object, got int"),
        ({"omegas": ["a"], "weights": {"re": [], "im": []}, "noise_variances": [[1.0]]}, "key 'omegas'"),
        ({"omegas": ["0.5"], "weights": {"re": [[1.0]], "im": [[0.0]]}, "noise_variances": [[0.1]]},
         "key 'omegas'"),
        ({"omegas": [0.5], "weights": {"re": [[True, 1.0]], "im": [[0.0, 0.0]]},
          "noise_variances": [[0.1, 0.1]]}, "key 'weights'"),
        ({"omegas": [0.5], "weights": {"re": [[1.0, 1.0]], "im": [[0.0, 0.0]]},
          "noise_variances": [["1e-2", 0.1], [0.1, 0.1]]}, "key 'noise_variances'"),
    ], ids=["number", "omegas-string", "omegas-numeric-string", "weights-bool", "variances-numeric-string"])
    def test_crb_names_cause(self, tmp_path, capsys, doc, cause):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        assert main(["crb", str(path), "--out", str(tmp_path / "crb.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and cause in err


class TestCbfCrb:
    def test_cbf_table(self, tmp_path):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        out = tmp_path / "powers.csv"
        assert main(["cbf", str(tmp_path / "d.snapshots.txt"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_deg,power"
        assert len(lines) == 362

    def test_crb_report(self, tmp_path):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        out = tmp_path / "crb.json"
        assert main(["crb", str(tmp_path / "d.scene.json"), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.isfinite(doc["trace_db"])
        assert len(doc["crb_frequencies"]) == 1

    def test_crb_computed_once(self, tmp_path, monkeypatch):
        cfg = write_scenario(tmp_path / "cfg.json")
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        calls = []
        real = gdoa.cli.crb_frequencies

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # patch both names so that a second bound built inside gdoa.crb is counted too
        monkeypatch.setattr(gdoa.cli, "crb_frequencies", counting)
        monkeypatch.setattr(gdoa.crb, "crb_frequencies", counting)
        out = tmp_path / "crb.json"
        assert main(["crb", str(tmp_path / "d.scene.json"), "--out", str(out)]) == 0
        assert len(calls) == 1
        doc = json.loads(out.read_text())
        assert doc["trace_db"] == 10 * np.log10(np.trace(np.array(doc["crb_frequencies"])))


class TestMc:
    def test_sweep_and_determinism(self, tmp_path):
        sweep = write_sweep(tmp_path / "sweep.json")
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(["mc", "--config", str(sweep), "--out", str(out1), "--seed", "3"]) == 0
        assert main(["mc", "--config", str(sweep), "--out", str(out2), "--seed", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("algorithm,snr_db")
        assert len(lines) == 5  # header + 2 algos x 2 values

    def test_per_trial_log(self, tmp_path):
        sweep = write_sweep(tmp_path / "sweep.json")
        log = tmp_path / "log.csv"
        code = main(["mc", "--config", str(sweep), "--out", str(tmp_path / "t.csv"),
                     "--per-trial-log", str(log)])
        assert code == 0
        assert len(log.read_text().splitlines()) == 1 + 2 * 2 * 2

    def test_trials_override(self, tmp_path):
        sweep = write_sweep(tmp_path / "sweep.json")
        log = tmp_path / "log.csv"
        main(["mc", "--config", str(sweep), "--out", str(tmp_path / "t.csv"),
              "--trials", "1", "--per-trial-log", str(log)])
        assert len(log.read_text().splitlines()) == 1 + 2 * 2

    def test_zero_source_sweep(self, tmp_path):
        scenario = {"M": 8, "L": 4, "true_omegas": [], "snr_db": 15.0, "noise_case": "I", "seed": 5}
        sweep = write_sweep(tmp_path / "sweep.json", scenario, algorithms=["MVALSE", "CBF"])
        out = tmp_path / "t.csv"
        assert main(["mc", "--config", str(sweep), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["mean_nmse_db"] for row in rows] == ["nan"] * 4
        assert [(row["mean_freq_mse_db"], row["gated_trials"]) for row in rows] == [("nan", "0")] * 4
        assert all(0.0 <= float(row["p_correct_order"]) <= 1.0 for row in rows if row["algorithm"] == "MVALSE")

    def test_output_path_required(self, tmp_path, capsys):
        sweep = write_sweep(tmp_path / "sweep.json")
        assert main(["mc", "--config", str(sweep)]) == 1
        assert "output path" in capsys.readouterr().err

    def test_config_output_path_used(self, tmp_path):
        target = tmp_path / "from_config.csv"
        sweep = write_sweep(tmp_path / "sweep.json", output_path=str(target))
        assert main(["mc", "--config", str(sweep)]) == 0
        assert target.exists()
