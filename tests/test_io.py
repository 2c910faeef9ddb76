import json
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdoa import io
from gdoa.crb import CrbParameterization, crb_frequencies
from gdoa.inference import RunOptions, run
from gdoa.model import NoiseCase, ScenarioConfig, SnapshotMatrix, synthesize_scene


def make_snap(rng, M=5, L=3, case=NoiseCase.II):
    data = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
    return SnapshotMatrix(data=data, case=case)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestSnapshotFormats:
    def test_text_round_trip_bit_exact(self, rng, tmp_path):
        snap = make_snap(rng)
        path = tmp_path / "y.txt"
        io.write_snapshots_text(path, snap)
        back = io.read_snapshots_text(path)
        assert back.data.tobytes() == snap.data.tobytes()
        assert back.case is snap.case

    def test_binary_round_trip_bit_exact(self, rng, tmp_path):
        snap = make_snap(rng, case=NoiseCase.IV)
        path = tmp_path / "y.bin"
        io.write_snapshots_binary(path, snap)
        back = io.read_snapshots_binary(path)
        assert back.data.tobytes() == snap.data.tobytes()
        assert back.case is snap.case

    @given(values=st.lists(finite_floats, min_size=8, max_size=8))
    @example(values=[0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0])
    @settings(max_examples=50, deadline=None)
    def test_round_trip_awkward_floats(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("roundtrip")
        data = (np.array(values[:4]) + 1j * np.array(values[4:])).reshape(2, 2)
        snap = SnapshotMatrix(data=data, case=NoiseCase.I)
        for name in ("a.txt", "a.bin"):
            path = tmp / name
            io.write_snapshots(path, snap)
            assert io.read_snapshots(path).data.tobytes() == snap.data.tobytes()

    def test_format_sniffing(self, rng, tmp_path):
        snap = make_snap(rng)
        io.write_snapshots(tmp_path / "y.bin", snap)
        io.write_snapshots(tmp_path / "y.txt", snap)
        assert io.read_snapshots(tmp_path / "y.bin").data.tobytes() == snap.data.tobytes()
        assert io.read_snapshots(tmp_path / "y.txt").data.tobytes() == snap.data.tobytes()

    def test_text_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5\nII\n")
        with pytest.raises(io.FormatError, match="M L"):
            io.read_snapshots_text(path)

    def test_text_bad_case(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\nVII\n1.0 2.0\n")
        with pytest.raises(ValueError, match="noise case"):
            io.read_snapshots_text(path)

    def test_text_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\nI\n1.0 2.0\n")
        with pytest.raises(io.FormatError, match="data lines"):
            io.read_snapshots_text(path)

    def test_text_bad_float(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\nI\nfoo 2.0\n")
        with pytest.raises(io.FormatError, match="bad float"):
            io.read_snapshots_text(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(io.FormatError, match="magic"):
            io.read_snapshots_binary(path)

    def test_binary_truncated(self, rng, tmp_path):
        snap = make_snap(rng)
        path = tmp_path / "y.bin"
        io.write_snapshots_binary(path, snap)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(io.FormatError, match="bytes"):
            io.read_snapshots_binary(path)

    def test_column_major_layout(self, tmp_path):
        data = np.array([[1 + 10j, 3 + 30j], [2 + 20j, 4 + 40j]])
        io.write_snapshots_text(tmp_path / "y.txt", SnapshotMatrix(data=data, case=NoiseCase.I))
        lines = (tmp_path / "y.txt").read_text().splitlines()
        # snapshot-major: first column (snapshot) first, antennas in order
        assert [ln.split()[0] for ln in lines[2:]] == ["1.0", "2.0", "3.0", "4.0"]


class TestSceneFormat:
    def test_round_trip_exact(self, tmp_path):
        cfg = ScenarioConfig(M=6, L=4, K=2, true_omegas=(0.3, -1.0), snr_db=8.0,
                             delta_nu_db=9.0, noise_case=NoiseCase.IV, seed=3)
        scene, _ = synthesize_scene(cfg)
        path = tmp_path / "scene.json"
        io.write_scene(path, scene)
        back = io.read_scene(path)
        assert back.omegas.tobytes() == scene.omegas.tobytes()
        assert back.weights.tobytes() == scene.weights.tobytes()
        assert back.clean_signal.tobytes() == scene.clean_signal.tobytes()
        assert back.noise_variances.tobytes() == scene.noise_variances.tobytes()

    def test_round_trip_negative_zero_weight(self, tmp_path):
        cfg = ScenarioConfig(M=4, L=2, K=1, true_omegas=(0.3,), snr_db=8.0,
                             delta_nu_db=9.0, noise_case=NoiseCase.II, seed=3)
        scene, _ = synthesize_scene(cfg)
        scene.weights.real[0, 0] = -0.0
        scene.weights.imag[0, 1] = -0.0
        path = tmp_path / "scene.json"
        io.write_scene(path, scene)
        assert io.read_scene(path).weights.tobytes() == scene.weights.tobytes()

    def test_mismatched_complex_parts(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"omegas": [0.1], "weights": {"re": [[1.0, 2.0]], "im": [[0.0]]},'
                        ' "clean_signal": {"re": [], "im": []}, "noise_variances": []}')
        with pytest.raises(io.FormatError, match="'weights'"):
            io.read_scene(path)

    @pytest.mark.parametrize("weights, noise, key", [
        ([[1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], "'weights' has shape"),
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0], "'noise_variances' must be an M x L grid"),
    ])
    def test_inconsistent_shapes_named(self, tmp_path, weights, noise, key):
        path = tmp_path / "scene.json"
        zeros = np.zeros_like(weights).tolist()
        path.write_text(json.dumps({"omegas": [0.1, 0.2], "weights": {"re": weights, "im": zeros},
                                    "noise_variances": noise}))
        with pytest.raises(io.FormatError, match=key):
            io.read_scene(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2]")
        with pytest.raises(io.FormatError, match="expected a JSON object, got list"):
            io.read_scene(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"omegas": [0.1]}')
        with pytest.raises(io.FormatError, match="'weights'"):
            io.read_scene(path)


class TestScenarioConfigFormat:
    def doc(self, **over):
        base = {"M": 8, "L": 4, "true_omegas": [0.1, 0.9], "snr_db": 10.0,
                "delta_nu_db": 6.0, "noise_case": "II", "seed": 7}
        base.update(over)
        return base

    def test_parse_round_trip(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.doc()))
        cfg = io.read_scenario_config(path)
        assert cfg.M == 8 and cfg.K == 2 and cfg.noise_case is NoiseCase.II

    def test_missing_key_named(self):
        doc = self.doc()
        del doc["snr_db"]
        with pytest.raises(io.FormatError, match="'snr_db'"):
            io.parse_scenario(doc)

    def test_theta_variant(self):
        doc = self.doc()
        del doc["true_omegas"]
        doc["true_thetas_deg"] = [30.0]
        cfg = io.parse_scenario(doc)
        assert cfg.true_omegas[0] == pytest.approx(np.pi / 2)

    def test_both_angle_keys_rejected(self):
        doc = self.doc(true_thetas_deg=[10.0])
        with pytest.raises(io.FormatError, match="exactly one"):
            io.parse_scenario(doc)

    def test_k_mismatch(self):
        with pytest.raises(io.FormatError, match="'K'"):
            io.parse_scenario(self.doc(K=3))

    @pytest.mark.parametrize("key, value", [("true_omegas", "0.1"), ("true_thetas_deg", "30")])
    def test_list_keys_must_be_arrays(self, key, value):
        doc = self.doc()
        del doc["true_omegas"]
        doc[key] = value
        with pytest.raises(io.FormatError, match=f"key '{key}': expected a JSON array, got str"):
            io.parse_scenario(doc)

    def test_invalid_values_reported(self):
        with pytest.raises(io.FormatError, match="delta_nu_db"):
            io.parse_scenario(self.doc(delta_nu_db=-1.0))


class TestJsonLayout:
    """The JSON writers emit exactly ``json.dump(doc, fh, indent=1)`` and one newline."""

    @staticmethod
    def streamed_dump(path):
        buf = StringIO()
        json.dump(json.loads(path.read_text()), buf, indent=1)
        buf.write("\n")
        return buf.getvalue().encode()

    @pytest.mark.parametrize("case", list(NoiseCase))
    def test_writers_match_streamed_dump(self, tmp_path, case):
        cfg = ScenarioConfig(M=6, L=4, K=2, true_omegas=(0.3, -1.0), snr_db=8.0,
                             delta_nu_db=0.0 if case is NoiseCase.I else 9.0, noise_case=case, seed=3)
        scene, snap = synthesize_scene(cfg)
        result = run(snap, case=case, options=RunOptions(max_iterations=5))
        block = crb_frequencies(CrbParameterization.from_weights(scene.omegas, scene.weights),
                                scene.noise_variances)
        io.write_scene(tmp_path / "scene.json", scene)
        io.write_estimation_result(tmp_path / "result.json", result, case)
        io.write_crb_report(tmp_path / "crb.json", scene.omegas, block, float(np.trace(block)))
        for name in ("scene.json", "result.json", "crb.json"):
            path = tmp_path / name
            assert path.read_bytes() == self.streamed_dump(path), name


class TestSweepConfigFormat:
    def doc(self, **over):
        base = {
            "base": {"M": 8, "L": 4, "true_omegas": [0.1], "snr_db": 10.0,
                     "delta_nu_db": 6.0, "noise_case": "II", "seed": 1},
            "sweep_axis": "snr_db",
            "values": [0.0, 10.0],
            "trials": 3,
            "algorithms": ["MVALSE", "MVHN-S"],
        }
        base.update(over)
        return base

    def test_parse(self):
        cfg = io.parse_sweep_config(self.doc())
        assert cfg.values == (0.0, 10.0) and cfg.trials == 3

    def test_missing_base(self):
        doc = self.doc()
        del doc["base"]
        with pytest.raises(io.FormatError, match="'base'"):
            io.parse_sweep_config(doc)

    def test_bad_axis(self):
        with pytest.raises(io.FormatError, match="sweep_axis"):
            io.parse_sweep_config(self.doc(sweep_axis="bogus"))

    def test_unknown_algorithm(self):
        with pytest.raises(io.FormatError, match="algorithms"):
            io.parse_sweep_config(self.doc(algorithms=["MUSIC"]))
