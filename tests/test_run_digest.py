"""The comparison rule of ``scripts/run_digest.py``, on hand-written digest lines."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

SCRIPT = Path(__file__).parents[1] / "scripts" / "run_digest.py"
_spec = importlib.util.spec_from_file_location("run_digest", SCRIPT)
run_digest = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the script pins the BLAS pools in os.environ; keep that out of other tests
    _spec.loader.exec_module(run_digest)

SHA = "0" * 64


def line(run, k_hat=2, iterations=40, converged=1, omegas=(0.5, -3.1)):
    return (f"{run} k_hat={k_hat} iterations={iterations} converged={converged} sha256={SHA} "
            f"omegas={[float(w) for w in omegas]!r}\n")


SAME = "MVALSE case=II M=20 L=10 snr=0 seed=9100"
MOVED = "MVHN case=IV M=20 L=10 snr=5 seed=9101"
LONGER = "MVHN-S case=II M=64 L=100 snr=0 seed=9200"
BEFORE = [line(SAME), line(MOVED), line(LONGER)]
AFTER = [line(SAME), line(MOVED, omegas=(0.5 + 2e-8, -3.1)), line(LONGER, iterations=41)]


def test_identical_outputs_pass():
    report, failures = run_digest.compare(BEFORE, BEFORE)
    assert failures == []
    assert report[0] == "3/3 lines byte-identical"
    assert all(entry.endswith("largest omega move 0 rad") for entry in report[1:])


def test_each_failing_line_is_named_with_its_cause():
    report, failures = run_digest.compare(BEFORE, AFTER)
    assert report[0] == "1/3 lines byte-identical"
    assert failures == [f"FAIL {MOVED}: omega moved by 2e-08 rad", f"FAIL {LONGER}: iterations 40 -> 41"]


def test_a_move_within_the_tolerance_passes_and_is_reported():
    report, failures = run_digest.compare([line(MOVED)], [line(MOVED, omegas=(0.5 + 5e-9, -3.1))])
    assert failures == []
    assert report == ["0/1 lines byte-identical", "MVHN: 0/1 byte-identical, largest omega move 5e-09 rad"]


def test_byte_identical_lines_are_counted_per_variant():
    other = "MVALSE case=IV M=20 L=10 snr=5 seed=9101"
    before = BEFORE + [line(other)]
    after = [line(SAME), line(MOVED, omegas=(0.5 + 5e-9, -3.1)), line(LONGER), line(other)]
    report, failures = run_digest.compare(before, after)
    assert failures == []
    assert report == ["3/4 lines byte-identical",
                      "MVALSE: 2/2 byte-identical, largest omega move 0 rad",
                      "MVHN: 0/1 byte-identical, largest omega move 5e-09 rad",
                      "MVHN-S: 1/1 byte-identical, largest omega move 0 rad"]


def test_angles_are_compared_on_the_circle():
    _, failures = run_digest.compare([line(MOVED, omegas=(-3.141592653589793,))],
                                     [line(MOVED, omegas=(3.141592653589793 - 1e-12,))])
    assert failures == []


def test_main_exits_1_on_a_failing_line(tmp_path, capsys):
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    before.write_text("".join(BEFORE))
    after.write_text("".join(AFTER))
    assert run_digest.main([str(before), str(before)]) == 0
    assert run_digest.main([str(before), str(after)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {MOVED}" in out and f"FAIL {LONGER}" in out and f"FAIL {SAME}" not in out
