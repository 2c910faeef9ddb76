"""The program keeps every name the benchmark wraps.

``perfbench/layers.py`` wraps program functions by (module, attribute) and
leaves out of a traced run every per-layer metric whose wrapped name is
gone, so a renamed or deleted function silently drops metrics that
``BENCHMARK.json`` declares.  The benchmark files are only read here.
"""

import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    """``perfbench/layers.py`` run from its source text, so that nothing is written beside it."""
    path = ROOT / "perfbench" / "layers.py"
    module = types.ModuleType("perfbench_layers")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    layers = load_layers()
    missing = [f"{module}.{attr}" for module, attr, _ in layers.LAYER_SPANS
               if not callable(getattr(layers.MODULES[module], attr, None))]
    assert missing == []


def test_every_declared_layer_metric_is_measured_on_a_wrapped_span():
    layers = load_layers()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    spans = {name for _, _, name in layers.LAYER_SPANS}
    assert {metric for metric, _, _ in layers.PER_LAYER} == declared
    assert {span for _, span, _ in layers.PER_LAYER} <= spans
