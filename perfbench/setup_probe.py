"""Import gdoa and warm up one workload's layers; run.py times this in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch directory>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - needs the path above

workloads.warm_up(sys.argv[1], sys.argv[2])
