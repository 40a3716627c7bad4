"""The benchmark's own checks pass on this checkout.

``perfbench/selfcheck.py`` checks the tracer's contract with the package:
every traced function is found at each module attribute bound to it, and a
traced canonicalize op records nested layer spans (at least two
``cholesky_lower`` spans in an h6 op).  Running it here makes a change that
breaks that contract fail the tests, not only the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
