"""The benchmark's own smoke test, run in the tier-1 suite.

`perfbench/smoke.py` runs every workload at a tiny size, untraced and
traced, and checks their metrics and output checks.  Running it here
means that a change under src/ which breaks a workload's import, a
traced layer name or an output check fails the tests, not only a
benchmark run.  It edits nothing under perfbench/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "smoke: ok"
