"""The benchmark's own correctness checks pass on the engine.

`perfbench/run.py --seconds 0` runs one timed frame, checks it against the
benchmark's float64 reference and runs the reference's perturbed-weight
self-check, so an engine change that the benchmark would report as failed
or incorrect fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_infer_360p_checks_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_360p", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
