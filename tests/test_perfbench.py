"""The benchmark's own correctness checks pass on the engine.

`perfbench/run.py --seconds 0` runs one timed operation and the workload's
checks: for inference, the frame against the benchmark's float64 reference
and the reference's perturbed-weight self-check; for training, the full
overfit64 run's training-set mIoU and its logged poly learning rates. So an
engine change that the benchmark would report as failed or incorrect fails
here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


@pytest.fixture(scope="module", autouse=True)
def _remove_empty_work_dir():
    """Each run removes only its own folder under .perfbench_work/; drop the
    parent folder too if these runs made it and left it empty."""
    existed = WORK.exists()
    yield
    if not existed and WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def _check_workload(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    # Every end-to-end metric the benchmark declares is printed, finite and
    # positive, in its declared unit.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{workload} prints no {metric['name']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0, got
        assert got["unit"] == metric["unit"], got


def test_infer_360p_checks_pass():
    _check_workload("infer_360p")


def test_infer_1080p_checks_pass():
    """The only tier-1 check of the 1920x1088 paths (the tail conv split
    over the pool, multi-band chains, full-size prediction) against the
    benchmark's float64 reference."""
    _check_workload("infer_1080p")


def test_train_desk64_checks_pass():
    _check_workload("train_desk64")
