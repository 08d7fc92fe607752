"""The benchmark's own contract, run as the benchmark runs it: every
workload's traced pass must exit 0 with no failed item, which covers each
item's checks, the reference digests and the spans expected to record
calls."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["kernel-scan", "smoothed-projector", "random-waves"])
def test_traced_workload_passes(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/workload.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1", "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = {item["item"]: item["failures"] for item in result["items"] if item["failures"]}
    assert failed == {}
    assert result["items"], "no item ran"
