"""Tests of the benchmark itself: its oracle and its smoke mode."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, walsh_lehman  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_walsh_lehman_counts():
    assert [walsh_lehman(g) for g in (1, 2, 3, 4)] == [1, 105, 50050, 56581525]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                           "--workload", workload, "--trace", str(trace)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    if trace:
        for name in WORKLOADS[workload].work:
            assert result["metrics"][name]["value"] > 0
        assert 0 < result["metrics"]["trace.self_frac"]["value"] <= 1
