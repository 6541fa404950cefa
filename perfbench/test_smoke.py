"""Smoke test of the benchmark itself: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_the_runner():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS


def test_broken_request_counts_as_failed(tmp_path):
    """A new cell with a NaN feature must be refused; answering it is a failure."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dataclasses

    import numpy as np
    import workloads
    from spans import Tracer

    run = workloads.Run(ROOT, tmp_path, seed=3, tiny=True, tracer=Tracer())
    dep = workloads.WORKLOADS["predict"].setup(run, tmp_path, 0)
    cell, row = dep.requests[0]

    workloads.serve_burst(run, dataclasses.replace(dep, requests=[(cell, row)]), 1)
    assert (run.attempted, run.failures) == (2, [])

    broken = row.copy()
    broken[dep.graph.features.columns.index("tx_power")] = np.nan
    workloads.serve_burst(run, dataclasses.replace(dep, requests=[(cell, broken)]), 1)
    assert run.attempted == 4
    assert len(run.failures) == 2  # one answer per model, both for a cell that should be refused
    assert all("non-finite feature" in failure for failure in run.failures)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory with only the benchmark, the run fails without printing a result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for source in HERE.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
