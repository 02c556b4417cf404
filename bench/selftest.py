"""The benchmark's own checks.

    python bench/selftest.py            # or: python -m pytest bench/selftest.py

Two traced runs of one seed must give identical count metrics, every run
must be correct, and every per-layer metric named in BENCHMARK.json must
appear for every workload.  It runs four traced workload runs, a few
minutes in all; it is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 4242
COUNT_SUFFIXES = (".calls", ".rows", ".subsets", ".ops", ".terms", ".entries")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_every_traced_metric():
    named = {m["name"] for m in benchmark_spec()["per_layer"]}
    assert named == set(tracing.METRICS) | {"trace.overhead_s"}
    assert {w["name"] for w in benchmark_spec()["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_repeat_and_metrics_are_complete():
    named = {m["name"] for m in benchmark_spec()["per_layer"]}
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, (workload, result["failed"])
            missing = named - set(result["metrics"])
            assert not missing, (workload, sorted(missing))
        counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
        assert counts
        for name in counts:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


if __name__ == "__main__":
    test_spec_names_every_traced_metric()
    test_traced_counts_repeat_and_metrics_are_complete()
    print("bench selftest: ok")
