"""Smoke test of the perf benchmark: every workload at about 1/50 of its
size, untraced and traced, under every output check.

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_runs_every_workload_and_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "suite.py"), "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(out.read_text())
    runs = doc["runs"]
    assert {r["workload"] for r in runs} == {w["name"] for w in bench["workloads"]}
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1 for r in runs)
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, metrics in doc["summary"].items():
        assert set(metrics) == declared, workload
    for name in ("nproc", "cpu_count", "python", "numpy", "blas_threads", "git_commit"):
        assert name in doc["host"]
