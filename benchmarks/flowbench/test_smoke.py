"""Smoke test: every workload runs small, and the names match BENCHMARK.json.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it with
``python3 -m pytest benchmarks/flowbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.flowbench import ROOT
from benchmarks.flowbench.layers import PER_LAYER
from benchmarks.flowbench.run import spec
from benchmarks.flowbench.workloads import WORKLOADS

SMOKE_PATHS = 300


def run(workload: str, trace: int) -> dict:
    process = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.flowbench", "run",
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--n-paths", str(SMOKE_PATHS),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert process.returncode == 0, process.stdout[-3000:] + process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_layers_the_code_has():
    declared = spec()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["per_layer"]] == [
        name for name, _, _, _ in PER_LAYER
    ]
    assert "setup_s" in [m["name"] for m in declared["end_to_end"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_the_gated_names(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in spec()["end_to_end"]
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_the_per_layer_names():
    result = run("iceberg", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in spec()["per_layer"]
    )
