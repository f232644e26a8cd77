"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them honest.
The slower scenario scripts are trimmed via environment-free subprocess
runs — they are deterministic, so asserting on key output lines is safe.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 600.0) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Figure 3" in out
    assert "Figure 4" in out
    assert "Most typical complete paths" in out
    assert "factory" in out


@pytest.mark.slow
def test_retail_flow_analysis():
    out = run_example("retail_flow_analysis.py")
    assert "Typical paths" in out
    assert "Redundancy compression" in out
    assert "non-redundant" in out


def test_rfid_etl_pipeline():
    out = run_example("rfid_etl_pipeline.py")
    assert "Location sequences recovered exactly: 400/400" in out
    assert "similarity" in out
    assert "Appended 100 records (1 new partition(s))" in out


@pytest.mark.slow
def test_algorithm_comparison():
    out = run_example("algorithm_comparison.py")
    assert "All three algorithms agree on cells and segments: True" in out
    assert "shared" in out and "basic" in out


@pytest.mark.slow
def test_historic_comparison():
    out = run_example("historic_comparison.py")
    assert "Analyst report" in out
    assert "PDFA" in out
