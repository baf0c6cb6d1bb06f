"""Smoke tests: every example script runs end to end.

Examples are documentation that executes; these tests keep them from
rotting.  Each runs in a subprocess with the repo's interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(
    path.name for path in EXAMPLES_DIR.glob("*.py")
)


def _run(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_example_is_covered():
    """If an example is added, give it a smoke test below."""
    assert EXAMPLES == [
        "adaptive_olap.py",
        "append_stream.py",
        "calibrate_cost_model.py",
        "geo_analytics.py",
        "quickstart.py",
        "warehouse_workload.py",
    ]


def test_quickstart():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "hybrid-cut reads" in result.stdout
    assert "operation nodes" in result.stdout


def test_geo_analytics():
    result = _run("geo_analytics.py")
    assert result.returncode == 0, result.stderr
    assert "every plan's answer matched" in result.stdout
    assert "West + Southwest" in result.stdout


def test_warehouse_workload():
    result = _run("warehouse_workload.py")
    assert result.returncode == 0, result.stderr
    assert "10-Cut" in result.stdout
    assert "caches" in result.stdout


def test_calibrate_cost_model():
    result = _run("calibrate_cost_model.py", "200000")
    assert result.returncode == 0, result.stderr
    assert "measured MB" in result.stdout
    assert "paper (150M rows)" in result.stdout


def test_append_stream():
    result = _run("append_stream.py")
    assert result.returncode == 0, result.stderr
    assert "SUM(amount)" in result.stdout
    assert (
        "merge-on-read answer equals scan_answer over all 48,000 rows"
        in result.stdout
    )
    assert "materialization advisor" in result.stdout


def test_adaptive_olap():
    result = _run("adaptive_olap.py")
    assert result.returncode == 0, result.stderr
    assert "SWITCHED cut" in result.stdout
    assert "cut swaps" in result.stdout
