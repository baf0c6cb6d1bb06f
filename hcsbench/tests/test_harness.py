"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest hcsbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import percentile, stop_children  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 200
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(1, 201), 95) == 190
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 200), 95)
    with pytest.raises(ValueError):
        percentile(range(1, 20), 50)


def test_stop_children_kills_and_reaps_leftovers():
    import multiprocessing
    import os

    # A spawn-started process brings up the resource tracker, as the
    # shard workers do.
    process = multiprocessing.get_context("spawn").Process(target=os.getpid)
    process.start()
    process.join()
    stray = subprocess.Popen(["sleep", "60"])
    assert stop_children() == 1
    assert stray.poll() is not None
    from multiprocessing import resource_tracker

    assert resource_tracker._resource_tracker._pid is None


def test_self_time_is_exact_on_a_nested_trace():
    # root [0, 16) holds a [1, 9) and b [10, 14); a holds a1 [2, 4)
    # and a2 [4, 7) back to back.  Binary fractions keep it exact.
    spans = [
        Span(0, "bench.query", 0.0, 16.0),
        Span(1, "wah.union_all", 1.0, 9.0, parent=0),
        Span(2, "cache.get", 2.0, 4.0, parent=1),
        Span(3, "serialization.deserialize_wah", 4.0, 7.0, parent=1),
        Span(4, "wah.andnot", 10.0, 14.0, parent=0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0}
    assert sum(self_times(spans).values()) == spans[0].duration


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "gateway.run_batch", 0.0, 8.0),
        Span(1, "wah.to_positions", 1.0, 5.0, parent=0),
        Span(2, "wah.to_positions", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == 3.0


def test_reads_inside_union_all_generator_nest_under_it():
    import numpy as np

    import repro.bitmap.wah as wah
    from repro import BitmapFileStore, BufferPool, Hierarchy
    from repro import MaterializedNodeCatalog, QueryExecutor, RangeQuery

    original = wah.WahBitmap.__dict__["union_all"]
    hierarchy = Hierarchy.from_nested([[3, 3], [2, 4]])
    column = np.random.default_rng(0).integers(0, 12, size=2_000)
    catalog = MaterializedNodeCatalog(hierarchy, column, BitmapFileStore())
    executor = QueryExecutor(catalog, BufferPool(catalog.store))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        with tracer.span("bench.query", "q0"):
            executor.execute_query(RangeQuery([(1, 4)]))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert wah.WahBitmap.__dict__["union_all"] is original
    spans = {span.span_id: span for span in tracer.take()}
    reads = [s for s in spans.values() if s.name == "cache.get"]
    assert reads and all(
        spans[s.parent].name == "wah.union_all" for s in reads
    )
    assert {s.request for s in spans.values()} == {"q0"}
