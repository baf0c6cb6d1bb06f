"""Unit tests for the observability layer (repro.obs).

Covers the deterministic trace recorder (sequence numbering, span
nesting, the disabled fast path), the metrics registry (counters,
histograms, labels, rendering), and the unified event schema shared by
measured IO and the workload simulator.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_RECORDER,
    HistogramSummary,
    MetricsRegistry,
    NullMetrics,
    NullRecorder,
    TraceCollector,
    TraceEvent,
    collecting_metrics,
    get_metrics,
    get_recorder,
    record,
    recording,
    set_metrics,
    set_recorder,
    span,
)


class TestTraceCollector:
    def test_seq_numbers_are_dense_and_ordered(self):
        collector = TraceCollector()
        for index in range(5):
            collector.emit("test.kind", f"name{index}")
        assert [e.seq for e in collector.events] == [0, 1, 2, 3, 4]
        assert [e.name for e in collector.events] == [
            f"name{i}" for i in range(5)
        ]

    def test_attrs_are_captured(self):
        collector = TraceCollector()
        collector.emit("storage.read", "n7.bm", nbytes=1024)
        event = collector.events[0]
        assert event.kind == "storage.read"
        assert event.attrs == {"nbytes": 1024}

    def test_span_nesting_tracks_depth(self):
        collector = TraceCollector()
        with recording(collector):
            with span("outer"):
                record("mid.event", "x")
                with span("inner"):
                    record("deep.event", "y")
        kinds = [(e.kind, e.name, e.depth) for e in collector.events]
        assert kinds == [
            ("span.start", "outer", 0),
            ("mid.event", "x", 1),
            ("span.start", "inner", 1),
            ("deep.event", "y", 2),
            ("span.end", "inner", 1),
            ("span.end", "outer", 0),
        ]

    def test_span_annotate_attaches_to_end_event(self):
        collector = TraceCollector()
        with recording(collector):
            with span("work", tries=3) as sp:
                sp.annotate(cost_mb=1.5)
        start, end = collector.events
        assert start.attrs == {"tries": 3}
        assert end.attrs == {"cost_mb": 1.5}

    def test_span_records_error_type_on_exception(self):
        collector = TraceCollector()
        with recording(collector):
            with pytest.raises(ValueError):
                with span("work"):
                    raise ValueError("boom")
        end = collector.events[-1]
        assert end.kind == "span.end"
        assert end.attrs["error"] == "ValueError"

    def test_limit_drops_but_keeps_counting(self):
        collector = TraceCollector(limit=2)
        for index in range(5):
            collector.emit("k", f"n{index}")
        assert len(collector.events) == 2
        assert collector.dropped == 3

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            TraceCollector(limit=-1)

    def test_counts_and_filter(self):
        collector = TraceCollector()
        collector.emit("a.x", "1")
        collector.emit("b.y", "2")
        collector.emit("a.x", "3")
        assert collector.counts_by_kind() == {"a.x": 2, "b.y": 1}
        assert [e.name for e in collector.filter("a.x")] == ["1", "3"]

    def test_to_jsonl_round_trips(self):
        collector = TraceCollector()
        collector.emit("storage.read", "n1.bm", nbytes=7)
        lines = collector.to_jsonl().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "storage.read"
        assert parsed["attrs"] == {"nbytes": 7}

    def test_clear_restarts_numbering(self):
        collector = TraceCollector()
        collector.emit("k", "a")
        collector.clear()
        collector.emit("k", "b")
        assert collector.events[0].seq == 0
        assert len(collector) == 1


class TestAmbientRecorder:
    def test_default_is_null_and_disabled(self):
        assert get_recorder() is NULL_RECORDER
        assert not NullRecorder.enabled
        # A no-op recorder swallows everything without error.
        record("any.kind", "name", payload=1)
        with span("untraced"):
            pass

    def test_recording_installs_and_restores(self):
        before = get_recorder()
        with recording() as collector:
            assert get_recorder() is collector
            record("k", "n")
        assert get_recorder() is before
        assert len(collector.events) == 1

    def test_recording_restores_on_exception(self):
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        collector = TraceCollector()
        previous = set_recorder(collector)
        try:
            assert get_recorder() is collector
        finally:
            assert set_recorder(previous) is collector
        assert get_recorder() is previous

    def test_event_str_renders_seq_and_attrs(self):
        event = TraceEvent(
            seq=3, kind="cache.hit", name="n1.bm", attrs={"tier": "lru"}
        )
        rendered = str(event)
        assert "[0003]" in rendered
        assert "cache.hit" in rendered
        assert "tier='lru'" in rendered


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("reads_total")
        metrics.inc("reads_total", 4)
        assert metrics.counter("reads_total") == 5

    def test_labels_partition_counters(self):
        metrics = MetricsRegistry()
        metrics.inc("hits_total", tier="lru")
        metrics.inc("hits_total", tier="pinned")
        metrics.inc("hits_total", tier="lru")
        assert metrics.counter("hits_total", tier="lru") == 2
        assert metrics.counter("hits_total", tier="pinned") == 1
        assert metrics.counter("hits_total") == 0

    def test_counter_sum_adds_matching_label_sets(self):
        metrics = MetricsRegistry()
        metrics.inc("sheds_total", priority="low", kind="refused")
        metrics.inc("sheds_total", 2, priority="low", kind="evicted")
        metrics.inc("sheds_total", priority="high", kind="refused")
        metrics.inc("other_total", priority="low")
        assert metrics.counter_sum("sheds_total") == 4
        assert metrics.counter_sum("sheds_total", priority="low") == 3
        assert metrics.counter_sum("sheds_total", kind="refused") == 2
        assert metrics.counter_sum("sheds_total", priority="none") == 0

    def test_histograms_summarize(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("width", value)
        summary = metrics.histogram("width")
        assert summary.count == 3
        assert summary.min == 1.0
        assert summary.max == 3.0
        assert summary.mean == pytest.approx(2.0)

    def test_empty_histogram_reads_safely(self):
        summary = MetricsRegistry().histogram("never")
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert summary.to_dict()["mean"] == 0.0

    def test_to_dict_is_deterministic_and_prometheus_styled(self):
        metrics = MetricsRegistry()
        metrics.inc("b_total", codec="wah")
        metrics.inc("a_total")
        metrics.observe("lat_seconds", 0.5, algorithm="hcs")
        data = metrics.to_dict()
        assert list(data["counters"]) == ["a_total", "b_total{codec=wah}"]
        assert list(data["histograms"]) == ["lat_seconds{algorithm=hcs}"]
        # Serializes cleanly.
        json.dumps(data)

    def test_to_text_mentions_each_metric(self):
        metrics = MetricsRegistry()
        metrics.inc("reads_total", 3)
        metrics.observe("lat_seconds", 0.25)
        text = metrics.to_text()
        assert "reads_total" in text
        assert "lat_seconds" in text
        assert MetricsRegistry().to_text() == "(no metrics recorded)"

    def test_reset_clears_everything(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.observe("h", 1.0)
        metrics.reset()
        assert metrics.to_dict() == {"counters": {}, "histograms": {}}

    def test_histogram_summary_observe(self):
        summary = HistogramSummary()
        summary.observe(2.0)
        summary.observe(4.0)
        assert summary.total == 6.0
        assert summary.mean == 3.0


class TestAmbientMetrics:
    def test_default_is_null_and_discards(self):
        assert get_metrics() is NULL_METRICS
        assert not NullMetrics.enabled
        get_metrics().inc("ignored_total")
        assert NULL_METRICS.counter("ignored_total") == 0

    def test_collecting_metrics_installs_and_restores(self):
        before = get_metrics()
        with collecting_metrics() as metrics:
            assert get_metrics() is metrics
            get_metrics().inc("seen_total")
        assert get_metrics() is before
        assert metrics.counter("seen_total") == 1

    def test_set_metrics_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            assert get_metrics() is registry
        finally:
            assert set_metrics(previous) is registry


class TestUnifiedEventSchema:
    """Simulated and measured IO share one event schema and pricer."""

    @pytest.fixture
    def sim(self, small_catalog):
        from repro.core.simulate import simulate_workload
        from repro.workload.query import RangeQuery, Workload

        workload = Workload(
            [
                RangeQuery([(0, 3)], label="q0"),
                RangeQuery([(2, 7)], label="q1"),
            ]
        )
        return simulate_workload(
            small_catalog,
            workload,
            cut_node_ids=[small_catalog.hierarchy.root_id],
        )

    def test_to_events_shape(self, sim):
        events = sim.to_events()
        assert [e.kind for e in events] == [
            "sim.pin",
            "sim.query",
            "sim.query",
        ]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[1].name == "q0"
        assert events[1].attrs["reads"] == sim.traces[0].fetched_nodes

    def test_event_pricing_matches_estimated_seconds(self, sim):
        from repro.storage.diskmodel import (
            DiskProfile,
            estimate_seconds_from_events,
        )

        profile = DiskProfile.sata_7200()
        assert estimate_seconds_from_events(
            sim.to_events(), profile
        ) == pytest.approx(sim.estimated_seconds(profile), rel=1e-9)

    def test_measured_storage_reads_price_like_snapshot(
        self, materialized_setup
    ):
        from repro.core.executor import QueryExecutor
        from repro.storage.cache import BufferPool
        from repro.storage.diskmodel import (
            DiskProfile,
            estimate_seconds,
            estimate_seconds_from_events,
        )
        from repro.workload.query import RangeQuery

        _hierarchy, _column, catalog = materialized_setup
        executor = QueryExecutor(
            catalog, BufferPool(catalog.store, budget_bytes=0)
        )
        with recording() as collector:
            executor.execute_query(RangeQuery([(0, 5)]))
        profile = DiskProfile.nvme()
        snapshot = executor.pool.accountant.snapshot()
        assert estimate_seconds_from_events(
            collector.events, profile
        ) == pytest.approx(
            estimate_seconds(snapshot, profile), rel=1e-9
        )

    def test_non_io_events_are_ignored(self):
        from repro.storage.diskmodel import (
            DiskProfile,
            estimate_seconds_from_events,
        )

        events = [
            TraceEvent(seq=0, kind="span.start", name="x"),
            TraceEvent(
                seq=1,
                kind="storage.read",
                name="n1.bm",
                attrs={"nbytes": 2 * (1 << 20)},
            ),
            TraceEvent(seq=2, kind="cache.hit", name="n1.bm"),
        ]
        profile = DiskProfile("flat", seek_ms=0.0, bandwidth_mb_per_s=1.0)
        assert estimate_seconds_from_events(
            events, profile
        ) == pytest.approx(2.0)
