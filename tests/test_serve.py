"""Tests for the concurrent batch executor (``repro.serve``).

Everything the serial loop guarantees must survive the thread fan-out:
answers, ordering, per-query IO attribution, trace determinism, and
exact reconciliation with the shared accountant.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.executor import QueryExecutor, scan_answer
from repro.core.multi import select_cut_multi
from repro.errors import QueryFailedError
from repro.experiments.common import (
    hierarchy_for,
    leaf_probabilities_for,
)
from repro.serve import BatchExecutor
from repro.storage.accounting import IOSnapshot
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog
from repro.storage.faults import FaultPolicy
from repro.storage.filestore import BitmapFileStore
from repro.workload.datagen import sample_column
from repro.workload.generator import fraction_workload
from repro.workload.query import RangeQuery, Workload

QUERIES = [
    RangeQuery([(0, 2)]),
    RangeQuery([(3, 11)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 9), (12, 14)]),
    RangeQuery([(7, 7)]),
    RangeQuery([(1, 13)]),
]


def _cut_for(catalog, queries):
    return select_cut_multi(
        catalog, Workload(queries)
    ).cut.node_ids


def _fresh_executor(catalog) -> QueryExecutor:
    return QueryExecutor(catalog, BufferPool(catalog.store))


class TestBatchCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_answers_match_the_column_scan(
        self, materialized_setup, workers
    ):
        _hierarchy, column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=workers
        ).run(QUERIES, cut)
        for query, result in zip(QUERIES, report.results):
            assert result.answer == scan_answer(column, query)

    def test_outcomes_come_back_in_query_order(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=4
        ).run(QUERIES, cut)
        assert [o.index for o in report.outcomes] == list(
            range(len(QUERIES))
        )

    def test_concurrent_results_match_the_serial_oracle(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        serial = BatchExecutor(
            _fresh_executor(catalog), max_workers=1
        ).run(QUERIES, cut)
        concurrent = BatchExecutor(
            _fresh_executor(catalog), max_workers=8
        ).run(QUERIES, cut)
        for ours, theirs in zip(
            concurrent.outcomes, serial.outcomes
        ):
            assert (
                ours.result.answer.words
                == theirs.result.answer.words
            )

    def test_empty_batch(self, materialized_setup):
        _hierarchy, _column, catalog = materialized_setup
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=4
        ).run([])
        assert report.outcomes == ()
        assert report.reconciles()

    def test_max_workers_validated(self, materialized_setup):
        _hierarchy, _column, catalog = materialized_setup
        with pytest.raises(ValueError):
            BatchExecutor(_fresh_executor(catalog), max_workers=0)


class TestWorkersReporting:
    """``BatchReport.workers`` is the count actually used, not the
    configured maximum (regression: it used to echo ``max_workers``)."""

    def test_workers_clamped_to_batch_size(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=32
        ).run(QUERIES, cut)
        assert report.workers == len(QUERIES)

    def test_serial_degeneration_reports_one_worker(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        single = BatchExecutor(
            _fresh_executor(catalog), max_workers=8
        ).run(QUERIES[:1], cut)
        assert single.workers == 1
        empty = BatchExecutor(
            _fresh_executor(catalog), max_workers=8
        ).run([])
        assert empty.workers == 1

    def test_workers_reported_when_pool_smaller_than_batch(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=4
        ).run(QUERIES, cut)
        assert report.workers == 4


class _FailingExecutor(QueryExecutor):
    """Raises for queries whose label marks them as poisoned."""

    def execute_query(self, query, cut_node_ids=(), **kwargs):
        if query.label == "poison":
            raise ValueError("injected query failure")
        return super().execute_query(
            query, cut_node_ids, **kwargs
        )


class TestFailureIsolation:
    """One raising query must not abort its siblings (regression:
    ``tpe.map`` used to propagate the first exception and discard
    every other outcome)."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_healthy_queries_survive_a_failing_sibling(
        self, materialized_setup, workers
    ):
        _hierarchy, column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        batch = list(QUERIES)
        batch.insert(2, RangeQuery([(0, 3)], label="poison"))
        report = BatchExecutor(
            _FailingExecutor(catalog, BufferPool(catalog.store)),
            max_workers=workers,
        ).run(batch, cut)
        assert len(report.outcomes) == len(batch)
        assert not report.ok
        assert len(report.errors) == 1
        failed = report.outcomes[2]
        assert failed.result is None
        assert not failed.ok
        assert isinstance(failed.error, QueryFailedError)
        assert failed.error.query_index == 2
        assert failed.error.error_type == "ValueError"
        for index, outcome in enumerate(report.outcomes):
            if index == 2:
                continue
            assert outcome.ok
            assert outcome.result.answer == scan_answer(
                column, batch[index]
            )
        assert report.reconciles()

    def test_results_raises_the_first_failure(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        batch = [
            QUERIES[0],
            RangeQuery([(0, 3)], label="poison"),
        ]
        report = BatchExecutor(
            _FailingExecutor(catalog, BufferPool(catalog.store)),
            max_workers=2,
        ).run(batch)
        with pytest.raises(QueryFailedError) as excinfo:
            report.results
        assert excinfo.value.query_index == 1

    def test_query_failed_error_survives_pickling(self):
        import pickle

        error = QueryFailedError(
            3, "ChecksumError", "payload mismatch", shard_id=1
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.query_index == 3
        assert clone.error_type == "ChecksumError"
        assert clone.shard_id == 1
        assert str(clone) == str(error)


class TestReconcileFaultCounters:
    """``reconciles()`` must balance the fault path, not just useful
    bytes (regression: a retry charged to the wrong accountant used to
    pass)."""

    @staticmethod
    def _snapshot(**overrides) -> IOSnapshot:
        base = dict(
            bytes_read=0,
            read_count=0,
            reads_by_name={},
            retry_count=0,
            discarded_bytes=0,
            discard_count=0,
            bytes_by_name={},
        )
        base.update(overrides)
        return IOSnapshot(**base)

    def _report(self, pin_io, outcome_io, total_io):
        from repro.serve import BatchReport, QueryOutcome

        outcome = QueryOutcome(
            index=0,
            result=None,
            io=outcome_io,
            events=(),
            wall_seconds=0.0,
        )
        return BatchReport(
            outcomes=(outcome,),
            pin_io=pin_io,
            io=total_io,
            wall_seconds=0.0,
            workers=1,
        )

    def test_unattributed_retry_fails_reconciliation(self):
        report = self._report(
            self._snapshot(),
            self._snapshot(),
            self._snapshot(retry_count=1),
        )
        assert not report.reconciles()

    def test_unattributed_discard_fails_reconciliation(self):
        report = self._report(
            self._snapshot(),
            self._snapshot(),
            self._snapshot(discarded_bytes=64, discard_count=1),
        )
        assert not report.reconciles()

    def test_balanced_fault_counters_reconcile(self):
        report = self._report(
            self._snapshot(retry_count=1),
            self._snapshot(
                retry_count=2, discarded_bytes=64, discard_count=1
            ),
            self._snapshot(
                retry_count=3, discarded_bytes=64, discard_count=1
            ),
        )
        assert report.reconciles()


class TestAttribution:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_io_reconciles_exactly(
        self, materialized_setup, workers
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=workers
        ).run(QUERIES, cut)
        assert report.reconciles()
        assert (
            report.pin_io.bytes_read + report.attributed_bytes
            == report.io.bytes_read
        )

    def test_singleflight_never_reads_more_than_serial(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        serial = BatchExecutor(
            _fresh_executor(catalog), max_workers=1
        ).run(QUERIES, cut)
        concurrent = BatchExecutor(
            _fresh_executor(catalog), max_workers=8
        ).run(QUERIES, cut)
        assert (
            concurrent.io.bytes_read <= serial.io.bytes_read
        )
        assert (
            concurrent.io.read_count <= serial.io.read_count
        )

    def test_per_query_io_matches_a_solo_run(
        self, materialized_setup
    ):
        """Each outcome's attributed IO equals what the same query
        costs alone on an identically-warmed pool."""
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        batch = BatchExecutor(
            _fresh_executor(catalog), max_workers=1
        ).run(QUERIES, cut)
        for query, outcome in zip(QUERIES, batch.outcomes):
            executor = _fresh_executor(catalog)
            executor.pin_cut(cut)
            solo = BatchExecutor(executor, max_workers=1).run(
                [query], cut, pin=False, node_is_cached=True
            )
            # The serial batch warms the pool's unbounded LRU as it
            # goes, so later queries may read strictly less than a
            # solo cold run — never more.
            assert (
                outcome.io.bytes_read
                <= solo.outcomes[0].io.bytes_read
            )


class TestTraceDeterminism:
    def test_serial_merged_events_identical_across_runs(
        self, materialized_setup
    ):
        """The 1-worker merge is a byte-identical replay oracle."""
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)

        def run_once():
            report = BatchExecutor(
                _fresh_executor(catalog), max_workers=1
            ).run(QUERIES, cut)
            return [
                (event.seq, event.kind, event.name, event.attrs)
                for event in report.merged_events()
            ]

        assert run_once() == run_once()

    def test_concurrent_merge_is_query_ordered_and_dense(
        self, materialized_setup
    ):
        """Which query wins a single-flight race varies run to run, so
        the concurrent streams are not byte-stable — but the merge
        contract is: all of query i's events precede query i+1's, and
        sequence numbers re-number densely from 0."""
        _hierarchy, _column, catalog = materialized_setup
        cut = _cut_for(catalog, QUERIES)
        report = BatchExecutor(
            _fresh_executor(catalog), max_workers=8
        ).run(QUERIES, cut)
        merged = report.merged_events()
        assert [event.seq for event in merged] == list(
            range(len(merged))
        )
        per_query_lengths = [
            len(outcome.events) for outcome in report.outcomes
        ]
        offset = 0
        for outcome, length in zip(
            report.outcomes, per_query_lengths
        ):
            window = merged[offset : offset + length]
            assert [
                (event.kind, event.name) for event in window
            ] == [
                (event.kind, event.name)
                for event in outcome.events
            ]
            offset += length
        assert offset == len(merged)


class TestExplainAnalyzeConcurrency:
    def test_parallel_explain_analyze_streams_stay_private(
        self, materialized_setup
    ):
        """explain_analyze calls racing on ONE executor must not leak
        events or bytes into each other's reports: per-report IO sums
        to the shared pool's delta, and answers stay correct."""
        _hierarchy, column, catalog = materialized_setup
        executor = _fresh_executor(catalog)
        queries = [QUERIES[0], QUERIES[2], QUERIES[3], QUERIES[5]]
        before = executor.pool.accountant.snapshot()
        with ThreadPoolExecutor(max_workers=4) as tpe:
            racing = list(
                tpe.map(executor.explain_analyze, queries)
            )
        delta = executor.pool.accountant.diff_since(before)
        assert (
            sum(report.io.bytes_read for report in racing)
            == delta.bytes_read
        )
        assert (
            sum(report.io.read_count for report in racing)
            == delta.read_count
        )
        for query, report in zip(queries, racing):
            assert report.answer_count == scan_answer(
                column, query
            ).count()

    def test_private_reports_match_solo_runs_on_cold_pools(
        self, materialized_setup
    ):
        """A report produced under racing on a *private* pool is
        byte-identical to the same query explained alone."""
        _hierarchy, _column, catalog = materialized_setup
        queries = [QUERIES[0], QUERIES[2]]
        solo_reports = [
            _fresh_executor(catalog).explain_analyze(query)
            for query in queries
        ]
        with ThreadPoolExecutor(max_workers=2) as tpe:
            racing = list(
                tpe.map(
                    lambda query: _fresh_executor(
                        catalog
                    ).explain_analyze(query),
                    queries,
                )
            )
        for solo, raced in zip(solo_reports, racing):
            assert raced.measured_bytes == solo.measured_bytes
            assert len(raced.events) == len(solo.events)


class TestReadLatencyOverlap:
    def test_eight_workers_at_least_halve_the_serial_wall_time(
        self, tmp_path
    ):
        """Threads overlap storage latency: with every read delayed
        (the sleep releases the GIL) and every non-cut read streamed,
        8 workers serve a Case-2 batch in at most half the 1-worker
        wall time, with the serial answers and exact reconciliation."""
        hierarchy = hierarchy_for(20)
        column = sample_column(
            leaf_probabilities_for("tpch", hierarchy.num_leaves),
            20_000,
            seed=11,
        )
        workload = fraction_workload(20, 0.5, 32, seed=11)
        store = BitmapFileStore(
            tmp_path / "store",
            fault_policy=FaultPolicy(
                seed=11, slow_rate=1.0, slow_delay_s=0.005
            ),
        )
        catalog = MaterializedNodeCatalog(hierarchy, column, store)
        cut = select_cut_multi(catalog, workload).cut.node_ids
        # A budget of exactly the pinned cut: non-cut reads stream, so
        # every query keeps paying the delay instead of warming an LRU.
        budget = sum(
            store.size_bytes(catalog.file_name(node_id))
            for node_id in cut
        )
        serial, concurrent = (
            BatchExecutor(
                QueryExecutor(
                    catalog, BufferPool(store, budget_bytes=budget)
                ),
                max_workers=workers,
            ).run(workload, cut)
            for workers in (1, 8)
        )
        assert serial.reconciles()
        assert concurrent.reconciles()
        assert [result.answer.words for result in concurrent.results] == [
            result.answer.words for result in serial.results
        ]
        assert concurrent.wall_seconds <= serial.wall_seconds / 2, (
            f"8 workers took {concurrent.wall_seconds:.3f}s against "
            f"{serial.wall_seconds:.3f}s serial"
        )
