"""Tests for sharded multiprocess scatter-gather serving.

Everything the thread-pool batch executor guarantees must survive the
process boundary: bit-identical answers, exact IO reconciliation (now
per shard *and* cross-process), deterministic trace merging, and typed
failure instead of hangs or silent partial answers.

All tests here carry the ``shard`` marker: they spawn real worker
processes, so they are slower than the in-process suite and CI runs
them in the dedicated serving job.
"""

from __future__ import annotations

import os

import pytest

from repro.core.executor import QueryExecutor, scan_answer
from repro.core.multi import select_cut_multi
from repro.errors import QueryFailedError, ShardFailedError
from repro.serve import (
    BatchExecutor,
    BatchReport,
    ShardSpec,
    ShardedExecutor,
    shard_row_ranges,
)
from repro.storage.cache import BufferPool
from repro.storage.catalog import node_file_name
from repro.workload.query import RangeQuery, Workload

pytestmark = pytest.mark.shard

QUERIES = [
    RangeQuery([(0, 2)]),
    RangeQuery([(3, 11)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 9), (12, 14)]),
    RangeQuery([(7, 7)]),
    RangeQuery([(1, 13)]),
]

NUM_SHARDS = 3


@pytest.fixture(scope="module")
def shard_base(materialized_setup, tmp_path_factory):
    """Per-shard stores built once for the module (builds are the
    slow part; executors over the same specs are cheap)."""
    hierarchy, column, _catalog = materialized_setup
    base = tmp_path_factory.mktemp("shard_stores")
    built = ShardedExecutor.build(
        hierarchy, column, NUM_SHARDS, base
    )
    return hierarchy, column, built.shard_specs


@pytest.fixture(scope="module")
def sharded_report(shard_base, materialized_setup):
    """One scatter-gather run of the standard batch, shared by the
    read-only correctness tests."""
    hierarchy, _column, specs = shard_base
    executor = ShardedExecutor(
        hierarchy, specs, threads_per_shard=2
    )
    with executor:
        cut_infos = executor.prepare(Workload(QUERIES))
        report = executor.run(QUERIES)
    return cut_infos, report


class TestShardRowRanges:
    def test_ranges_tile_the_rows_contiguously(self):
        for num_rows, num_shards in [
            (10, 1),
            (10, 3),
            (40_000, 7),
            (5, 5),
        ]:
            ranges = shard_row_ranges(num_rows, num_shards)
            assert len(ranges) == num_shards
            assert ranges[0][0] == 0
            assert ranges[-1][1] == num_rows
            for (_lo, hi), (next_lo, _hi) in zip(
                ranges, ranges[1:]
            ):
                assert hi == next_lo
            sizes = [hi - lo for lo, hi in ranges]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_counts_are_rejected(self):
        with pytest.raises(ValueError):
            shard_row_ranges(10, 0)
        with pytest.raises(ValueError):
            shard_row_ranges(3, 4)

    def test_executor_rejects_non_tiling_specs(
        self, materialized_setup
    ):
        hierarchy, _column, _catalog = materialized_setup
        gap = [
            ShardSpec(0, "a", 0, 10),
            ShardSpec(1, "b", 20, 30),
        ]
        with pytest.raises(ValueError):
            ShardedExecutor(hierarchy, gap)
        with pytest.raises(ValueError):
            ShardedExecutor(hierarchy, [])
        with pytest.raises(ValueError):
            ShardedExecutor(
                hierarchy,
                [ShardSpec(0, "a", 0, 10)],
                threads_per_shard=0,
            )


class TestShardedCorrectness:
    def test_merged_answers_match_the_column_scan(
        self, sharded_report, materialized_setup
    ):
        _hierarchy, column, _catalog = materialized_setup
        _cut_infos, report = sharded_report
        assert report.ok
        for query, result in zip(QUERIES, report.results):
            assert result.answer == scan_answer(column, query)

    def test_merged_words_are_identical_to_the_serial_oracle(
        self, sharded_report, materialized_setup
    ):
        """Bit-identical, not just equal: canonical WAH makes the
        offset-concatenated merge word-for-word the single-shard
        answer."""
        _hierarchy, _column, catalog = materialized_setup
        cut = select_cut_multi(
            catalog, Workload(QUERIES)
        ).cut.node_ids
        oracle = BatchExecutor(
            QueryExecutor(catalog, BufferPool(catalog.store)),
            max_workers=1,
        ).run(QUERIES, cut)
        _cut_infos, report = sharded_report
        for ours, theirs in zip(
            report.outcomes, oracle.outcomes
        ):
            assert (
                ours.result.answer.words
                == theirs.result.answer.words
            )

    def test_io_reconciles_across_process_boundaries(
        self, sharded_report
    ):
        _cut_infos, report = sharded_report
        assert report.num_shards == NUM_SHARDS
        assert report.reconciles()
        # Every report is a BatchReport: the merged outcomes balance
        # the summed totals the way a thread batch's outcomes do.
        assert BatchReport.reconciles(report)
        for shard_report in report.shard_reports:
            assert isinstance(shard_report, BatchReport)
            assert shard_report.reconciles()
        assert report.io.bytes_read == sum(
            r.io.bytes_read for r in report.shard_reports
        )
        assert report.io.bytes_read > 0

    def test_every_shard_prepared_a_cut(self, sharded_report):
        cut_infos, report = sharded_report
        assert [info.shard_id for info in cut_infos] == list(
            range(NUM_SHARDS)
        )
        for info in cut_infos:
            assert info.cut_node_ids
        assert report.workers == NUM_SHARDS * 2

    def test_merged_events_are_densely_resequenced(
        self, sharded_report
    ):
        _cut_infos, report = sharded_report
        events = report.merged_events()
        assert events
        assert [event.seq for event in events] == list(
            range(len(events))
        )

    def test_event_streams_are_identical_across_runs(
        self, shard_base
    ):
        """Two fresh fleets over the same stores must merge the exact
        same trace — wall-clock interleaving never leaks in."""
        hierarchy, _column, specs = shard_base
        streams = []
        for _ in range(2):
            executor = ShardedExecutor(
                hierarchy, specs, threads_per_shard=1
            )
            with executor:
                executor.prepare(Workload(QUERIES))
                report = executor.run(QUERIES)
            streams.append(report.merged_events())
        assert streams[0] == streams[1]


class TestBudgetSlicing:
    def test_global_budget_slices_evenly_and_bounds_pools(
        self, shard_base
    ):
        hierarchy, _column, specs = shard_base
        total_budget = NUM_SHARDS * 256 * 1024
        executor = ShardedExecutor(
            hierarchy, specs, threads_per_shard=1
        )
        with executor:
            cut_infos = executor.prepare(
                Workload(QUERIES),
                budget_bytes_total=total_budget,
            )
            slice_bytes = total_budget // NUM_SHARDS
            for info in cut_infos:
                assert info.budget_bytes == slice_bytes
            report = executor.run(QUERIES)
        assert report.ok
        assert report.reconciles()
        for shard_report in report.shard_reports:
            assert shard_report.resident_bytes <= slice_bytes


class TestShardFailure:
    def test_dead_shard_raises_typed_error_not_a_hang(
        self, shard_base
    ):
        hierarchy, _column, specs = shard_base
        executor = ShardedExecutor(
            hierarchy, specs, recv_timeout_s=30.0
        )
        with executor:
            executor.prepare(Workload(QUERIES))
            victim = executor.worker_processes[1]
            victim.terminate()
            victim.join(timeout=10.0)
            with pytest.raises(ShardFailedError):
                executor.run(QUERIES)
        # The whole fleet is torn down on a shard failure — no
        # half-alive scatter state survives.
        assert not executor.started

    def test_query_failure_on_one_shard_is_isolated(
        self, materialized_setup, tmp_path
    ):
        """A query that fails on one shard becomes a typed per-query
        outcome carrying the shard id; siblings still answer and the
        batch still reconciles."""
        hierarchy, column, _catalog = materialized_setup
        executor = ShardedExecutor.build(
            hierarchy, column, 2, tmp_path
        )
        leaf_cut = tuple(
            hierarchy.leaf_node_id(value)
            for value in range(hierarchy.num_leaves)
        )
        batch = [RangeQuery([(0, 0)]), RangeQuery([(5, 8)])]
        with executor:
            executor.prepare(cut_node_ids=leaf_cut)
            # Workers have reopened their stores; now shard 1 loses
            # the leaf-0 bitmap that only the first query reads.
            os.remove(
                os.path.join(
                    executor.shard_specs[1].store_dir,
                    node_file_name(hierarchy.leaf_node_id(0)),
                )
            )
            report = executor.run(batch, pin=False)
        assert len(report.outcomes) == len(batch)
        assert not report.ok
        failed = report.outcomes[0]
        assert failed.result is None
        assert isinstance(failed.error, QueryFailedError)
        assert failed.error.query_index == 0
        assert failed.error.shard_id == 1
        healthy = report.outcomes[1]
        assert healthy.ok
        assert healthy.result.answer == scan_answer(
            column, batch[1]
        )
        assert report.reconciles()
        assert len(report.errors) == 1
        with pytest.raises(QueryFailedError):
            report.results

    def test_malformed_reply_tears_down_and_reaps_workers(
        self, shard_base
    ):
        """Regression: a reply failing post-scatter batch validation
        used to raise out of ``run()`` *without* teardown, leaking the
        still-healthy worker processes behind the dead handle."""
        hierarchy, _column, specs = shard_base
        executor = ShardedExecutor(hierarchy, specs)
        executor.start()
        executor.prepare(Workload(QUERIES))
        workers = executor.worker_processes
        assert workers and all(
            process.is_alive() for process in workers
        )
        original = executor._recv

        def corrupted(handle, expected_kind):
            message = original(handle, expected_kind)
            if expected_kind == "report":
                # Mis-label the shard id: the reply no longer matches
                # the scattered batch.
                return (message[0], message[1] + 100, *message[2:])
            return message

        executor._recv = corrupted
        with pytest.raises(ShardFailedError):
            executor.run(QUERIES)
        assert not executor.started
        for process in workers:
            process.join(timeout=10.0)
            assert not process.is_alive()

    def test_healthy_tracks_worker_liveness(self, shard_base):
        """``healthy`` (the gateway's failover hook) is True only
        while every worker process is alive."""
        hierarchy, _column, specs = shard_base
        executor = ShardedExecutor(
            hierarchy, specs, recv_timeout_s=30.0
        )
        assert not executor.healthy  # not started
        with executor:
            assert executor.healthy
            victim = executor.worker_processes[0]
            victim.terminate()
            victim.join(timeout=10.0)
            assert not executor.healthy
        assert not executor.healthy  # closed

    def test_shard_failed_error_survives_pickling(self):
        import pickle

        error = ShardFailedError(2, "worker exited with code -9")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard_id == 2
        assert str(clone) == str(error)


class TestConcurrentCallers:
    def test_two_threads_sharing_a_fleet_get_their_own_answers(
        self, tmp_path
    ):
        """Shard replies carry no request id, so the executor gives
        each batch the pipes from first send to last reply.  Without
        that, two threads swapped replies: unpickling errors, failed
        shards and answers of the other thread's queries."""
        import threading

        import numpy as np

        from repro.hierarchy.tree import paper_hierarchy

        hierarchy = paper_hierarchy(20)
        column = np.random.default_rng(4).integers(0, 20, size=20_000)
        batches = [
            [
                RangeQuery([(lo, lo + width)])
                for lo, width in zip(range(seed, seed + 7), range(7))
            ]
            for seed in (0, 6)
        ]
        oracle = {
            query: scan_answer(column, query)
            for batch in batches
            for query in batch
        }
        executor = ShardedExecutor.build(hierarchy, column, 2, tmp_path)
        failures: list[Exception] = []
        wrong: list[RangeQuery] = []

        def serve(batch) -> None:
            try:
                for _round in range(20):
                    report = executor.run(batch)
                    for query, outcome in zip(batch, report.outcomes):
                        if outcome.result.answer != oracle[query]:
                            wrong.append(query)
            except Exception as error:  # surfaced below
                failures.append(error)

        with executor:
            executor.prepare(Workload(batches[0] + batches[1]))
            threads = [
                threading.Thread(target=serve, args=(batch,))
                for batch in batches
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert wrong == []


class TestWorkerCompaction:
    def test_prepare_after_a_fold_prices_the_folded_base(self, tmp_path):
        """A worker that folds its deltas reopens its catalog, as a
        restarted worker does.  It used to keep the 4,000-row base's
        sizes, so the next prepare picked the same cut, sized for that
        base, and pinning it raised BudgetExceededError (17,124 B of
        folded files against a 1,644 B budget).  Driven in-process:
        no worker is spawned."""
        import numpy as np

        from repro.hierarchy.serialization import hierarchy_to_dict
        from repro.hierarchy.tree import paper_hierarchy
        from repro.serve.sharded import (
            DEFAULT_SHARD_K,
            _WorkerConfig,
            _WorkerState,
        )
        from repro.storage.catalog import MaterializedNodeCatalog
        from repro.storage.manifest import DurableBitmapStore

        hierarchy = paper_hierarchy(20)
        rng = np.random.default_rng(0)
        base = rng.integers(0, 20, size=4_000, dtype=np.int64)
        appended = rng.integers(0, 20, size=40_000, dtype=np.int64)
        MaterializedNodeCatalog(
            hierarchy, base, DurableBitmapStore(tmp_path)
        )
        state = _WorkerState(
            _WorkerConfig(
                shard_id=0,
                store_dir=str(tmp_path),
                hierarchy_payload=hierarchy_to_dict(hierarchy),
                threads=1,
                durable=True,
                fault_policy_kwargs=None,
                retry_max_attempts=None,
                expected_rows=base.size,
            )
        )
        queries = (
            RangeQuery([(0, 9)]),
            RangeQuery([(3, 16)]),
            RangeQuery([(5, 14)]),
        )
        budget = 1_644
        state.prepare(queries, budget, None, DEFAULT_SHARD_K)
        state.ingest(appended)
        assert state.compact(None)[2].did_work
        state.prepare(queries, budget, None, DEFAULT_SHARD_K)

        _, _, report, resident_bytes = state.run(queries, True)

        assert resident_bytes <= budget
        assert report.ok and report.reconciles()
        column = np.concatenate([base, appended])
        for query, result in zip(queries, report.results):
            assert result.answer == scan_answer(column, query)
