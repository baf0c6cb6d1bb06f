"""Chaos: the delta-ingest lifecycle under injected storage faults.

The LSM write path promises that a store is *always* queryable with
bit-identical answers while it mutates: appends commit as delta
generations, readers merge them on read, a compactor folds them back
into the base — all while the fault injector corrupts, truncates, and
drops reads.  This module interleaves all four actors (ingest,
compaction, scrub, queries) and holds the line at every step:

* every answer is position-identical to a fresh column scan over
  exactly the rows committed so far, at fault rates 0.0 and 0.1;
* batch serving over a delta-bearing store reconciles its IO ledger
  to the byte, counter by counter, delta reads included;
* queries racing a live background compactor stay correct through
  the fold (stale cached bases, GC'd delta files mid-merge);
* the scrubber finds nothing to repair after any amount of ingest.

All randomness flows from ``chaos_seed``, so failures reproduce from
the test name alone.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.executor import QueryExecutor, scan_answer
from repro.core.multi import select_cut_multi
from repro.hierarchy.tree import Hierarchy
from repro.obs import collecting_metrics
from repro.serve import BatchExecutor, ShardedExecutor
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog
from repro.storage.compactor import BackgroundCompactor, Compactor
from repro.storage.delta import DeltaAppender
from repro.storage.faults import FaultPolicy, RetryPolicy
from repro.storage.manifest import DurableBitmapStore
from repro.storage.scrub import Scrubber
from repro.workload import (
    sample_column,
    tpch_acctbal_leaf_probabilities,
)
from repro.workload.query import RangeQuery, Workload

pytestmark = [pytest.mark.chaos, pytest.mark.ingest]

FAULT_RATES = [0.0, 0.1]

#: Same per-name consecutive-fault cap as the other chaos suites.
MAX_CONSECUTIVE = 2
#: Merge-on-read touches more files per query (base + one file per
#: delta generation), so give the pool the concurrent suite's retry
#: headroom.
POOL_RETRY = RetryPolicy(max_attempts=6)

_SPEC = [[3, 3], [2, 4], [4]]
_BASE_ROWS = 6_000


def _column_and_hierarchy():
    hierarchy = Hierarchy.from_nested(_SPEC)
    probabilities = tpch_acctbal_leaf_probabilities(
        hierarchy.num_leaves, seed=3
    )
    column = sample_column(
        probabilities, num_rows=_BASE_ROWS, seed=11
    )
    return hierarchy, column


def _queries(hierarchy):
    last = hierarchy.num_leaves - 1
    return [
        RangeQuery([(0, 5)]),
        RangeQuery([(3, 12)]),
        RangeQuery([(0, last)]),
        RangeQuery([(2, 4), (9, last)]),
    ]


def _build_store(tmp_path, hierarchy, column):
    store = DurableBitmapStore(tmp_path / "store")
    MaterializedNodeCatalog(hierarchy, column, store)
    return store


def _fresh_executor(store, hierarchy, budget_bytes=None):
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    pool = BufferPool(
        store, budget_bytes=budget_bytes, retry_policy=POOL_RETRY
    )
    return QueryExecutor(catalog, pool)


def _batches(hierarchy, chaos_seed, sizes):
    rng = np.random.default_rng(chaos_seed)
    return [
        rng.integers(
            0, hierarchy.num_leaves, size=size, dtype=np.int64
        )
        for size in sizes
    ]


def _assert_answers(executor, hierarchy, column, cut=()):
    for query in _queries(hierarchy):
        answer = executor.execute_query(
            query, cut_node_ids=cut
        ).answer
        expected = scan_answer(column, query)
        assert (
            answer.to_positions().tolist()
            == expected.to_positions().tolist()
        ), query


@contextmanager
def injected(store, policy):
    store.set_fault_policy(policy)
    try:
        yield policy
    finally:
        store.set_fault_policy(None)


class TestInterleavedLifecycle:
    """Serial rounds of append -> query -> (fold) -> scrub."""

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_every_round_answers_the_rows_committed_so_far(
        self, tmp_path, chaos_seed, rate
    ):
        hierarchy, column = _column_and_hierarchy()
        store = _build_store(tmp_path, hierarchy, column)
        appender = DeltaAppender(store, hierarchy)
        executor = _fresh_executor(store, hierarchy)
        batches = _batches(hierarchy, chaos_seed, (37, 203, 5, 64))
        policy = FaultPolicy.uniform(
            rate,
            seed=chaos_seed,
            max_consecutive_per_name=MAX_CONSECUTIVE,
        )
        parts = [column]
        with injected(store, policy), collecting_metrics() as metrics:
            for round_no, batch in enumerate(batches):
                assert appender.append(batch).committed
                parts.append(batch)
                _assert_answers(
                    executor, hierarchy, np.concatenate(parts)
                )
                if round_no == 1:
                    # A bounded mid-lifecycle fold: the next round's
                    # queries merge the survivors onto the new base.
                    assert Compactor(
                        store, max_deltas_per_run=1
                    ).run().did_work
            # The scrubber reads what is physically on disk, so it is
            # immune to the injector — and finds nothing wrong.
            assert Scrubber(store, hierarchy).verify().is_clean
            Compactor(store).run()
            _assert_answers(
                executor, hierarchy, np.concatenate(parts)
            )
            assert metrics.counter("delta_merges_total") > 0
        assert store.delta_manifests == ()
        assert Scrubber(store, hierarchy).verify().is_clean
        if rate == 0.0:
            assert policy.total_injected == 0

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_internal_cut_merges_deltas_identically(
        self, tmp_path, chaos_seed, rate
    ):
        """Cut members answer from internal-node files; their delta
        files must merge exactly like the leaves' do."""
        hierarchy, column = _column_and_hierarchy()
        store = _build_store(tmp_path, hierarchy, column)
        appender = DeltaAppender(store, hierarchy)
        for batch in _batches(hierarchy, chaos_seed, (50, 11)):
            appender.append(batch)
            column = np.concatenate([column, batch])
        executor = _fresh_executor(store, hierarchy)
        cut = tuple(hierarchy.node(hierarchy.root_id).children)
        policy = FaultPolicy.uniform(
            rate,
            seed=chaos_seed,
            max_consecutive_per_name=MAX_CONSECUTIVE,
        )
        with injected(store, policy):
            _assert_answers(executor, hierarchy, column, cut=cut)


class TestBatchServingWithDeltas:
    """Thread fan-out over a delta-bearing store: answers and the
    byte-exact IO ledger, delta reads included."""

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_answers_and_reconciliation(
        self, tmp_path, chaos_seed, rate
    ):
        hierarchy, column = _column_and_hierarchy()
        store = _build_store(tmp_path, hierarchy, column)
        appender = DeltaAppender(store, hierarchy)
        for batch in _batches(hierarchy, chaos_seed, (90, 17, 140)):
            appender.append(batch)
            column = np.concatenate([column, batch])
        executor = _fresh_executor(store, hierarchy)
        batch_queries = _queries(hierarchy) * 3
        cut = select_cut_multi(
            executor.catalog, Workload(batch_queries)
        ).cut.node_ids
        policy = FaultPolicy.uniform(
            rate,
            seed=chaos_seed,
            max_consecutive_per_name=MAX_CONSECUTIVE,
        )
        with injected(store, policy):
            report = BatchExecutor(executor, max_workers=4).run(
                batch_queries, cut
            )
        for query, result in zip(batch_queries, report.results):
            expected = scan_answer(column, query)
            assert (
                result.answer.to_positions().tolist()
                == expected.to_positions().tolist()
            )
        assert report.reconciles()
        # Spell the identity out per counter: delta reads, their
        # retries, and their checksum discards must all land in some
        # query's ledger.
        for counter in (
            "bytes_read",
            "read_count",
            "retry_count",
            "discarded_bytes",
            "discard_count",
        ):
            attributed = sum(
                getattr(outcome.io, counter)
                for outcome in report.outcomes
            )
            assert getattr(report.pin_io, counter) + attributed == (
                getattr(report.io, counter)
            ), counter
        if rate == 0.0:
            assert policy.total_injected == 0
            assert report.io.retry_count == 0
            assert report.io.discard_count == 0


class TestQueriesRacingTheCompactor:
    """Merge-on-read vs a live background fold.  A query's manifest
    snapshot can lose its delta files to the fold's GC, and the query
    must restart against a fresh snapshot — never a wrong answer.
    (Spurious degraded *events* from abandoned attempts are fine;
    answers are not allowed to degrade.)"""

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_answers_stay_correct_through_the_fold(
        self, tmp_path, chaos_seed, rate
    ):
        hierarchy, column = _column_and_hierarchy()
        store = _build_store(tmp_path, hierarchy, column)
        appender = DeltaAppender(store, hierarchy)
        for batch in _batches(hierarchy, chaos_seed, (60, 80, 25, 110)):
            appender.append(batch)
            column = np.concatenate([column, batch])
        executor = _fresh_executor(store, hierarchy)
        policy = FaultPolicy.uniform(
            rate,
            seed=chaos_seed,
            max_consecutive_per_name=MAX_CONSECUTIVE,
        )
        # One generation per fold widens the race window to four
        # separate commit+GC points.
        with injected(store, policy), BackgroundCompactor(
            store,
            min_deltas=1,
            interval_seconds=0.01,
            max_deltas_per_run=1,
        ) as compactor:
            compactor.trigger()
            deadline = time.monotonic() + 30.0
            while True:
                _assert_answers(executor, hierarchy, column)
                if not store.delta_manifests:
                    break
                assert time.monotonic() < deadline, (
                    "background compactor never drained the deltas"
                )
        assert compactor.errors == []
        assert store.delta_manifests == ()
        # Post-fold: same executor, now over the folded base only.
        _assert_answers(executor, hierarchy, column)
        assert Scrubber(store, hierarchy).verify().is_clean


@pytest.mark.shard
class TestShardedIngestLifecycle:
    """The full lifecycle across process boundaries: every shard
    worker ingests/folds its own store under its own injector."""

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_ingest_run_compact_run(
        self, tmp_path, chaos_seed, rate
    ):
        hierarchy, column = _column_and_hierarchy()
        batches = _batches(hierarchy, chaos_seed, (75, 33))
        full = np.concatenate([column, *batches])
        fault_kwargs = None
        if rate:
            fault_kwargs = {
                "seed": chaos_seed,
                "transient_rate": rate / 3,
                "torn_rate": rate / 3,
                "bitflip_rate": rate / 3,
                "max_consecutive_per_name": MAX_CONSECUTIVE,
            }
        executor = ShardedExecutor.build(
            hierarchy,
            column,
            2,
            tmp_path,
            durable=True,
            threads_per_shard=2,
            fault_policy_kwargs=fault_kwargs,
            retry_max_attempts=POOL_RETRY.max_attempts,
        )
        queries = _queries(hierarchy)
        with executor:
            executor.prepare(Workload(queries))
            for batch in batches:
                assert executor.ingest(batch).committed
            assert executor.num_rows == full.size

            report = executor.run(queries)
            assert report.num_rows == full.size
            for query, result in zip(queries, report.results):
                expected = scan_answer(full, query)
                assert (
                    result.answer.to_positions().tolist()
                    == expected.to_positions().tolist()
                )
            assert report.reconciles()

            reports = executor.compact()
            assert sum(r.folded_rows for r in reports) == sum(
                batch.size for batch in batches
            )
            # Appends route to the tail shard; only it has deltas.
            assert reports[-1].did_work
            assert not reports[0].did_work

            report = executor.run(queries)
            for query, result in zip(queries, report.results):
                expected = scan_answer(full, query)
                assert (
                    result.answer.to_positions().tolist()
                    == expected.to_positions().tolist()
                )
            assert report.reconciles()
