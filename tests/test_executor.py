"""End-to-end execution tests: plans run on real WAH bitmaps through
the buffer pool, answers checked against a column scan, and IO
accounting checked against the plan's prediction."""

from __future__ import annotations

import types
import zlib

import pytest

from repro.bitmap import serialization
from repro.core.executor import QueryExecutor, scan_answer
from repro.core.opnodes import build_query_plan, leaf_only_plan
from repro.core.single import (
    exclusive_cut,
    hybrid_cut,
    inclusive_cut,
)
from repro.obs import collecting_metrics
from repro.storage.cache import BufferPool
from repro.storage.catalog import node_file_name
from repro.storage.costmodel import MB
from repro.workload.query import RangeQuery, Workload


QUERIES = [
    RangeQuery([(0, 2)]),
    RangeQuery([(3, 11)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 9), (12, 14)]),
    RangeQuery([(7, 7)]),
]


class TestAnswerCorrectness:
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_leaf_only_plan_matches_scan(
        self, materialized_setup, query
    ):
        _hierarchy, column, catalog = materialized_setup
        executor = QueryExecutor(catalog)
        result = executor.execute_plan(
            leaf_only_plan(catalog, query)
        )
        assert result.answer == scan_answer(column, query)

    @pytest.mark.parametrize(
        "strategy", [inclusive_cut, exclusive_cut, hybrid_cut]
    )
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_selected_cut_plans_match_scan(
        self, materialized_setup, strategy, query
    ):
        _hierarchy, column, catalog = materialized_setup
        selection = strategy(catalog, query)
        plan = build_query_plan(
            catalog,
            query,
            selection.cut.node_ids,
            labels=selection.labels,
        )
        executor = QueryExecutor(catalog)
        result = executor.execute_plan(plan)
        assert result.answer == scan_answer(column, query)

    def test_incomplete_cut_still_answers_correctly(
        self, materialized_setup
    ):
        hierarchy, column, catalog = materialized_setup
        member = hierarchy.internal_children(hierarchy.root_id)[0]
        query = RangeQuery([(1, 12)])
        executor = QueryExecutor(catalog)
        result = executor.execute_query(query, [member])
        assert result.answer == scan_answer(column, query)


class TestIOAccounting:
    def test_io_matches_prediction_for_cold_execution(
        self, materialized_setup
    ):
        """With measured file sizes, predicted MB == actual bytes."""
        _hierarchy, column, catalog = materialized_setup
        for query in QUERIES:
            selection = hybrid_cut(catalog, query)
            plan = build_query_plan(
                catalog,
                query,
                selection.cut.node_ids,
                labels=selection.labels,
            )
            # A fresh pool that streams everything (budget 0): every
            # operation node is read exactly once by this single plan.
            executor = QueryExecutor(
                catalog,
                BufferPool(catalog.store, budget_bytes=0),
            )
            result = executor.execute_plan(plan)
            assert result.io_mb == pytest.approx(
                plan.predicted_cost_mb
            )

    def test_hybrid_io_never_exceeds_leaf_only(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        for query in QUERIES:
            selection = hybrid_cut(catalog, query)
            plan = build_query_plan(
                catalog,
                query,
                selection.cut.node_ids,
                labels=selection.labels,
            )
            cold = QueryExecutor(
                catalog, BufferPool(catalog.store, budget_bytes=0)
            )
            hybrid_io = cold.execute_plan(plan).io_bytes
            baseline = QueryExecutor(
                catalog, BufferPool(catalog.store, budget_bytes=0)
            )
            leaf_io = baseline.execute_plan(
                leaf_only_plan(catalog, query)
            ).io_bytes
            assert hybrid_io <= leaf_io

    def test_pinned_cut_charged_once_across_workload(
        self, materialized_setup
    ):
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pool = BufferPool(catalog.store, budget_bytes=None)
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        # Every file fetched at most once: unbounded pool caches all.
        assert all(
            count == 1
            for count in snapshot.reads_by_name.values()
        )

    def test_unpinned_workload_io_matches_uncached_prediction(
        self, materialized_setup
    ):
        """Regression: with ``pin=False`` the plans must not assume the
        cut is resident — measured IO equals the uncached (Eq. 1-style)
        prediction, not the Case-2/3 cached one."""
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pool = BufferPool(catalog.store, budget_bytes=0)
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members, pin=False
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        predicted = sum(
            build_query_plan(
                catalog, query, members, node_is_cached=False
            ).predicted_cost_mb
            for query in workload
        )
        assert snapshot.mb_read == pytest.approx(predicted)
        # Per-query results carry the same uncached predictions.
        for result, query in zip(results, workload):
            plan = build_query_plan(
                catalog, query, members, node_is_cached=False
            )
            assert result.io_mb == pytest.approx(
                plan.predicted_cost_mb
            )

    def test_pinned_workload_io_matches_cached_prediction(
        self, materialized_setup
    ):
        """With ``pin=True`` measured IO is the one-time cut read plus
        the per-query Case-2/3 (cached-members) predictions."""
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pin_bytes = sum(
            catalog.store.size_bytes(node_file_name(node_id))
            for node_id in members
        )
        pool = BufferPool(
            catalog.store, budget_bytes=pin_bytes
        )
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members, pin=True
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        predicted = sum(
            build_query_plan(
                catalog, query, members, node_is_cached=True
            ).predicted_cost_mb
            for query in workload
        )
        assert snapshot.mb_read == pytest.approx(
            predicted + pin_bytes / MB
        )

    def test_streaming_rereads_unpinned_files(
        self, materialized_setup
    ):
        hierarchy, _column, catalog = materialized_setup
        query = RangeQuery([(0, 3)])
        pool = BufferPool(catalog.store, budget_bytes=0)
        executor = QueryExecutor(catalog, pool)
        executor.execute_plan(leaf_only_plan(catalog, query))
        executor.execute_plan(leaf_only_plan(catalog, query))
        assert all(
            count == 2
            for count in pool.accountant.reads_by_name.values()
        )


class TestDecodeMetrics:
    def test_one_crc_check_per_decoded_payload_with_metrics_on(
        self, materialized_setup, monkeypatch
    ):
        """With metrics on, each decoded payload is checksummed once,
        by ``deserialize_wah``: the ``decoded_bytes_total`` counter
        does not re-read the frame to label it."""
        hierarchy, column, catalog = materialized_setup
        crc_calls = []

        def crc32(data, value=0):
            crc_calls.append(len(data))
            return zlib.crc32(data, value)

        monkeypatch.setattr(
            serialization, "zlib", types.SimpleNamespace(crc32=crc32)
        )
        query = RangeQuery([(2, 9), (12, 14)])
        executor = QueryExecutor(catalog)
        with collecting_metrics() as metrics:
            result = executor.execute_query(
                query, hierarchy.internal_children(hierarchy.root_id)
            )
        assert result.answer == scan_answer(column, query)
        decodes = metrics.histogram("decode_seconds").count
        assert decodes > 0
        assert len(crc_calls) == decodes


class TestScanAnswer:
    def test_multi_spec_scan(self, materialized_setup):
        _hierarchy, column, _catalog = materialized_setup
        query = RangeQuery([(0, 1), (14, 15)])
        answer = scan_answer(column, query)
        expected = (
            (column <= 1) | (column >= 14)
        ).sum()
        assert answer.count() == expected
