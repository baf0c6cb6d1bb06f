"""Public-API contract tests.

Pin the package's exported surface: everything in ``__all__`` resolves,
the README's quickstart snippets run, and version metadata is sane.
"""

from __future__ import annotations

import importlib

import pytest

import repro

#: The root's re-exports: the names the quickstarts, examples and docs
#: import from ``repro``.  Everything else is imported from its
#: subpackage, so a name added here is a deliberate API decision.
ROOT_NAMES = {
    "__version__",
    "BatchExecutor",
    "BitmapFileStore",
    "BufferPool",
    "CostModel",
    "CutSelector",
    "DurableBitmapStore",
    "Hierarchy",
    "MaterializedNodeCatalog",
    "ModeledNodeCatalog",
    "QueryExecutor",
    "RangeQuery",
    "Scrubber",
    "ShardedExecutor",
    "TraceCollector",
    "Workload",
    "collecting_metrics",
    "fraction_workload",
    "recording",
    "scan_answer",
    "tpch_acctbal_leaf_probabilities",
    "uniform_leaf_probabilities",
}


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_root_exports_exactly_the_kept_names(self):
        assert len(repro.__all__) == len(ROOT_NAMES)
        assert set(repro.__all__) == ROOT_NAMES

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.bitmap",
            "repro.hierarchy",
            "repro.storage",
            "repro.workload",
            "repro.core",
            "repro.experiments",
            "repro.serve",
            "repro.obs",
        ],
    )
    def test_subpackage_all_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestReadmeQuickstart:
    def test_modeled_quickstart(self):
        from repro import (
            CostModel,
            CutSelector,
            ModeledNodeCatalog,
            RangeQuery,
            tpch_acctbal_leaf_probabilities,
        )
        from repro.hierarchy import paper_hierarchy

        hierarchy = paper_hierarchy(100)
        catalog = ModeledNodeCatalog(
            hierarchy,
            tpch_acctbal_leaf_probabilities(100),
            CostModel.paper_2014(),
            num_rows=150_000_000,
        )
        selector = CutSelector(catalog)
        result = selector.select(RangeQuery([(20, 79)]))
        assert result.cut.is_complete
        assert result.cost > 0
        plan = selector.plan(RangeQuery([(20, 79)]), result)
        assert plan.predicted_cost_mb == pytest.approx(result.cost)

    def test_materialized_quickstart(self):
        import numpy as np

        from repro import (
            BufferPool,
            MaterializedNodeCatalog,
            QueryExecutor,
            RangeQuery,
            scan_answer,
        )
        from repro.hierarchy import paper_hierarchy

        hierarchy = paper_hierarchy(100)
        column = np.random.default_rng(0).integers(0, 100, 5_000)
        catalog = MaterializedNodeCatalog(hierarchy, column)
        executor = QueryExecutor(
            catalog, BufferPool(catalog.store)
        )
        query = RangeQuery([(20, 79)])
        result = executor.execute_query(query)
        assert result.answer == scan_answer(column, query)
        assert result.io_mb > 0
