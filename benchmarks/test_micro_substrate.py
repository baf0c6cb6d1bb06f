"""Micro-benchmarks for the substrates (not a paper figure).

Tracks the throughput of the pieces everything else is built on: WAH
construction and logical ops, bitmap-index building, and the three
cut-selection algorithms at the paper's evaluation scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap.builder import node_positions
from repro.bitmap.serialization import deserialize_wah, serialize_wah
from repro.bitmap.wah import WahBitmap
from repro.core.constrained import k_cut_selection
from repro.core.multi import select_cut_multi
from repro.core.single import hybrid_cut
from repro.experiments.common import catalog_for
from repro.hierarchy import paper_hierarchy
from repro.workload.generator import fraction_workload
from repro.workload.query import RangeQuery

NUM_BITS = 1_000_000


@pytest.fixture(scope="module")
def sparse_pair():
    rng = np.random.default_rng(0)
    a = WahBitmap.from_positions(
        rng.choice(NUM_BITS, size=NUM_BITS // 100, replace=False),
        NUM_BITS,
    )
    b = WahBitmap.from_positions(
        rng.choice(NUM_BITS, size=NUM_BITS // 100, replace=False),
        NUM_BITS,
    )
    return a, b


def test_wah_construction(benchmark):
    rng = np.random.default_rng(1)
    positions = rng.choice(
        NUM_BITS, size=NUM_BITS // 100, replace=False
    )
    benchmark(
        lambda: WahBitmap.from_positions(positions, NUM_BITS)
    )


def test_wah_or(benchmark, sparse_pair):
    a, b = sparse_pair
    benchmark(lambda: a | b)


def test_wah_andnot(benchmark, sparse_pair):
    a, b = sparse_pair
    benchmark(lambda: a.andnot(b))


def test_wah_serialization_roundtrip(benchmark, sparse_pair):
    a, _b = sparse_pair
    benchmark(lambda: deserialize_wah(serialize_wah(a)))


def test_node_bitmap_index_build(benchmark):
    hierarchy = paper_hierarchy(100)
    rng = np.random.default_rng(2)
    column = rng.integers(0, 100, size=200_000).astype(np.int64)
    benchmark.pedantic(
        lambda: [
            WahBitmap.from_positions(positions, column.size)
            for _node_id, positions in node_positions(hierarchy, column)
        ],
        rounds=3,
        iterations=1,
    )


def test_hcs_single_query(benchmark):
    catalog = catalog_for("tpch", 100)
    query = RangeQuery([(5, 94)])
    benchmark(lambda: hybrid_cut(catalog, query))


def test_alg3_multi_query(benchmark):
    catalog = catalog_for("tpch", 100)
    workload = fraction_workload(100, 0.5, 25, seed=0)
    benchmark(lambda: select_cut_multi(catalog, workload))


def test_kcut_constrained(benchmark):
    catalog = catalog_for("tpch", 100)
    workload = fraction_workload(100, 0.5, 15, seed=0)
    benchmark(
        lambda: k_cut_selection(catalog, workload, 100.0, 10)
    )


def test_plwah_encode(benchmark, sparse_pair):
    from repro.experiments.compression import plwah_size_bytes

    a, _b = sparse_pair
    words = a.words
    benchmark(lambda: plwah_size_bytes(words))


def test_adaptive_observe_with_check(benchmark):
    from repro.core.adaptive import AdaptiveCutMaintainer
    from repro.workload.query import RangeQuery

    catalog = catalog_for("tpch", 100)
    maintainer = AdaptiveCutMaintainer(
        catalog, window=25, check_every=1
    )
    query = RangeQuery([(20, 69)])
    benchmark(lambda: maintainer.observe(query))
