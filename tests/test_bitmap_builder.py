"""Tests for bitmap-index construction from data columns."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmap.builder import (
    bitmap_for_leaf_set,
    build_span_bitmap,
    node_positions,
)
from repro.bitmap.wah import WahBitmap
from repro.errors import WorkloadError
from repro.hierarchy.tree import Hierarchy, paper_hierarchy
from repro.serve.sharded import ShardedExecutor
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.filestore import BitmapFileStore

from .builder_reference import mask_positions, reference_payloads

#: Leaves at depths 3, 4 and 5, so some levels reach only part of the
#: leaf domain.
MIXED_DEPTH = Hierarchy.from_nested([[2, 2], 3, [[2], 1]])

#: Hierarchies the builder must group exactly as the mask scan does.
HIERARCHIES = (
    paper_hierarchy(20),
    paper_hierarchy(100),
    Hierarchy.from_nested([[2, 2], [3, 2], [3]]),
    Hierarchy.balanced(37, 4),
    MIXED_DEPTH,
)


#: Ten leaves, for the ``column`` fixture's values.
TEN_LEAVES = Hierarchy.from_nested([5, 5])


@pytest.fixture
def column() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.integers(0, 10, size=5000).astype(np.int64)


def _leaf_bitmaps(column) -> list[WahBitmap]:
    """One bitmap per leaf of :data:`TEN_LEAVES`, in leaf order."""
    positions = dict(node_positions(TEN_LEAVES, column))
    return [
        WahBitmap.from_positions(
            positions[TEN_LEAVES.leaf_node_id(leaf)], column.size
        )
        for leaf in range(TEN_LEAVES.num_leaves)
    ]


class TestSpanBitmap:
    def test_span_matches_mask(self, column):
        bitmap = build_span_bitmap(column, 2, 5)
        expected = np.flatnonzero(
            (column >= 2) & (column <= 5)
        ).tolist()
        assert bitmap.to_positions().tolist() == expected

    def test_span_equals_union_of_leaves(self, column):
        leaf_bitmaps = _leaf_bitmaps(column)
        span = build_span_bitmap(column, 3, 7)
        union = bitmap_for_leaf_set(leaf_bitmaps, range(3, 8))
        assert span == union

    def test_full_span_is_all_rows(self, column):
        bitmap = build_span_bitmap(column, 0, 9)
        assert bitmap.count() == column.size
        assert bitmap.density() == 1.0

    def test_empty_span(self, column):
        bitmap = build_span_bitmap(column, 7, 6)
        assert bitmap.count() == 0


class TestLeafSetUnion:
    def test_requires_bitmaps(self):
        with pytest.raises(ValueError):
            bitmap_for_leaf_set([], [0])

    def test_empty_leaf_selection(self, column):
        bitmaps = _leaf_bitmaps(column)
        union = bitmap_for_leaf_set(bitmaps, [])
        assert union.count() == 0
        assert union.num_bits == column.size


@st.composite
def hierarchy_and_column(draw):
    hierarchy = draw(st.sampled_from(HIERARCHIES))
    values = draw(
        st.lists(
            st.integers(0, hierarchy.num_leaves - 1), max_size=2_000
        )
    )
    return hierarchy, np.asarray(values, dtype=np.int64)


class TestNodePositions:
    @settings(max_examples=150, deadline=None)
    @given(hierarchy_and_column())
    @example((paper_hierarchy(20), np.array([], dtype=np.int64)))
    @example((MIXED_DEPTH, np.array([9, 0, 9, 4], dtype=np.int64)))
    def test_matches_the_mask_scan(self, drawn):
        """Node for node, the builder yields exactly the mask scan's
        rows, already sorted and unique."""
        hierarchy, column = drawn
        built = dict(node_positions(hierarchy, column))
        assert sorted(built) == [node.node_id for node in hierarchy]
        for node_id, expected in mask_positions(hierarchy, column):
            positions = built[node_id]
            assert np.array_equal(positions, expected), node_id
            assert np.all(positions[1:] > positions[:-1])

    def test_accepts_any_integer_dtype(self):
        hierarchy = paper_hierarchy(20)
        column = np.array([19, 0, 7, 7, 3], dtype=np.uint8)
        built = dict(node_positions(hierarchy, column))
        for node_id, expected in mask_positions(hierarchy, column):
            assert np.array_equal(built[node_id], expected)


#: Columns that are not 1-D arrays of leaf ids in [0, 100).
BAD_COLUMNS = {
    "out-of-range": np.array([0, 5, 100, -3, 250, 7]),
    "float": np.array([0.5, 1.7, 3.2]),
    "2-D": np.zeros((2, 2), dtype=np.int64),
    "bool": np.array([True, False]),
}


def _build_catalog(hierarchy, column, tmp_path):
    return MaterializedNodeCatalog(hierarchy, column)


def _build_sharded(hierarchy, column, tmp_path):
    return ShardedExecutor.build(hierarchy, column, 2, tmp_path)


class TestBadColumns:
    @pytest.mark.parametrize("name", sorted(BAD_COLUMNS))
    def test_builder_checks_before_yielding(self, name):
        with pytest.raises(WorkloadError):
            node_positions(paper_hierarchy(100), BAD_COLUMNS[name])

    @pytest.mark.parametrize("build", [_build_catalog, _build_sharded])
    @pytest.mark.parametrize("name", sorted(BAD_COLUMNS))
    def test_index_builds_reject(self, tmp_path, build, name):
        """A bad column used to build a wrong index silently (a root
        over part of the rows, or a parent that is not the OR of its
        children); every build entry now refuses it."""
        with pytest.raises(WorkloadError):
            build(paper_hierarchy(100), BAD_COLUMNS[name], tmp_path)

    def test_sharded_build_writes_no_shard(self, tmp_path):
        """The whole column is checked before the first shard is
        written: a bad value in the last shard leaves every shard
        directory empty."""
        column = np.zeros(200, dtype=np.int64)
        column[150] = 100
        with pytest.raises(WorkloadError):
            ShardedExecutor.build(paper_hierarchy(100), column, 2, tmp_path)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize(
        "column", [np.array([], dtype=np.int64), np.array([])]
    )
    def test_empty_column_still_builds(self, column):
        catalog = MaterializedNodeCatalog(paper_hierarchy(100), column)
        assert catalog.num_rows == 0
        assert catalog.bitmap(0) == WahBitmap.zeros(0)


class TestCatalogPayloads:
    @pytest.mark.parametrize("rows", [31, 20_011])
    @pytest.mark.parametrize(
        "hierarchy",
        [paper_hierarchy(100), MIXED_DEPTH],
        ids=["paper100", "mixed-depth"],
    )
    def test_payloads_equal_the_reference_encoding(self, hierarchy, rows):
        """Every node file holds the bytes the per-word oracle encodes
        from the mask scan's rows."""
        column = np.random.default_rng(rows).integers(
            0, hierarchy.num_leaves, size=rows
        )
        store = BitmapFileStore()
        catalog = MaterializedNodeCatalog(hierarchy, column, store)
        for node_id, payload in reference_payloads(
            hierarchy, column
        ).items():
            assert store.read(node_file_name(node_id)) == payload, node_id
            assert catalog.density(node_id) == catalog.bitmap(
                node_id
            ).density()
