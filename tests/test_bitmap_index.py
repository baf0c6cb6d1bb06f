"""Tests for WAH concat and the appendable hierarchical index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmap.builder import node_positions
from repro.bitmap.index import HierarchicalBitmapIndex
from repro.bitmap.wah import WORD_PAYLOAD_BITS, WahBitmap
from repro.errors import WorkloadError
from repro.hierarchy.tree import Hierarchy
from repro.storage.filestore import BitmapFileStore

from .builder_reference import mask_positions
from .wah_reference import ReferenceWah

#: Side lengths up to 2,000 bits; lengths around the 31-bit group seam
#: are always among the draws.
SIDE_LENGTHS = st.one_of(
    st.sampled_from((0, 1, 30, 31, 32, 62)),
    st.integers(min_value=0, max_value=2_000),
)
#: Densities from all-zero to all-one.
DENSITIES = st.sampled_from((0.0, 0.001, 0.05, 0.3, 0.5, 0.9, 0.999, 1.0))


class TestConcat:
    def test_aligned_concat(self):
        a = WahBitmap.from_positions([0, 30], WORD_PAYLOAD_BITS * 2)
        b = WahBitmap.from_positions([5], 40)
        joined = a.concat(b)
        assert joined.num_bits == WORD_PAYLOAD_BITS * 2 + 40
        assert joined.to_positions().tolist() == [
            0, 30, WORD_PAYLOAD_BITS * 2 + 5,
        ]

    def test_unaligned_concat(self):
        a = WahBitmap.from_positions([1, 35], 40)
        b = WahBitmap.from_positions([0, 30], 31)
        joined = a.concat(b)
        assert joined.to_positions().tolist() == [1, 35, 40, 70]
        assert joined.num_bits == 71

    def test_concat_with_empty(self):
        a = WahBitmap.from_positions([3], 10)
        assert a.concat(WahBitmap.zeros(0)) == a
        grown = WahBitmap.zeros(0).concat(a)
        assert grown == a

    def test_aligned_concat_merges_fills_at_seam(self):
        a = WahBitmap.zeros(WORD_PAYLOAD_BITS * 3)
        b = WahBitmap.zeros(WORD_PAYLOAD_BITS * 4)
        joined = a.concat(b)
        assert joined.num_words == 1

    @given(
        SIDE_LENGTHS,
        SIDE_LENGTHS,
        DENSITIES,
        DENSITIES,
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300)
    @example(1, 62, 1.0, 1.0, 0)
    @example(30, 32, 1.0, 1.0, 0)
    @example(31, 30, 1.0, 0.0, 0)
    @example(32, 31, 0.0, 1.0, 0)
    @example(62, 1, 1.0, 1.0, 0)
    @example(0, 30, 0.0, 1.0, 0)
    def test_concat_matches_position_arithmetic(
        self, left_bits, right_bits, left_density, right_density, seed
    ):
        rng = np.random.default_rng(seed)
        left = np.flatnonzero(rng.random(left_bits) < left_density)
        right = np.flatnonzero(rng.random(right_bits) < right_density)
        a = WahBitmap.from_positions(left, left_bits)
        b = WahBitmap.from_positions(right, right_bits)
        joined = a.concat(b)
        expected = left.tolist() + (right + left_bits).tolist()
        assert joined.to_positions().tolist() == expected
        assert joined.num_bits == left_bits + right_bits
        reference = ReferenceWah.of(a).concat(ReferenceWah.of(b))
        assert joined.words == reference.words


@pytest.fixture
def hierarchy() -> Hierarchy:
    return Hierarchy.from_nested([[3, 3], [2, 4]])


class TestHierarchicalBitmapIndex:
    def test_initial_column_indexed(self, hierarchy, rng):
        column = rng.integers(0, hierarchy.num_leaves, size=500)
        index = HierarchicalBitmapIndex(hierarchy, column)
        assert index.num_rows == 500
        index.verify_consistency()

    def test_batch_appends_accumulate(self, hierarchy, rng):
        index = HierarchicalBitmapIndex(hierarchy)
        batches = [
            rng.integers(0, hierarchy.num_leaves, size=n)
            for n in (100, 37, 501)
        ]
        for batch in batches:
            index.append_rows(batch)
        assert index.num_rows == sum(b.size for b in batches)
        index.verify_consistency()
        full = np.concatenate(batches)
        whole = HierarchicalBitmapIndex(hierarchy, full)
        for node in hierarchy:
            assert index.bitmap(node.node_id) == whole.bitmap(
                node.node_id
            )

    def test_lookup_range_matches_scan(self, hierarchy, rng):
        column = rng.integers(0, hierarchy.num_leaves, size=1000)
        index = HierarchicalBitmapIndex(hierarchy, column)
        for lo, hi in [(0, 2), (3, 8), (0, 11), (5, 5), (7, 3)]:
            answer = index.lookup_range(lo, hi)
            expected = np.flatnonzero(
                (column >= lo) & (column <= hi)
            ).tolist()
            assert answer.to_positions().tolist() == expected

    def test_lookup_after_appends(self, hierarchy, rng):
        index = HierarchicalBitmapIndex(hierarchy)
        column_parts = []
        for _ in range(4):
            batch = rng.integers(0, hierarchy.num_leaves, size=200)
            index.append_rows(batch)
            column_parts.append(batch)
        column = np.concatenate(column_parts)
        answer = index.lookup_range(2, 9)
        expected = np.flatnonzero(
            (column >= 2) & (column <= 9)
        ).tolist()
        assert answer.to_positions().tolist() == expected

    def test_empty_append_is_noop(self, hierarchy):
        index = HierarchicalBitmapIndex(hierarchy)
        index.append_rows(np.array([], dtype=np.int64))
        assert index.num_rows == 0

    def test_validation(self, hierarchy):
        index = HierarchicalBitmapIndex(hierarchy)
        with pytest.raises(WorkloadError):
            index.append_rows(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(WorkloadError):
            index.append_rows(np.array([0.5]))
        with pytest.raises(WorkloadError):
            index.append_rows(
                np.array([hierarchy.num_leaves], dtype=np.int64)
            )

    def test_density(self, hierarchy):
        column = np.zeros(100, dtype=np.int64)
        index = HierarchicalBitmapIndex(hierarchy, column)
        leaf0 = hierarchy.leaf_node_id(0)
        assert index.density(leaf0) == pytest.approx(1.0)
        assert index.density(hierarchy.root_id) == pytest.approx(1.0)

    def test_flush_to_store(self, hierarchy, rng):
        column = rng.integers(0, hierarchy.num_leaves, size=300)
        index = HierarchicalBitmapIndex(hierarchy, column)
        store = BitmapFileStore()
        written = index.flush_to_store(store)
        assert written == store.total_bytes()
        assert store.exists("node_0.wah")
        assert (
            len(list(store.names())) == hierarchy.num_nodes
        )

    def test_zero_size_fill_tail_stays_compact(self, hierarchy):
        """Appending rows that miss a node grows its bitmap by at
        most one fill word."""
        index = HierarchicalBitmapIndex(hierarchy)
        index.append_rows(np.zeros(10_000, dtype=np.int64))
        last_leaf = hierarchy.leaf_node_id(
            hierarchy.num_leaves - 1
        )
        assert index.bitmap(last_leaf).num_words <= 1

    def test_repr(self, hierarchy):
        assert "rows=0" in repr(HierarchicalBitmapIndex(hierarchy))


class TestAppendVectorization:
    """Appends build their tails through the index builder, which must
    be indistinguishable from the per-node mask loop it replaced (kept
    as the oracle in ``tests/builder_reference.py``)."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=11),
            max_size=200,
        )
    )
    def test_tail_positions_match_the_reference(self, values):
        hierarchy = Hierarchy.from_nested([[2, 2], [3, 2], [3]])
        batch = np.asarray(values, dtype=np.int64)
        built = {
            node_id: positions.tolist()
            for node_id, positions in node_positions(hierarchy, batch)
        }
        reference = {
            node_id: positions.tolist()
            for node_id, positions in mask_positions(hierarchy, batch)
        }
        # Node for node, the same rows in the same (sorted) order.
        assert built == reference

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=11),
                max_size=60,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_appended_bitmaps_match_the_reference_loop(
        self, batches
    ):
        hierarchy = Hierarchy.from_nested([[2, 2], [3, 2], [3]])
        fast = HierarchicalBitmapIndex(hierarchy)
        oracle = HierarchicalBitmapIndex(hierarchy)
        for values in batches:
            batch = np.asarray(values, dtype=np.int64)
            fast.append_rows(batch)
            if batch.size == 0:
                continue
            # Drive the oracle index through the reference loop.
            for node_id, positions in mask_positions(hierarchy, batch):
                tail = WahBitmap.from_positions(
                    positions, batch.size
                )
                oracle._bitmaps[node_id] = oracle._bitmaps[
                    node_id
                ].concat(tail)
            oracle._num_rows += int(batch.size)
        assert fast.num_rows == oracle.num_rows
        for node in hierarchy:
            ours = fast.bitmap(node.node_id)
            theirs = oracle.bitmap(node.node_id)
            assert ours.words == theirs.words, node.node_id
        fast.verify_consistency()
