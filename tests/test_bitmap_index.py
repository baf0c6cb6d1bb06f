"""Tests for WAH concat and the per-node tails an append builds."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmap.builder import node_positions
from repro.bitmap.wah import WORD_PAYLOAD_BITS, WahBitmap
from repro.hierarchy.tree import Hierarchy

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
