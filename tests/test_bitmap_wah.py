"""Unit tests for the WAH compressed bitmap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap.wah import (
    LITERAL_PAYLOAD_MASK,
    WORD_PAYLOAD_BITS,
    WahBitmap,
)
from repro.errors import BitmapLengthMismatchError

from .wah_reference import iter_runs


class TestConstructors:
    def test_zeros_has_no_set_bits(self):
        bitmap = WahBitmap.zeros(1000)
        assert bitmap.count() == 0
        assert bitmap.density() == 0.0
        assert bitmap.num_bits == 1000

    def test_zeros_compresses_to_one_fill_word(self):
        bitmap = WahBitmap.zeros(10_000_000)
        assert bitmap.num_words == 1

    def test_ones_has_all_bits_set(self):
        bitmap = WahBitmap.ones(1000)
        assert bitmap.count() == 1000
        assert bitmap.density() == 1.0

    def test_ones_with_partial_tail_group(self):
        num_bits = WORD_PAYLOAD_BITS * 3 + 7
        bitmap = WahBitmap.ones(num_bits)
        assert bitmap.count() == num_bits
        assert bitmap.get(num_bits - 1)

    def test_ones_exact_group_boundary(self):
        bitmap = WahBitmap.ones(WORD_PAYLOAD_BITS * 4)
        assert bitmap.count() == WORD_PAYLOAD_BITS * 4
        assert bitmap.num_words == 1

    def test_empty_bitmap(self):
        bitmap = WahBitmap.zeros(0)
        assert bitmap.count() == 0
        assert bitmap.num_bits == 0
        assert bitmap.density() == 0.0

    def test_from_positions(self):
        positions = [0, 5, 31, 62, 999]
        bitmap = WahBitmap.from_positions(positions, 1000)
        assert bitmap.count() == len(positions)
        assert bitmap.to_positions().tolist() == positions

    def test_from_positions_unsorted_and_duplicated(self):
        bitmap = WahBitmap.from_positions([9, 3, 3, 9, 1], 16)
        assert bitmap.to_positions().tolist() == [1, 3, 9]

    def test_from_positions_out_of_range(self):
        with pytest.raises(ValueError):
            WahBitmap.from_positions([10], 10)
        with pytest.raises(ValueError):
            WahBitmap.from_positions([-1], 10)

    def test_from_positions_empty(self):
        bitmap = WahBitmap.from_positions([], 77)
        assert bitmap.count() == 0
        assert bitmap.num_bits == 77

    def test_from_dense(self):
        dense = np.zeros(200, dtype=bool)
        dense[[0, 63, 100, 199]] = True
        bitmap = WahBitmap.from_dense(dense)
        assert bitmap.to_positions().tolist() == [0, 63, 100, 199]
        np.testing.assert_array_equal(bitmap.to_dense(), dense)

    def test_from_runs(self):
        bitmap = WahBitmap.from_runs([(0, 10), (50, 62)], 100)
        expected = list(range(0, 10)) + list(range(50, 62))
        assert bitmap.to_positions().tolist() == expected

    def test_from_runs_rejects_overlap(self):
        with pytest.raises(ValueError):
            WahBitmap.from_runs([(0, 10), (5, 15)], 100)

    def test_from_runs_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WahBitmap.from_runs([(90, 101)], 100)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WahBitmap.zeros(-1)


class TestCompression:
    def test_long_one_run_compresses(self):
        bitmap = WahBitmap.from_runs([(0, 31 * 1000)], 31 * 1000)
        assert bitmap.num_words <= 2

    def test_sparse_bitmap_is_small(self):
        bitmap = WahBitmap.from_positions([500_000], 1_000_000)
        assert bitmap.num_words <= 3

    def test_alternating_bits_stay_literal(self):
        positions = np.arange(0, 310, 2)
        bitmap = WahBitmap.from_positions(positions, 310)
        assert bitmap.num_words == 10  # all literal groups

    def test_canonical_encoding_no_adjacent_same_fills(self):
        bitmap = WahBitmap.from_positions([100, 200, 300], 1000)
        runs = list(iter_runs(bitmap.words))
        for left, right in zip(runs, runs[1:]):
            if left[0] and right[0]:  # both fills
                assert left[1] != right[1]


class TestAccessors:
    def test_get(self):
        bitmap = WahBitmap.from_positions([0, 40, 99], 100)
        assert bitmap.get(0)
        assert bitmap.get(40)
        assert bitmap.get(99)
        assert not bitmap.get(1)
        assert not bitmap.get(98)

    def test_get_out_of_range(self):
        bitmap = WahBitmap.zeros(10)
        with pytest.raises(IndexError):
            bitmap.get(10)
        with pytest.raises(IndexError):
            bitmap.get(-1)

    def test_density(self):
        bitmap = WahBitmap.from_positions(range(25), 100)
        assert bitmap.density() == pytest.approx(0.25)

    def test_len(self):
        assert len(WahBitmap.zeros(42)) == 42

    def test_repr_mentions_counts(self):
        text = repr(WahBitmap.from_positions([1], 10))
        assert "count=1" in text


class TestLogicalOps:
    def test_and(self):
        a = WahBitmap.from_positions([1, 2, 3, 100], 200)
        b = WahBitmap.from_positions([2, 3, 4, 150], 200)
        assert (a & b).to_positions().tolist() == [2, 3]

    def test_or(self):
        a = WahBitmap.from_positions([1, 100], 200)
        b = WahBitmap.from_positions([2, 150], 200)
        assert (a | b).to_positions().tolist() == [1, 2, 100, 150]

    def test_xor(self):
        a = WahBitmap.from_positions([1, 2], 64)
        b = WahBitmap.from_positions([2, 3], 64)
        assert (a ^ b).to_positions().tolist() == [1, 3]

    def test_andnot(self):
        a = WahBitmap.from_positions([1, 2, 3], 64)
        b = WahBitmap.from_positions([2], 64)
        assert a.andnot(b).to_positions().tolist() == [1, 3]

    def test_invert(self):
        bitmap = WahBitmap.from_positions([0, 2], 5)
        assert (~bitmap).to_positions().tolist() == [1, 3, 4]

    def test_invert_keeps_padding_clear(self):
        bitmap = WahBitmap.zeros(40)  # 40 % 31 != 0
        flipped = ~bitmap
        assert flipped.count() == 40
        assert flipped.to_positions().tolist() == list(range(40))

    def test_double_invert_roundtrip(self):
        bitmap = WahBitmap.from_positions([0, 17, 62, 63], 70)
        assert ~~bitmap == bitmap

    def test_ops_with_fills_spanning_boundaries(self):
        a = WahBitmap.from_runs([(0, 310)], 620)
        b = WahBitmap.from_runs([(155, 465)], 620)
        expected = list(range(155, 310))
        assert (a & b).to_positions().tolist() == expected

    def test_length_mismatch_raises(self):
        a = WahBitmap.zeros(10)
        b = WahBitmap.zeros(11)
        with pytest.raises(BitmapLengthMismatchError):
            _ = a & b

    def test_union_all(self):
        bitmaps = [
            WahBitmap.from_positions([i], 50) for i in (3, 7, 11)
        ]
        union = WahBitmap.union_all(bitmaps)
        assert union.to_positions().tolist() == [3, 7, 11]

    def test_union_all_empty_needs_num_bits(self):
        with pytest.raises(ValueError):
            WahBitmap.union_all([])
        assert WahBitmap.union_all([], num_bits=9).count() == 0

    def test_and_with_ones_is_identity(self):
        bitmap = WahBitmap.from_positions([5, 36, 68], 70)
        assert (bitmap & WahBitmap.ones(70)) == bitmap

    def test_or_with_zeros_is_identity(self):
        bitmap = WahBitmap.from_positions([5, 36, 68], 70)
        assert (bitmap | WahBitmap.zeros(70)) == bitmap


class TestEqualityAndHash:
    def test_equal_bitmaps_share_hash(self):
        a = WahBitmap.from_positions([1, 2, 64], 100)
        b = WahBitmap.from_positions([64, 2, 1], 100)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_lengths_not_equal(self):
        assert WahBitmap.zeros(10) != WahBitmap.zeros(11)

    def test_not_equal_to_other_types(self):
        assert WahBitmap.zeros(10) != "bitmap"


def test_literal_payload_constants():
    assert LITERAL_PAYLOAD_MASK == (1 << WORD_PAYLOAD_BITS) - 1
    assert WORD_PAYLOAD_BITS == 31
