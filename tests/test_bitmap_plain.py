"""Unit tests for the plain reference bitmap (the test oracle)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BitmapLengthMismatchError

from .plain_reference import PlainBitmap


class TestConstruction:
    def test_zeros_and_ones(self):
        assert PlainBitmap.zeros(8).count() == 0
        assert PlainBitmap.ones(8).count() == 8

    def test_from_positions(self):
        bitmap = PlainBitmap.from_positions([0, 3, 7], 8)
        assert bitmap.to_positions().tolist() == [0, 3, 7]

    def test_from_positions_out_of_range(self):
        with pytest.raises(ValueError):
            PlainBitmap.from_positions([8], 8)

    def test_from_dense_roundtrip(self):
        dense = np.array([True, False, True, True])
        bitmap = PlainBitmap.from_dense(dense)
        np.testing.assert_array_equal(bitmap.to_dense(), dense)

    def test_value_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            PlainBitmap(3, 0b1000)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PlainBitmap(-1)


class TestOperations:
    def test_and_or_xor_andnot(self):
        a = PlainBitmap.from_positions([0, 1, 2], 8)
        b = PlainBitmap.from_positions([1, 2, 3], 8)
        assert (a & b).to_positions().tolist() == [1, 2]
        assert (a | b).to_positions().tolist() == [0, 1, 2, 3]
        assert (a ^ b).to_positions().tolist() == [0, 3]
        assert a.andnot(b).to_positions().tolist() == [0]

    def test_invert_respects_length(self):
        bitmap = PlainBitmap.from_positions([0], 3)
        assert (~bitmap).to_positions().tolist() == [1, 2]

    def test_length_mismatch(self):
        with pytest.raises(BitmapLengthMismatchError):
            _ = PlainBitmap.zeros(4) | PlainBitmap.zeros(5)

    def test_get(self):
        bitmap = PlainBitmap.from_positions([2], 4)
        assert bitmap.get(2)
        assert not bitmap.get(1)
        with pytest.raises(IndexError):
            bitmap.get(4)

    def test_density_of_empty_domain(self):
        assert PlainBitmap.zeros(0).density() == 0.0

    def test_iter_positions(self):
        bitmap = PlainBitmap.from_positions([5, 1], 8)
        assert list(bitmap.iter_positions()) == [1, 5]

    def test_positions_above_64_bit_boundary(self):
        positions = [63, 64, 65, 128, 200]
        bitmap = PlainBitmap.from_positions(positions, 256)
        assert bitmap.to_positions().tolist() == positions


class TestDunder:
    def test_equality_and_hash(self):
        a = PlainBitmap.from_positions([1], 8)
        b = PlainBitmap.from_positions([1], 8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != PlainBitmap.from_positions([1], 9)
        assert a != object()

    def test_len_and_repr(self):
        bitmap = PlainBitmap.from_positions([1, 2], 8)
        assert len(bitmap) == 8
        assert "count=2" in repr(bitmap)
