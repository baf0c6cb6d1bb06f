"""Tests for the PLWAH oracle (``tests/plwah_reference.py``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.wah import WahBitmap

from .plwah_reference import PlwahBitmap, plwah_decode, plwah_encode


class TestCodecRoundTrip:
    @given(
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150)
    def test_encode_decode_roundtrip_random(self, num_bits, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, max(1, num_bits // 4 + 1)))
        positions = (
            rng.choice(num_bits, size=size, replace=False)
            if num_bits
            else np.empty(0, dtype=np.int64)
        )
        wah = WahBitmap.from_positions(positions, num_bits)
        decoded = plwah_decode(plwah_encode(wah.words))
        restored = WahBitmap(list(decoded), num_bits)
        assert restored == wah

    def test_roundtrip_dense_patterns(self):
        for num_bits, pattern in [
            (310, range(0, 310, 2)),
            (310, range(310)),
            (310, []),
            (1000, [500]),
            (1000, range(100, 900)),
        ]:
            wah = WahBitmap.from_positions(list(pattern), num_bits)
            restored = WahBitmap(
                list(plwah_decode(plwah_encode(wah.words))),
                num_bits,
            )
            assert restored == wah


class TestCompressionGain:
    def test_absorbs_single_dirty_bit_literals(self):
        """A lone set bit after a long zero run costs one word in
        PLWAH (fill+piggyback) but two in WAH (fill+literal)."""
        wah = WahBitmap.from_positions([10_000], 1_000_000)
        plwah = PlwahBitmap.from_wah(wah)
        assert plwah.num_words < wah.num_words

    def test_sparse_random_bitmap_smaller_than_wah(self):
        rng = np.random.default_rng(0)
        num_bits = 1_000_000
        positions = rng.choice(num_bits, size=2000, replace=False)
        wah = WahBitmap.from_positions(positions, num_bits)
        plwah = PlwahBitmap.from_wah(wah)
        assert (
            plwah.serialized_size_bytes
            < 0.8 * wah.serialized_size_bytes
        )

    def test_never_larger_than_wah(self):
        rng = np.random.default_rng(1)
        for density in (0.001, 0.01, 0.1, 0.5):
            num_bits = 100_000
            positions = rng.choice(
                num_bits,
                size=int(density * num_bits),
                replace=False,
            )
            wah = WahBitmap.from_positions(positions, num_bits)
            plwah = PlwahBitmap.from_wah(wah)
            assert plwah.num_words <= wah.num_words


class TestBitmapApi:
    def test_constructors_and_introspection(self):
        plwah = PlwahBitmap.from_positions([1, 40, 99], 100)
        assert plwah.num_bits == 100
        assert plwah.count() == 3
        assert plwah.density() == pytest.approx(0.03)
        assert plwah.to_positions().tolist() == [1, 40, 99]
        assert PlwahBitmap.zeros(50).count() == 0

    def test_logical_ops_match_wah(self):
        a_positions = [1, 5, 60, 61]
        b_positions = [5, 61, 70]
        a = PlwahBitmap.from_positions(a_positions, 100)
        b = PlwahBitmap.from_positions(b_positions, 100)
        wah_a = WahBitmap.from_positions(a_positions, 100)
        wah_b = WahBitmap.from_positions(b_positions, 100)
        assert (a & b).to_positions().tolist() == (
            wah_a & wah_b
        ).to_positions().tolist()
        assert (a | b).to_positions().tolist() == (
            wah_a | wah_b
        ).to_positions().tolist()
        assert (a ^ b).to_positions().tolist() == (
            wah_a ^ wah_b
        ).to_positions().tolist()
        assert a.andnot(b).to_positions().tolist() == (
            wah_a.andnot(wah_b)
        ).to_positions().tolist()
        assert (~a).count() == 100 - a.count()

    def test_to_wah_roundtrip(self):
        plwah = PlwahBitmap.from_positions([0, 31, 62, 93], 100)
        assert plwah.to_wah() == WahBitmap.from_positions(
            [0, 31, 62, 93], 100
        )

    def test_equality_and_repr(self):
        a = PlwahBitmap.from_positions([1], 10)
        b = PlwahBitmap.from_positions([1], 10)
        assert a == b
        assert hash(a) == hash(b)
        assert a != PlwahBitmap.from_positions([2], 10)
        assert a != object()
        assert "words=" in repr(a)
        assert len(a) == 10
