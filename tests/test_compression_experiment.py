"""Tests for the compression-scheme comparison experiment and its
PLWAH and Roaring size functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmap.kernels import FILL_FLAG
from repro.bitmap.serialization import HEADER_SIZE_BYTES, TRAILER_SIZE_BYTES
from repro.bitmap.wah import LITERAL_PAYLOAD_MASK, WORD_PAYLOAD_BITS, WahBitmap
from repro.experiments import compression
from repro.experiments.compression import (
    plwah_size_bytes,
    roaring_size_bytes,
)

from .plwah_reference import PlwahBitmap, plwah_encode
from .roaring_reference import CHUNK_BITS, RoaringBitmap

NUM_BITS = 200_000


@pytest.fixture(scope="module")
def result():
    return compression.run(num_bits=NUM_BITS)


class TestSchemeSizes:
    def test_all_schemes_measured(self, result):
        for column in ("wah_mb", "plwah_mb", "roaring_mb"):
            values = result.column(column)
            assert all(value >= 0 for value in values)

    def test_plwah_never_larger_than_wah(self, result):
        for row in result.rows:
            # PLWAH absorbs nearly-identical literals; its word count
            # is bounded by WAH's (same header overhead).
            assert row["plwah_mb"] <= row["wah_mb"] + 1e-9

    def test_roaring_wins_when_sparse(self, result):
        sparse = [
            row for row in result.rows if row["density"] <= 0.002
        ]
        assert sparse
        for row in sparse:
            assert row["roaring_mb"] < row["wah_mb"]

    def test_all_converge_near_raw_when_dense(self, result):
        dense = next(
            row for row in result.rows if row["density"] == 0.5
        )
        assert dense["wah_mb"] <= 1.2 * dense["raw_mb"] * (32 / 31)
        assert dense["plwah_mb"] <= dense["wah_mb"] + 1e-9
        assert dense["roaring_mb"] <= 1.2 * dense["raw_mb"]

    def test_complement_applied_to_every_scheme(self):
        sizes = compression.measure_scheme_sizes(
            NUM_BITS, densities=(0.01, 0.99), seed=0
        )
        for scheme in ("wah", "plwah", "roaring"):
            assert sizes[scheme][0.99] == pytest.approx(
                sizes[scheme][0.01], rel=0.2
            )

    def test_fitted_models_reported(self, result):
        fitted_notes = [
            note for note in result.notes if "fitted" in note
        ]
        assert len(fitted_notes) == 3


# ----------------------------------------------------------------------
# The two size functions against their oracles in tests/.
# ----------------------------------------------------------------------
_GROUP = WORD_PAYLOAD_BITS


@st.composite
def group_built_bitmaps(draw):
    """``(positions, num_bits)`` built one 31-bit group at a time.

    Pieces are 0-fills and 1-fills of 1..40 groups, literals with one
    dirty bit against either fill pattern, and random literals, ending
    in a partial group of 0..30 bits, so every draw mixes the fills and
    literals PLWAH treats differently.
    """
    pieces = draw(
        st.lists(
            st.sampled_from(["zeros", "ones", "dirty0", "dirty1", "literal"]),
            max_size=12,
        )
    )
    positions: list[int] = []
    group = 0
    for piece in pieces:
        base = group * _GROUP
        if piece in ("zeros", "ones"):
            groups = draw(st.integers(min_value=1, max_value=40))
            if piece == "ones":
                positions.extend(range(base, base + groups * _GROUP))
            group += groups
            continue
        bit = draw(st.integers(min_value=0, max_value=_GROUP - 1))
        if piece == "dirty0":
            positions.append(base + bit)
        elif piece == "dirty1":
            positions.extend(
                base + b for b in range(_GROUP) if b != bit
            )
        else:
            payload = draw(st.integers(0, LITERAL_PAYLOAD_MASK))
            positions.extend(
                base + b for b in range(_GROUP) if payload >> b & 1
            )
        group += 1
    tail_bits = draw(st.integers(min_value=0, max_value=_GROUP - 1))
    tail = draw(st.integers(min_value=0, max_value=(1 << tail_bits) - 1))
    base = group * _GROUP
    positions.extend(base + b for b in range(tail_bits) if tail >> b & 1)
    return positions, base + tail_bits


class TestPlwahSizeFunction:
    @given(group_built_bitmaps())
    @example(([], 0))  # empty
    @example((list(range(310)), 310))  # all ones, whole groups
    @example((list(range(317)), 317))  # all ones, partial literal
    @example(([400], 401))  # one-bit literal after a 0-fill
    @example(([b for b in range(124) if b != 100], 124))  # after a 1-fill
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle(self, data):
        positions, num_bits = data
        wah = WahBitmap.from_positions(positions, num_bits)
        assert plwah_size_bytes(wah.words) == (
            PlwahBitmap.from_wah(wah).serialized_size_bytes
        )

    def test_fill_longer_than_a_plwah_fill_word(self):
        """A 0-fill of 2^25 + 5 groups, then a one-bit literal: the
        fill splits in two and the literal is not absorbed."""
        groups = (1 << 25) + 5
        wah = WahBitmap.from_positions(
            [groups * _GROUP], (groups + 1) * _GROUP
        )
        assert wah.num_words == 2
        frame = HEADER_SIZE_BYTES + TRAILER_SIZE_BYTES
        assert plwah_size_bytes(wah.words) == frame + 4 * 3
        assert PlwahBitmap.from_wah(wah).num_words == 3

    def test_literal_equal_to_the_fill_pattern_is_kept(self):
        """Not canonical WAH, so no bitmap draw reaches it: a literal
        with no dirty bit is not absorbed."""
        words = [FILL_FLAG | 5, 0]
        frame = HEADER_SIZE_BYTES + TRAILER_SIZE_BYTES
        assert plwah_size_bytes(words) == frame + 4 * 2
        assert len(plwah_encode(words)) == 2


@st.composite
def chunked_positions(draw):
    """Distinct positions over up to three 2^16-bit chunks, each chunk
    holding a drawn number of rows around the 4,096-row container
    switch, plus rows at the chunk borders."""
    num_chunks = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for key in range(num_chunks):
        card = draw(
            st.one_of(
                st.sampled_from([0, 1, 4_095, 4_096, 4_097, 8_192]),
                st.integers(min_value=0, max_value=6_000),
            )
        )
        offsets = rng.choice(CHUNK_BITS, size=card, replace=False)
        parts.append(offsets + key * CHUNK_BITS)
    borders = draw(
        st.sets(st.sampled_from([0, 65_535, 65_536, 131_071, 131_072]))
    )
    num_bits = num_chunks * CHUNK_BITS + 1
    parts.append(np.array([b for b in borders if b < num_bits], dtype=int))
    return np.unique(np.concatenate(parts)), num_bits


class TestRoaringSizeFunction:
    @given(chunked_positions())
    @example((np.array([], dtype=np.int64), 10))  # empty
    @example((np.arange(4_096), CHUNK_BITS))  # 4,096 rows: array
    @example((np.arange(4_097), CHUNK_BITS))  # 4,097 rows: bitmap
    @example((np.array([65_535, 65_536]), 2 * CHUNK_BITS))
    @example((np.arange(2 * CHUNK_BITS), 2 * CHUNK_BITS))  # all ones
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle(self, data):
        positions, num_bits = data
        assert roaring_size_bytes(positions) == (
            RoaringBitmap.from_positions(
                positions, num_bits
            ).serialized_size_bytes
        )

    def test_leaves_out_the_frame(self):
        assert roaring_size_bytes([65_535, 65_536]) == 2 * (8 + 2)
