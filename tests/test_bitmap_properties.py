"""Property-based tests: WAH against the plain reference bitmap.

The :class:`PlainBitmap` (a Python-int bitvector in
``tests/plain_reference.py``) is the oracle; every WAH operation must
agree with it on arbitrary inputs, including lengths that are not
multiples of the 31-bit group size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.serialization import deserialize_wah, serialize_wah
from repro.bitmap.wah import WahBitmap

from .plain_reference import PlainBitmap

MAX_BITS = 700


@st.composite
def bitmap_pair(draw):
    """Two position sets over a shared random length."""
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    positions = st.lists(
        st.integers(min_value=0, max_value=num_bits - 1),
        max_size=num_bits,
    )
    return num_bits, draw(positions), draw(positions)


@st.composite
def single_bitmap(draw):
    num_bits = draw(st.integers(min_value=0, max_value=MAX_BITS))
    if num_bits == 0:
        return num_bits, []
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_bits - 1),
            max_size=num_bits,
        )
    )
    return num_bits, positions


def _pair(num_bits, positions):
    return (
        WahBitmap.from_positions(positions, num_bits),
        PlainBitmap.from_positions(positions, num_bits),
    )


@given(single_bitmap())
@settings(max_examples=200)
def test_count_and_positions_match_reference(data):
    num_bits, positions = data
    wah, plain = _pair(num_bits, positions)
    assert wah.count() == plain.count()
    assert wah.to_positions().tolist() == plain.to_positions().tolist()
    assert wah.density() == plain.density()


@given(single_bitmap())
@settings(max_examples=200)
def test_serialization_roundtrip(data):
    num_bits, positions = data
    wah = WahBitmap.from_positions(positions, num_bits)
    assert deserialize_wah(serialize_wah(wah)) == wah


@given(single_bitmap())
@settings(max_examples=200)
def test_invert_matches_reference(data):
    num_bits, positions = data
    wah, plain = _pair(num_bits, positions)
    assert (
        (~wah).to_positions().tolist()
        == (~plain).to_positions().tolist()
    )


@given(bitmap_pair())
@settings(max_examples=200)
def test_binary_ops_match_reference(data):
    num_bits, left_positions, right_positions = data
    wah_a, plain_a = _pair(num_bits, left_positions)
    wah_b, plain_b = _pair(num_bits, right_positions)
    for wah_result, plain_result in [
        (wah_a & wah_b, plain_a & plain_b),
        (wah_a | wah_b, plain_a | plain_b),
        (wah_a ^ wah_b, plain_a ^ plain_b),
        (wah_a.andnot(wah_b), plain_a.andnot(plain_b)),
    ]:
        assert (
            wah_result.to_positions().tolist()
            == plain_result.to_positions().tolist()
        )
        assert wah_result.num_bits == num_bits


@given(bitmap_pair())
@settings(max_examples=100)
def test_de_morgan(data):
    num_bits, left_positions, right_positions = data
    a = WahBitmap.from_positions(left_positions, num_bits)
    b = WahBitmap.from_positions(right_positions, num_bits)
    assert ~(a | b) == (~a & ~b)
    assert ~(a & b) == (~a | ~b)


@given(single_bitmap())
@settings(max_examples=100)
def test_get_matches_membership(data):
    num_bits, positions = data
    wah = WahBitmap.from_positions(positions, num_bits)
    wanted = set(positions)
    for bit in range(num_bits):
        assert wah.get(bit) == (bit in wanted)


@given(
    st.integers(min_value=1, max_value=50_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_random_density_roundtrips(num_bits, density, seed):
    rng = np.random.default_rng(seed)
    target = int(round(density * num_bits))
    positions = rng.choice(num_bits, size=target, replace=False)
    wah = WahBitmap.from_positions(positions, num_bits)
    assert wah.count() == target
    assert deserialize_wah(serialize_wah(wah)) == wah


@given(bitmap_pair())
@settings(max_examples=100)
def test_canonical_equality_from_different_routes(data):
    """The same bit set reaches the same canonical encoding whether it
    is built directly or produced by operations."""
    num_bits, left_positions, right_positions = data
    a = WahBitmap.from_positions(left_positions, num_bits)
    b = WahBitmap.from_positions(right_positions, num_bits)
    union_ops = a | b
    union_direct = WahBitmap.from_positions(
        sorted(set(left_positions) | set(right_positions)), num_bits
    )
    assert union_ops == union_direct
    assert union_ops.words == union_direct.words
