"""WAH kernels: bulk run-array operations over ``np.uint32`` word arrays.

Every :class:`~repro.bitmap.wah.WahBitmap` operation bottoms out in one
function here.  Each takes canonical WAH code words as an ``np.uint32``
array and returns one, working on whole numpy arrays instead of one
code word at a time:

1. **decode** a word array once into two parallel ``int64`` arrays —
   ``lengths`` (groups covered by each run) and ``payloads`` (the 31-bit
   payload replicated across the run: ``0`` / ``0x7FFFFFFF`` for fills,
   the literal word otherwise);
2. **operate** on the run arrays: merge two (or ``k``) of them
   group-aligned by intersecting their cumulative group boundaries with
   ``searchsorted`` and applying the bitwise op to whole payload arrays,
   or shift one by a seam offset to append it to another;
3. **re-encode** canonically with :func:`encode_runs` — uniform
   segments collapse into fill words, adjacent same-value fills merge,
   and oversized fills split at the 2^30-1 group limit — so equal bits
   always give equal words.

The invariant the merge step relies on: a decoded run with a
non-uniform payload always covers exactly one group (it came from a
literal word), so any merged segment wider than one group is covered by
fills on every input and therefore has a uniform result payload.

The per-word implementation these kernels replaced lives on as the test
oracle in ``tests/wah_reference.py``; the property suites assert
word-level equality with it for every operation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import BitmapDecodeError

__all__ = [
    "WORD_PAYLOAD_BITS",
    "LITERAL_PAYLOAD_MASK",
    "FILL_FLAG",
    "FILL_VALUE_BIT",
    "FILL_COUNT_MASK",
    "MAX_FILL_GROUPS",
    "decode_words",
    "encode_runs",
    "binary_words",
    "union_all_words",
    "invert_words",
    "concat_words",
    "positions_to_words",
    "words_to_positions",
    "sorted_unique",
    "word_bit",
    "count_words",
    "popcount32",
]

WORD_PAYLOAD_BITS = 31
LITERAL_PAYLOAD_MASK = (1 << WORD_PAYLOAD_BITS) - 1  # 0x7FFFFFFF
FILL_FLAG = 1 << 31
FILL_VALUE_BIT = 1 << 30
FILL_COUNT_MASK = (1 << 30) - 1
MAX_FILL_GROUPS = FILL_COUNT_MASK


# ----------------------------------------------------------------------
# Decode / encode between word arrays and run arrays
# ----------------------------------------------------------------------
def decode_words(words) -> tuple[np.ndarray, np.ndarray]:
    """Decode a WAH word array into ``(lengths, payloads)`` run arrays.

    ``lengths[i]`` is the number of 31-bit groups run ``i`` covers and
    ``payloads[i]`` the payload of every group in the run (``0`` or
    ``LITERAL_PAYLOAD_MASK`` for fills; literal runs always have length
    one).  Zero-length fills (non-canonical) are dropped.
    """
    w = np.asarray(words, dtype=np.int64)
    if w.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    is_fill = (w & FILL_FLAG) != 0
    lengths = np.where(is_fill, w & FILL_COUNT_MASK, 1)
    fill_payload = np.where(
        (w & FILL_VALUE_BIT) != 0, LITERAL_PAYLOAD_MASK, 0
    )
    payloads = np.where(is_fill, fill_payload, w & LITERAL_PAYLOAD_MASK)
    if lengths.min() <= 0:
        keep = lengths > 0
        lengths = lengths[keep]
        payloads = payloads[keep]
    return lengths, payloads


def _split_oversized_fills(
    lengths: np.ndarray,
    payloads: np.ndarray,
    uniform: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every fill longer than the 30-bit group count into
    ``MAX_FILL_GROUPS``-sized pieces followed by the remainder, the
    canonical order in which fills merge up to their limit."""
    pieces = np.where(uniform, -(-lengths // MAX_FILL_GROUPS), 1)
    first_piece = np.cumsum(pieces) - pieces
    piece_index = np.arange(int(pieces.sum())) - np.repeat(
        first_piece, pieces
    )
    lengths = np.minimum(
        np.repeat(lengths, pieces) - piece_index * MAX_FILL_GROUPS,
        MAX_FILL_GROUPS,
    )
    return lengths, np.repeat(payloads, pieces), np.repeat(uniform, pieces)


def encode_runs(lengths, payloads) -> np.ndarray:
    """Canonically encode run arrays into a ``np.uint32`` word array.

    Uniform payloads become fill words, adjacent fills of the same value
    merge (splitting at ``MAX_FILL_GROUPS``), and every non-uniform group
    becomes one literal word.  Zero-length runs are dropped, so callers
    may pass runs that turned out empty.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.int64)
    if lengths.size and lengths.min() <= 0:
        keep = lengths > 0
        lengths = lengths[keep]
        payloads = payloads[keep]
    n = lengths.size
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    uniform = (payloads == 0) | (payloads == LITERAL_PAYLOAD_MASK)
    if bool(np.any(~uniform & (lengths > 1))):
        # Defensive: a multi-group run with a non-uniform payload can
        # only come from hand-built input; expand it into unit literals
        # so canonicalization below stays correct.
        reps = np.where(uniform, 1, lengths)
        payloads = np.repeat(payloads, reps)
        lengths = np.repeat(np.where(uniform, lengths, 1), reps)
        uniform = np.repeat(uniform, reps)
        n = lengths.size
    # A new output word starts wherever the previous run cannot absorb
    # this one (literals never merge; fills merge only on equal value).
    start = np.empty(n, dtype=bool)
    start[0] = True
    if n > 1:
        start[1:] = ~(
            uniform[1:]
            & uniform[:-1]
            & (payloads[1:] == payloads[:-1])
        )
    idx = np.flatnonzero(start)
    grp_lengths = np.add.reduceat(lengths, idx)
    grp_payloads = payloads[idx]
    grp_uniform = uniform[idx]
    if bool(np.any(grp_uniform & (grp_lengths > MAX_FILL_GROUPS))):
        grp_lengths, grp_payloads, grp_uniform = _split_oversized_fills(
            grp_lengths, grp_payloads, grp_uniform
        )
    fill_words = (
        FILL_FLAG
        | np.where(grp_payloads == LITERAL_PAYLOAD_MASK,
                   FILL_VALUE_BIT, 0)
        | grp_lengths
    )
    out = np.where(grp_uniform, fill_words, grp_payloads)
    return out.astype(np.uint32)


def _union_bounds(
    ends_list: list[np.ndarray], total_groups: int
) -> np.ndarray:
    """Sorted union of the streams' cumulative group boundaries.

    Boundary values are bounded by the total group count, so when the
    streams are not extremely sparse relative to the logical length a
    boolean-mask scatter beats sorting; the sparse case falls back to
    :func:`sorted_unique` so memory stays ``O(total runs)``.
    """
    if len(ends_list) == 1:
        return ends_list[0]
    num_runs = sum(ends.size for ends in ends_list)
    if total_groups <= 8 * num_runs:
        mask = np.zeros(total_groups + 1, dtype=bool)
        for ends in ends_list:
            mask[ends] = True
        return np.flatnonzero(mask)
    return sorted_unique(np.concatenate(ends_list))


# ----------------------------------------------------------------------
# Bulk logical operations
# ----------------------------------------------------------------------
_BINARY_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & ~b & LITERAL_PAYLOAD_MASK,
}


def binary_words(words_a, words_b, op: str) -> np.ndarray:
    """Merge two word arrays group-aligned under a named bitwise op.

    ``op`` is one of ``and`` / ``or`` / ``xor`` / ``andnot``.  Both
    arrays must cover the same number of 31-bit groups.
    """
    try:
        op_func = _BINARY_OPS[op]
    except KeyError:
        raise ValueError(
            f"op must be one of {sorted(_BINARY_OPS)}, got {op!r}"
        ) from None
    lengths_a, payloads_a = decode_words(words_a)
    lengths_b, payloads_b = decode_words(words_b)
    ends_a = np.cumsum(lengths_a)
    ends_b = np.cumsum(lengths_b)
    total_a = int(ends_a[-1]) if ends_a.size else 0
    total_b = int(ends_b[-1]) if ends_b.size else 0
    if total_a != total_b:
        raise BitmapDecodeError(
            "operand word streams cover different group counts"
        )
    if total_a == 0:
        return np.empty(0, dtype=np.uint32)
    bounds = _union_bounds([ends_a, ends_b], total_a)
    left = payloads_a[np.searchsorted(ends_a, bounds, side="left")]
    right = payloads_b[np.searchsorted(ends_b, bounds, side="left")]
    out = op_func(left, right)
    seg_lengths = np.diff(bounds, prepend=0)
    return encode_runs(seg_lengths, out)


def union_all_words(word_streams: Sequence) -> np.ndarray:
    """OR together any number of word arrays in one k-way bulk merge.

    The merged segment boundaries are the union of every stream's run
    boundaries; each stream then contributes its payloads to all
    segments with a single ``searchsorted`` + fancy-index, and the OR
    accumulates across streams as whole-array ops.  A merged segment
    wider than one group is covered by fills in *every* stream, so the
    accumulated payload is uniform there and the final
    :func:`encode_runs` yields the canonical word array.
    """
    if not word_streams:
        raise ValueError("union_all_words requires at least one stream")
    runs = [decode_words(words) for words in word_streams]
    ends = [np.cumsum(lengths) for lengths, _ in runs]
    totals = {
        int(stream_ends[-1]) if stream_ends.size else 0
        for stream_ends in ends
    }
    if len(totals) > 1:
        raise BitmapDecodeError(
            "operand word streams cover different group counts"
        )
    total_groups = totals.pop()
    if total_groups == 0:
        return np.empty(0, dtype=np.uint32)
    bounds = _union_bounds(ends, total_groups)
    acc: np.ndarray | None = None
    for stream_ends, (_lengths, payloads) in zip(ends, runs):
        values = payloads[
            np.searchsorted(stream_ends, bounds, side="left")
        ]
        if acc is None:
            acc = values
        else:
            np.bitwise_or(acc, values, out=acc)
    assert acc is not None
    seg_lengths = np.diff(bounds, prepend=0)
    return encode_runs(seg_lengths, acc)


def _split_last_group(
    lengths: np.ndarray, payloads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the run arrays whose final group is a run of its own,
    so the caller can rewrite that (partial) group's payload."""
    lengths = np.append(lengths, 1)
    payloads = np.append(payloads, payloads[-1])
    lengths[-2] -= 1
    return lengths, payloads


def invert_words(words, num_bits: int) -> np.ndarray:
    """Complement a word array over ``num_bits`` logical bits.

    Flips every payload and re-clears the zero-padding of the final
    partial group, preserving the canonical-form invariant.
    """
    lengths, payloads = decode_words(words)
    payloads = ~payloads & LITERAL_PAYLOAD_MASK
    tail_bits = num_bits % WORD_PAYLOAD_BITS
    if tail_bits and lengths.size:
        lengths, payloads = _split_last_group(lengths, payloads)
        payloads[-1] &= (1 << tail_bits) - 1
    return encode_runs(lengths, payloads)


def concat_words(head, head_bits: int, tail, tail_bits: int) -> np.ndarray:
    """Append ``tail``'s bits after the first ``head_bits`` bits.

    With ``r = head_bits % 31`` every tail group shifts left by ``r``
    bits: its low ``31 - r`` bits fill the rest of a group and its top
    ``r`` bits carry into the next.  Inside a fill that is the fill
    itself, so each tail run of ``L`` groups becomes one *seam* group,
    ``(p << r) | (p_previous >> (31 - r))``, followed by ``L - 1`` groups
    of its own payload.  The first seam ORs into the head's partial last
    group, and a final carry group holds the last run's top bits when the
    total length needs it.  The cost is ``O(runs)``, never ``O(set bits)``.
    """
    head_lengths, head_payloads = decode_words(head)
    tail_lengths, tail_payloads = decode_words(tail)
    r = head_bits % WORD_PAYLOAD_BITS
    if r == 0 or tail_lengths.size == 0:
        return encode_runs(
            np.concatenate((head_lengths, tail_lengths)),
            np.concatenate((head_payloads, tail_payloads)),
        )
    carried = np.concatenate(([0], tail_payloads[:-1])) >> (
        WORD_PAYLOAD_BITS - r
    )
    seams = ((tail_payloads << r) & LITERAL_PAYLOAD_MASK) | carried
    head_lengths, head_payloads = _split_last_group(
        head_lengths, head_payloads
    )
    head_payloads[-1] |= seams[0]
    # Run i contributes [seam_i x 1, p_i x (L_i - 1)]; seam_0 is merged.
    run_lengths = np.column_stack((np.ones_like(tail_lengths),
                                   tail_lengths - 1)).ravel()[1:]
    run_payloads = np.column_stack((seams, tail_payloads)).ravel()[1:]
    head_groups = -(-head_bits // WORD_PAYLOAD_BITS)
    tail_groups = int(tail_lengths.sum())
    total_groups = -(-(head_bits + tail_bits) // WORD_PAYLOAD_BITS)
    carry_groups = total_groups - (head_groups + tail_groups - 1)
    return encode_runs(
        np.concatenate((head_lengths, run_lengths, [carry_groups])),
        np.concatenate((
            head_payloads,
            run_payloads,
            [tail_payloads[-1] >> (WORD_PAYLOAD_BITS - r)],
        )),
    )


# ----------------------------------------------------------------------
# Positions
# ----------------------------------------------------------------------
def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as numpy's
    ``unique`` returns them.

    Strictly increasing input (what the index builder yields) is
    returned as is after one ``O(n)`` check.  Anything else is sorted
    and its equal neighbours dropped.  numpy 2's ``unique`` hashes
    integer input instead, which costs several times a sort even on
    sorted input.
    """
    if values.size < 2 or bool(np.all(values[1:] > values[:-1])):
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def positions_to_words(positions, num_bits: int) -> np.ndarray:
    """Encode sorted, unique, in-range set-bit positions as words.

    The positions are grouped into 31-bit literal payloads with one
    ``bitwise_or.reduceat``; the runs handed to :func:`encode_runs` are
    the zero gap before each literal group, the literal, and the zero
    gap after the last one.
    """
    total_groups = -(-num_bits // WORD_PAYLOAD_BITS)
    group_ids = positions // WORD_PAYLOAD_BITS
    bits = np.left_shift(1, positions % WORD_PAYLOAD_BITS)
    first = np.flatnonzero(np.diff(group_ids, prepend=-1))
    groups = group_ids[first]
    literals = np.bitwise_or.reduceat(bits, first)
    gaps = np.diff(groups, prepend=-1) - 1
    lengths = np.column_stack((gaps, np.ones_like(gaps))).ravel()
    payloads = np.column_stack((np.zeros_like(literals), literals)).ravel()
    last = int(groups[-1]) if groups.size else -1
    return encode_runs(
        np.append(lengths, total_groups - last - 1),
        np.append(payloads, 0),
    )


def words_to_positions(words) -> np.ndarray:
    """Sorted ``int64`` array of the set-bit positions of a word array.

    1-fills expand to one payload per group with ``np.repeat``, and
    every set group's 31 payload bits unpack with ``np.unpackbits``.
    """
    lengths, payloads = decode_words(words)
    starts = np.cumsum(lengths) - lengths
    set_runs = payloads != 0
    lengths = lengths[set_runs]
    first_slot = np.cumsum(lengths) - lengths
    group_payloads = np.repeat(payloads[set_runs], lengths)
    groups = np.arange(group_payloads.size) + np.repeat(
        starts[set_runs] - first_slot, lengths
    )
    bits = np.unpackbits(
        group_payloads.astype("<u4").view(np.uint8), bitorder="little"
    ).reshape(-1, 32)[:, :WORD_PAYLOAD_BITS]
    rows, offsets = np.nonzero(bits)
    return groups[rows] * WORD_PAYLOAD_BITS + offsets


def word_bit(words, position: int) -> bool:
    """Whether bit ``position`` is set in a word array."""
    lengths, payloads = decode_words(words)
    group, offset = divmod(position, WORD_PAYLOAD_BITS)
    run = int(np.searchsorted(np.cumsum(lengths), group, side="right"))
    if run == lengths.size:
        raise BitmapDecodeError(
            "bitmap words do not cover the logical length"
        )
    return bool((int(payloads[run]) >> offset) & 1)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
_POPCOUNT_SUPPORTED = hasattr(np, "bitwise_count")


def popcount32(arr: np.ndarray) -> np.ndarray:
    """Per-element population count of 32-bit values.

    Uses ``np.bitwise_count`` when available (numpy >= 2.0), otherwise
    a SWAR fallback.
    """
    values = np.asarray(arr).astype(np.uint32)
    if _POPCOUNT_SUPPORTED:
        return np.bitwise_count(values)
    v = values.copy()
    v = v - ((v >> 1) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + (
        (v >> 2) & np.uint32(0x33333333)
    )
    v = (v + (v >> 4)) & np.uint32(0x0F0F0F0F)
    return (v * np.uint32(0x01010101)) >> 24


def count_words(words) -> int:
    """Number of set bits in a word array (bulk popcount)."""
    lengths, payloads = decode_words(words)
    if lengths.size == 0:
        return 0
    full = payloads == LITERAL_PAYLOAD_MASK
    total = WORD_PAYLOAD_BITS * int(lengths[full].sum())
    partial = payloads[~full]
    if partial.size:
        total += int(popcount32(partial).sum(dtype=np.int64))
    return total
