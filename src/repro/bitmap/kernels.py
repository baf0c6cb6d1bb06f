"""WAH kernels: bulk operations over ``np.uint32`` word arrays.

Every :class:`~repro.bitmap.wah.WahBitmap` operation bottoms out in one
function here.  Each takes canonical WAH code words as an ``np.uint32``
array and returns one, working on whole numpy arrays instead of one
code word at a time.  The logical operations (OR, AND, XOR, ANDNOT and
the k-way union, whose terms may be H-CS exclusive atoms) take one of
two branches, chosen by the operands' total words against the group
count (:data:`_DENSE_GROUPS_PER_WORD`):

* **dense** — :func:`_apply` repeats each word's payload over the
  groups it covers, one ``uint32`` per 31-bit group, and applies the
  op in place to an accumulator of that shape; :func:`_encode_groups`
  encodes the result once;
* **run-merge** — :func:`decode_words` turns each word array into two
  parallel ``int64`` run arrays, ``lengths`` (groups covered by each
  run) and ``payloads`` (the 31-bit payload replicated across the run:
  ``0`` / ``0x7FFFFFFF`` for fills, the literal word otherwise); the
  streams merge group-aligned by intersecting their cumulative group
  boundaries with ``searchsorted``, and :func:`encode_runs` re-encodes.

Both encoders are canonical — uniform segments collapse into fill
words, adjacent same-value fills merge, and oversized fills split at
the 2^30-1 group limit — so equal bits always give equal words, on
either branch.  The other kernels (complement, concatenation,
positions, counts) work on the run arrays.

The invariant the run-merge relies on: a decoded run with a
non-uniform payload always covers exactly one group (it came from a
literal word), so any merged segment wider than one group is covered by
fills on every input and therefore has a uniform result payload.

The per-word implementation these kernels replaced lives on as the test
oracle in ``tests/wah_reference.py``; the property suites assert
word-level equality with it for every operation, on both branches.
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
    return _words_of_runs(
        np.add.reduceat(lengths, idx), payloads[idx], uniform[idx]
    )


def _words_of_runs(
    lengths: np.ndarray, payloads: np.ndarray, uniform: np.ndarray
) -> np.ndarray:
    """Code words of maximal runs: one fill word per uniform run (split
    at ``MAX_FILL_GROUPS``) and the payload itself per literal.  The
    word array may reuse ``payloads``, so callers pass a fresh one."""
    if bool(np.any(uniform & (lengths > MAX_FILL_GROUPS))):
        lengths, payloads, uniform = _split_oversized_fills(
            lengths, payloads, uniform
        )
    words = payloads.astype(np.uint32, copy=False)
    # A fill word keeps its value in bit 30, which a uniform payload
    # (0 or 0x7FFFFFFF) already holds; it replaces the payload wherever
    # ``uniform`` (spread to all ones) is set.
    fills = lengths.astype(np.uint32)
    fills |= words & FILL_VALUE_BIT
    fills |= FILL_FLAG
    fills ^= words
    fills &= -uniform.astype(np.uint32)
    words ^= fills
    return words


def _union_bounds(ends_list: list[np.ndarray]) -> np.ndarray:
    """Sorted union of the streams' cumulative group boundaries."""
    if len(ends_list) == 1:
        return ends_list[0]
    return sorted_unique(np.concatenate(ends_list))


# ----------------------------------------------------------------------
# Dense evaluation: one uint32 payload per group
# ----------------------------------------------------------------------
#: Operands are evaluated dense once their words total at least the
#: group count divided by this.  Nearly every group then starts a run
#: in some operand, so OR-ing one ``uint32`` payload per group and
#: encoding once beats merging run boundaries with one ``searchsorted``
#: per stream.  Below it the operands are run-heavy, and the run-merge
#: keeps time and memory ``O(total runs)`` instead of ``O(groups)``.
_DENSE_GROUPS_PER_WORD = 8


def _as_words(words) -> np.ndarray:
    return np.asarray(words, dtype=np.uint32)


def _goes_dense(num_words: int, groups: int) -> bool:
    """Whether operands of ``num_words`` words in all, covering
    ``groups`` groups each, take the dense branch."""
    return groups <= _DENSE_GROUPS_PER_WORD * num_words


def _fill_mask(words: np.ndarray) -> np.ndarray:
    """All ones on fill words, zero on literals (the sign bit spread
    by an arithmetic shift; ``np.where`` costs several times more)."""
    return (words.view(np.int32) >> 31).view(np.uint32)


def _word_lengths(words: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Groups each word covers: a fill's count, or one for a literal."""
    lengths = words & FILL_COUNT_MASK
    lengths -= 1
    lengths &= fill
    lengths += 1
    return lengths


def _group_count(words: np.ndarray) -> int:
    """Number of 31-bit groups an ``np.uint32`` word array covers."""
    return int(
        _word_lengths(words, _fill_mask(words)).sum(dtype=np.int64)
    )


#: Words expanded, or groups encoded, at a time.  An operand is
#: applied to an accumulator piece by piece, and the encoder builds its
#: ``int64`` run offsets and lengths per chunk, so these temporaries
#: stay bounded however many groups the bitmap has.
_CHUNK = 1 << 16


def _apply(op, acc: np.ndarray, words: np.ndarray) -> None:
    """``acc = op(acc, expansion of words)`` in place, where the
    expansion repeats each word's payload over the groups it covers,
    one ``np.uint32`` per 31-bit group, and ``op`` is one of
    :data:`_BINARY_OPS`.

    Works on the ``uint32`` words as they are, never through the
    ``int64`` run arrays of :func:`decode_words`, and a chunk of words
    at a time.  Raises :class:`~repro.errors.BitmapDecodeError` unless
    the words cover exactly ``acc.size`` groups.
    """
    at = 0
    for lo in range(0, words.size, _CHUNK):
        chunk = words[lo:lo + _CHUNK]
        fill = _fill_mask(chunk)
        # All ones where bit 30 (a fill's value) is set, then the
        # literal itself wherever ``fill`` is clear, cut to the 31
        # payload bits.
        payloads = ((chunk.view(np.int32) << 1) >> 31).view(np.uint32)
        payloads ^= chunk
        payloads &= fill
        payloads ^= chunk
        payloads &= LITERAL_PAYLOAD_MASK
        piece = np.repeat(payloads, _word_lengths(chunk, fill))
        if at + piece.size <= acc.size:
            view = acc[at:at + piece.size]
            op(view, piece, out=view)
        at += piece.size
    if at != acc.size:
        raise BitmapDecodeError(
            "operand word streams cover different group counts"
        )


def _encode_groups(payloads: np.ndarray) -> np.ndarray:
    """Canonically encode one payload per group into a word array.

    The dense counterpart of :func:`encode_runs`: a word starts at
    every literal group and wherever the payload changes, so each
    maximal stretch of equal uniform groups becomes one fill.  Only
    boolean masks span all the groups; the run offsets and lengths are
    built a chunk of groups at a time, each chunk extended to the end
    of the run that crosses its boundary so no run is split.
    """
    n = payloads.size
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    uniform = payloads == 0
    uniform |= payloads == LITERAL_PAYLOAD_MASK
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(payloads[1:], payloads[:-1], out=starts[1:])
    starts |= ~uniform
    pieces = []
    lo = 0
    while lo < n:
        hi = min(lo + _CHUNK, n)
        if hi < n and not starts[hi]:
            # No start at or after ``hi`` (argmax 0) means the run
            # crossing it is the last one.
            hi += int(starts[hi:].argmax()) or n - hi
        offsets = np.flatnonzero(starts[lo:hi])  # offsets[0] == 0
        lengths = np.empty_like(offsets)
        np.subtract(offsets[1:], offsets[:-1], out=lengths[:-1])
        lengths[-1] = hi - lo - offsets[-1]
        pieces.append(
            _words_of_runs(
                lengths, payloads[lo:hi][offsets], uniform[lo:hi][offsets]
            )
        )
        lo = hi
    del uniform, starts
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


# ----------------------------------------------------------------------
# Bulk logical operations
# ----------------------------------------------------------------------
def _andnot(a, b, out=None):
    """``a`` ANDNOT ``b`` on payloads: ``a`` holds only the 31 payload
    bits, so none of ``~b``'s higher bits reach the result."""
    return np.bitwise_and(a, np.invert(b), out=out)


#: Each op as ``op(a, b, out=None)``: applied in place to a dense
#: accumulator, or to whole run-payload arrays.
_BINARY_OPS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "andnot": _andnot,
}


def _binary_op(op: str):
    try:
        return _BINARY_OPS[op]
    except KeyError:
        raise ValueError(
            f"op must be one of {sorted(_BINARY_OPS)}, got {op!r}"
        ) from None


def binary_words(words_a, words_b, op: str) -> np.ndarray:
    """Combine two word arrays group-aligned under a named bitwise op.

    ``op`` is one of ``and`` / ``or`` / ``xor`` / ``andnot``.  Both
    arrays must cover the same number of 31-bit groups.  Dense operands
    take :func:`_binary_dense`, run-heavy ones :func:`_binary_merge`.
    """
    words_a, words_b = _as_words(words_a), _as_words(words_b)
    groups = _group_count(words_a)
    if _goes_dense(words_a.size + words_b.size, groups):
        return _binary_dense(words_a, words_b, op, groups)
    return _binary_merge(words_a, words_b, op)


def _binary_dense(
    words_a: np.ndarray, words_b: np.ndarray, op: str, groups: int
) -> np.ndarray:
    """:func:`binary_words` on one payload per group, encoded once."""
    op_func = _binary_op(op)
    acc = np.zeros(groups, dtype=np.uint32)
    _apply(np.bitwise_or, acc, words_a)
    _apply(op_func, acc, words_b)
    return _encode_groups(acc)


def _binary_merge(words_a, words_b, op: str) -> np.ndarray:
    """:func:`binary_words` by merging the two run arrays: the merged
    segment boundaries are the union of both streams' run boundaries."""
    op_func = _binary_op(op)
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
    bounds = _union_bounds([ends_a, ends_b])
    left = payloads_a[np.searchsorted(ends_a, bounds, side="left")]
    right = payloads_b[np.searchsorted(ends_b, bounds, side="left")]
    out = op_func(left, right)
    seg_lengths = np.diff(bounds, prepend=0)
    return encode_runs(seg_lengths, out)


def union_all_words(terms: Sequence) -> np.ndarray:
    """OR together any number of terms in one pass, encoding once.

    A term is a word array, or a ``(node, leaves)`` tuple of them that
    stands for ``node`` ANDNOT the OR of ``leaves`` (an H-CS exclusive
    atom; with no leaves, ``node`` itself).  Every array covers the
    same groups.  Dense operands take :func:`_union_all_dense`,
    run-heavy ones :func:`_union_all_merge`.
    """
    pairs = [
        (_as_words(term[0]), [_as_words(leaf) for leaf in term[1]])
        if isinstance(term, tuple)
        else (_as_words(term), [])
        for term in terms
    ]
    if not pairs:
        raise ValueError("union_all_words requires at least one term")
    num_words = sum(
        node.size + sum(leaf.size for leaf in leaves)
        for node, leaves in pairs
    )
    groups = _group_count(pairs[0][0])
    if _goes_dense(num_words, groups):
        return _union_all_dense(pairs, groups)
    return _union_all_merge(pairs)


def _union_all_dense(pairs: Sequence, groups: int) -> np.ndarray:
    """:func:`union_all_words` into one accumulator of a payload per
    group, over ``(node, leaves)`` pairs of word arrays.

    Each operand is expanded piece by piece and OR-ed in; an exclusive
    term's leaves are OR-ed into one scratch array that is inverted,
    AND-ed with the node and OR-ed in.  Transient memory does not grow
    with the number of terms: the accumulator, the scratch and the
    expansion of at most :data:`_CHUNK` words of one operand, then the
    encoder's masks and the encoded answer (about three group-count
    ``uint32`` arrays at the peak).
    """
    acc = np.zeros(groups, dtype=np.uint32)
    for node, leaves in pairs:
        if leaves:
            scratch = np.zeros(groups, dtype=np.uint32)
            for leaf in leaves:
                _apply(np.bitwise_or, scratch, leaf)
            np.invert(scratch, out=scratch)
            _apply(np.bitwise_and, scratch, node)
            np.bitwise_or(acc, scratch, out=acc)
            del scratch  # before the next exclusive term allocates one
        else:
            _apply(np.bitwise_or, acc, node)
    return _encode_groups(acc)


def _union_all_merge(pairs: Sequence) -> np.ndarray:
    """:func:`union_all_words` composed from run merges, over
    ``(node, leaves)`` pairs of word arrays: one :func:`_or_merge` of
    each exclusive term's leaves, one :func:`_binary_merge` ANDNOT per
    exclusive term, and a final :func:`_or_merge` of the terms."""
    return _or_merge(
        [
            _binary_merge(node, _or_merge(leaves), "andnot")
            if leaves
            else node
            for node, leaves in pairs
        ]
    )


def _or_merge(word_streams: Sequence) -> np.ndarray:
    """The OR of word arrays as one k-way bulk merge of run arrays.

    The merged segment boundaries are the union of every stream's run
    boundaries; each stream then contributes its payloads to all
    segments with a single ``searchsorted`` + fancy-index, and the OR
    accumulates across streams as whole-array ops.  A merged segment
    wider than one group is covered by fills in *every* stream, so the
    accumulated payload is uniform there and the final
    :func:`encode_runs` yields the canonical word array.
    """
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
    if totals.pop() == 0:
        return np.empty(0, dtype=np.uint32)
    bounds = _union_bounds(ends)
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
