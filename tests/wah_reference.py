"""The per-word WAH implementation, kept as the test oracle.

:class:`repro.bitmap.wah.WahBitmap` runs every operation through the
array kernels in :mod:`repro.bitmap.kernels`.  This module keeps the
scalar implementation those kernels replaced: an append-only encoder
that maintains the canonical run-merging invariants, a cursor that walks
a word list run by run, and the operations written one code word at a
time on Python ``int`` lists.  The property suites build a
:class:`ReferenceWah` from a bitmap's words (:meth:`ReferenceWah.of`)
and require every kernel result to be word-identical to this one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.bitmap.kernels import (
    FILL_COUNT_MASK,
    FILL_FLAG,
    LITERAL_PAYLOAD_MASK,
    MAX_FILL_GROUPS,
    WORD_PAYLOAD_BITS,
)
from repro.errors import BitmapDecodeError, BitmapLengthMismatchError

__all__ = ["ReferenceWah", "WahEncoder", "RunCursor", "iter_runs"]


def _groups_for_bits(num_bits: int) -> int:
    """Number of 31-bit groups needed to hold ``num_bits`` bits."""
    return -(-num_bits // WORD_PAYLOAD_BITS)


class WahEncoder:
    """Append-only builder that maintains WAH run-merging invariants.

    Appending an all-zero or all-one literal converts it into (or merges it
    with) a fill word, so the produced word sequence is always canonical:
    no two adjacent fills share the same value, and no literal equals a
    fill pattern.
    """

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: list[int] = []

    def append_literal(self, payload: int) -> None:
        """Append one 31-bit literal group (collapsing uniform groups)."""
        if payload == 0:
            self.append_fill(0, 1)
        elif payload == LITERAL_PAYLOAD_MASK:
            self.append_fill(1, 1)
        else:
            self.words.append(payload)

    def append_fill(self, fill_value: int, ngroups: int) -> None:
        """Append ``ngroups`` uniform groups of ``fill_value`` (0 or 1)."""
        if ngroups <= 0:
            return
        words = self.words
        if words:
            last = words[-1]
            if last & FILL_FLAG and ((last >> 30) & 1) == fill_value:
                existing = last & FILL_COUNT_MASK
                merged = existing + ngroups
                take = min(merged, MAX_FILL_GROUPS)
                words[-1] = (
                    FILL_FLAG | (fill_value << 30) | take
                )
                ngroups = merged - take
                if ngroups == 0:
                    return
        while ngroups > 0:
            take = min(ngroups, MAX_FILL_GROUPS)
            words.append(FILL_FLAG | (fill_value << 30) | take)
            ngroups -= take


class RunCursor:
    """Sequential decoder over a WAH word list, exposing group-sized runs.

    At any time the cursor points into a *run*: either a fill of
    ``remaining`` uniform groups, or a single literal group.  ``consume``
    advances by whole groups.
    """

    __slots__ = ("_words", "_index", "is_fill", "fill_value",
                 "remaining", "literal", "exhausted")

    def __init__(self, words: list[int]):
        self._words = words
        self._index = 0
        self.exhausted = False
        self._load()

    def _load(self) -> None:
        if self._index >= len(self._words):
            self.exhausted = True
            self.is_fill = True
            self.fill_value = 0
            self.remaining = 0
            self.literal = 0
            return
        word = self._words[self._index]
        if word & FILL_FLAG:
            self.is_fill = True
            self.fill_value = (word >> 30) & 1
            self.remaining = word & FILL_COUNT_MASK
            self.literal = (
                LITERAL_PAYLOAD_MASK if self.fill_value else 0
            )
        else:
            self.is_fill = False
            self.fill_value = 0
            self.remaining = 1
            self.literal = word
        self._index += 1

    def consume(self, ngroups: int) -> None:
        self.remaining -= ngroups
        if self.remaining == 0:
            self._load()


def iter_runs(words: Iterable[int]) -> Iterator[tuple[bool, int, int, int]]:
    """Yield ``(is_fill, fill_value, ngroups, literal)`` per code word."""
    for word in words:
        if word & FILL_FLAG:
            yield True, (word >> 30) & 1, word & FILL_COUNT_MASK, 0
        else:
            yield False, 0, 1, word


class ReferenceWah:
    """A WAH bitmap over a Python ``int`` word list, operated on one code
    word at a time.  Mirrors the :class:`~repro.bitmap.wah.WahBitmap`
    API the tests compare against."""

    __slots__ = ("_words", "_num_bits")

    def __init__(self, words: Iterable[int], num_bits: int):
        self._words = [int(word) for word in words]
        self._num_bits = num_bits

    @classmethod
    def of(cls, bitmap) -> "ReferenceWah":
        """The reference twin of a :class:`~repro.bitmap.wah.WahBitmap`."""
        return cls(bitmap.words, bitmap.num_bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_bits: int) -> "ReferenceWah":
        """An all-zero bitmap (compresses to at most one fill word)."""
        encoder = WahEncoder()
        encoder.append_fill(0, _groups_for_bits(num_bits))
        return cls(encoder.words, num_bits)

    @classmethod
    def ones(cls, num_bits: int) -> "ReferenceWah":
        """An all-one bitmap (1-fill plus, possibly, a partial literal)."""
        encoder = WahEncoder()
        full_groups, tail_bits = divmod(num_bits, WORD_PAYLOAD_BITS)
        encoder.append_fill(1, full_groups)
        if tail_bits:
            encoder.append_literal((1 << tail_bits) - 1)
        return cls(encoder.words, num_bits)

    @classmethod
    def from_positions(
        cls, positions: Iterable[int] | np.ndarray, num_bits: int
    ) -> "ReferenceWah":
        """Build a bitmap from set-bit positions (need not be sorted)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return cls.zeros(num_bits)
        positions = np.unique(positions)
        group_ids = positions // WORD_PAYLOAD_BITS
        offsets = positions % WORD_PAYLOAD_BITS
        bit_values = np.left_shift(
            np.int64(1), offsets.astype(np.int64)
        )
        unique_groups, first_index = np.unique(group_ids, return_index=True)
        # OR together the bits that fall into the same 31-bit group.
        payloads = np.bitwise_or.reduceat(bit_values, first_index)

        encoder = WahEncoder()
        previous_end = 0
        for group, payload in zip(
            unique_groups.tolist(), payloads.tolist()
        ):
            gap = group - previous_end
            if gap:
                encoder.append_fill(0, gap)
            encoder.append_literal(int(payload))
            previous_end = group + 1
        total_groups = _groups_for_bits(num_bits)
        encoder.append_fill(0, total_groups - previous_end)
        return cls(encoder.words, num_bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Logical length in bits."""
        return self._num_bits

    @property
    def words(self) -> tuple[int, ...]:
        """The raw 32-bit code words."""
        return tuple(self._words)

    def count(self) -> int:
        """Number of set bits."""
        total = 0
        for word in self._words:
            if word & FILL_FLAG:
                if (word >> 30) & 1:
                    total += WORD_PAYLOAD_BITS * (word & FILL_COUNT_MASK)
            else:
                total += word.bit_count()
        return total

    def get(self, position: int) -> bool:
        """Return whether bit ``position`` is set."""
        if not 0 <= position < self._num_bits:
            raise IndexError(
                f"position {position} out of range for "
                f"{self._num_bits}-bit bitmap"
            )
        target_group, offset = divmod(position, WORD_PAYLOAD_BITS)
        group = 0
        for word in self._words:
            if word & FILL_FLAG:
                span = word & FILL_COUNT_MASK
                if group + span > target_group:
                    return bool((word >> 30) & 1)
                group += span
            else:
                if group == target_group:
                    return bool((word >> offset) & 1)
                group += 1
        raise BitmapDecodeError(
            "bitmap words do not cover the logical length"
        )

    def to_positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        chunks: list[np.ndarray] = []
        group = 0
        for is_fill, fill_value, ngroups, literal in iter_runs(self._words):
            if is_fill:
                if fill_value:
                    start = group * WORD_PAYLOAD_BITS
                    stop = (group + ngroups) * WORD_PAYLOAD_BITS
                    chunks.append(np.arange(start, stop, dtype=np.int64))
                group += ngroups
            else:
                base = group * WORD_PAYLOAD_BITS
                bits = []
                payload = literal
                while payload:
                    low = payload & -payload
                    bits.append(base + low.bit_length() - 1)
                    payload ^= low
                chunks.append(np.asarray(bits, dtype=np.int64))
                group += 1
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # Logical operations
    # ------------------------------------------------------------------
    def _binary(self, other: "ReferenceWah", op) -> "ReferenceWah":
        """Merge two word streams under ``op``, which maps two 31-bit
        payloads to a 31-bit payload.  Fill runs on both sides are
        consumed in bulk, so the loop cost is proportional to the
        number of *runs*, not the number of groups, except where both
        operands are literal-dense."""
        if self._num_bits != other._num_bits:
            raise BitmapLengthMismatchError(
                self._num_bits, other._num_bits
            )
        left = RunCursor(self._words)
        right = RunCursor(other._words)
        encoder = WahEncoder()
        while not (left.exhausted or right.exhausted):
            if left.is_fill and right.is_fill:
                step = min(left.remaining, right.remaining)
                payload = op(left.literal, right.literal)
                if payload == 0:
                    encoder.append_fill(0, step)
                elif payload == LITERAL_PAYLOAD_MASK:
                    encoder.append_fill(1, step)
                else:
                    # Uniform inputs always yield a uniform output for the
                    # bitwise ops we support, but be safe and emit literals.
                    for _ in range(step):
                        encoder.append_literal(payload)
            else:
                step = 1
                encoder.append_literal(op(left.literal, right.literal))
            left.consume(step)
            right.consume(step)
        if left.exhausted != right.exhausted:
            raise BitmapDecodeError(
                "operand word streams cover different group counts"
            )
        return ReferenceWah(encoder.words, self._num_bits)

    def __and__(self, other: "ReferenceWah") -> "ReferenceWah":
        return self._binary(other, lambda a, b: a & b)

    def __or__(self, other: "ReferenceWah") -> "ReferenceWah":
        return self._binary(other, lambda a, b: a | b)

    def __xor__(self, other: "ReferenceWah") -> "ReferenceWah":
        return self._binary(other, lambda a, b: a ^ b)

    def andnot(self, other: "ReferenceWah") -> "ReferenceWah":
        """Bits set in ``self`` but not in ``other``."""
        return self._binary(
            other, lambda a, b: a & ~b & LITERAL_PAYLOAD_MASK
        )

    def __invert__(self) -> "ReferenceWah":
        """Bitwise complement over the logical length (padding kept zero)."""
        encoder = WahEncoder()
        for is_fill, fill_value, ngroups, literal in iter_runs(self._words):
            if is_fill:
                encoder.append_fill(1 - fill_value, ngroups)
            else:
                encoder.append_literal(~literal & LITERAL_PAYLOAD_MASK)
        flipped = ReferenceWah(encoder.words, self._num_bits)
        tail_bits = self._num_bits % WORD_PAYLOAD_BITS
        if tail_bits == 0:
            return flipped
        # Clear the padding bits that the complement just set in the final
        # (partial) group, preserving the zero-padding invariant.
        return flipped & ReferenceWah.ones(self._num_bits)

    def concat(self, other: "ReferenceWah") -> "ReferenceWah":
        """Append ``other``'s bits after this bitmap's logical length.

        When this bitmap's length is a multiple of the 31-bit group size
        the word streams are joined run by run (with run merging at the
        seam); otherwise the result is rebuilt from positions.
        """
        if self._num_bits % WORD_PAYLOAD_BITS == 0:
            encoder = WahEncoder()
            for words in (self._words, other._words):
                for is_fill, fill_value, ngroups, literal in iter_runs(
                    words
                ):
                    if is_fill:
                        encoder.append_fill(fill_value, ngroups)
                    else:
                        encoder.append_literal(literal)
            return ReferenceWah(
                encoder.words, self._num_bits + other.num_bits
            )
        total_bits = self._num_bits + other.num_bits
        positions = np.concatenate(
            (
                self.to_positions(),
                other.to_positions() + self._num_bits,
            )
        )
        return ReferenceWah.from_positions(positions, total_bits)

    @staticmethod
    def union_all(bitmaps: Iterable["ReferenceWah"]) -> "ReferenceWah":
        """OR together one or more bitmaps by pairwise tree reduction."""
        pending = list(bitmaps)
        while len(pending) > 1:
            merged = [
                pending[i] | pending[i + 1]
                for i in range(0, len(pending) - 1, 2)
            ]
            if len(pending) % 2:
                merged.append(pending[-1])
            pending = merged
        return pending[0]
