"""Word-Aligned Hybrid (WAH) compressed bitmaps, from scratch.

WAH (Wu, Otoo & Shoshani) is the compression scheme the paper's IO cost
model is calibrated against (paper §2.2.1, Fig. 1, reference [23]).  This
module implements the classic 32-bit variant:

* a **literal word** has its most-significant bit clear and carries 31
  payload bits (bit *o* of group *g* is row ``g * 31 + o``);
* a **fill word** has its most-significant bit set, bit 30 holds the fill
  value, and the low 30 bits count how many consecutive 31-bit groups the
  fill covers (at least one).

All logical operations (AND/OR/XOR/ANDNOT/NOT) work directly on the
compressed representation without materializing the dense bitvector, which
is the property that makes bitmap indices attractive for column stores.

The logical length (``num_bits``) need not be a multiple of 31; the final
group is padded with zero bits that are maintained as an invariant by every
constructor and operation (so ``count`` and ``density`` never see padding).

A bitmap holds its canonical code words in one read-only ``np.uint32``
array, the same bytes the on-disk format stores, and every operation is
one call into the array kernels of :mod:`repro.bitmap.kernels`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import BitmapLengthMismatchError
from . import kernels
from .kernels import LITERAL_PAYLOAD_MASK, WORD_PAYLOAD_BITS

__all__ = [
    "WahBitmap",
    "WORD_PAYLOAD_BITS",
    "LITERAL_PAYLOAD_MASK",
]


class WahBitmap:
    """An immutable WAH-compressed bitmap over ``num_bits`` logical bits.

    Construct via :meth:`from_positions`, :meth:`from_dense`,
    :meth:`zeros`, or :meth:`ones`; combine with ``&``, ``|``, ``^``,
    :meth:`andnot`, and ``~``.  ``serialized_size_bytes`` is the size of
    the on-disk representation, which is what the paper's read-cost model
    is calibrated against.
    """

    __slots__ = ("_words", "_num_bits")

    def __init__(self, words, num_bits: int):
        # Internal constructor: trusts that `words` is canonical and that
        # padding bits in the final group are zero.  External callers
        # should use the classmethod constructors.  A uint32 array is
        # kept without a copy, behind a read-only view.
        self._words = np.asarray(words, dtype=np.uint32).view()
        self._words.flags.writeable = False
        self._num_bits = num_bits

    def __reduce__(self):
        # Rebuild through the constructor so an unpickled bitmap (a
        # shard answer crossing a pipe) is read-only too.
        return (WahBitmap, (self._words, self._num_bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _check_length(num_bits: int) -> None:
        if num_bits < 0:
            raise ValueError(f"num_bits must be >= 0, got {num_bits}")

    @classmethod
    def zeros(cls, num_bits: int) -> "WahBitmap":
        """An all-zero bitmap (compresses to at most one fill word)."""
        cls._check_length(num_bits)
        groups = -(-num_bits // WORD_PAYLOAD_BITS)
        return cls(kernels.encode_runs([groups], [0]), num_bits)

    @classmethod
    def ones(cls, num_bits: int) -> "WahBitmap":
        """An all-one bitmap (1-fill plus, possibly, a partial literal)."""
        cls._check_length(num_bits)
        full_groups, tail_bits = divmod(num_bits, WORD_PAYLOAD_BITS)
        return cls(
            kernels.encode_runs(
                [full_groups, 1 if tail_bits else 0],
                [LITERAL_PAYLOAD_MASK, (1 << tail_bits) - 1],
            ),
            num_bits,
        )

    @classmethod
    def from_positions(
        cls, positions: Iterable[int] | np.ndarray, num_bits: int
    ) -> "WahBitmap":
        """Build a bitmap from set-bit positions (need not be sorted).

        This is the primary construction path for bitmap indices: the
        positions are the row ids holding a given column value.
        Strictly increasing positions, as
        :func:`~repro.bitmap.builder.node_positions` yields them, are
        encoded as they are; any others are sorted and deduplicated
        first (:func:`~repro.bitmap.kernels.sorted_unique`).
        """
        cls._check_length(num_bits)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            positions.min() < 0 or positions.max() >= num_bits
        ):
            raise ValueError(
                f"positions out of range for {num_bits}-bit bitmap"
            )
        return cls(
            kernels.positions_to_words(
                kernels.sorted_unique(positions), num_bits
            ),
            num_bits,
        )

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "WahBitmap":
        """Build a bitmap from a boolean numpy array."""
        bits = np.asarray(bits, dtype=bool)
        return cls.from_positions(np.flatnonzero(bits), int(bits.size))

    @classmethod
    def from_runs(
        cls, runs: Iterable[tuple[int, int]], num_bits: int
    ) -> "WahBitmap":
        """Build a bitmap from disjoint, sorted ``(start, stop)`` 1-runs.

        ``stop`` is exclusive.  Useful for building contiguous range
        bitmaps (e.g. the bitmap of an internal hierarchy node over a
        clustered column) without enumerating positions.
        """
        dense_positions: list[np.ndarray] = []
        previous_stop = 0
        for start, stop in runs:
            if start < previous_stop:
                raise ValueError("runs must be sorted and disjoint")
            if not 0 <= start <= stop <= num_bits:
                raise ValueError(
                    f"run ({start}, {stop}) out of range for "
                    f"{num_bits}-bit bitmap"
                )
            dense_positions.append(np.arange(start, stop, dtype=np.int64))
            previous_stop = stop
        if dense_positions:
            merged = np.concatenate(dense_positions)
        else:
            merged = np.empty(0, dtype=np.int64)
        return cls.from_positions(merged, num_bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Logical length in bits."""
        return self._num_bits

    @property
    def num_words(self) -> int:
        """Number of 32-bit code words in the compressed form."""
        return int(self._words.size)

    @property
    def words(self) -> tuple[int, ...]:
        """The raw 32-bit code words, as Python ints."""
        return tuple(self._words.tolist())

    @property
    def serialized_size_bytes(self) -> int:
        """Bytes this bitmap occupies on (simulated) secondary storage.

        Matches :mod:`repro.bitmap.serialization`'s header + word +
        CRC32 trailer layout.
        """
        from .serialization import HEADER_SIZE_BYTES, TRAILER_SIZE_BYTES

        return (
            HEADER_SIZE_BYTES + self._words.nbytes + TRAILER_SIZE_BYTES
        )

    def count(self) -> int:
        """Number of set bits (computed on the compressed form)."""
        return kernels.count_words(self._words)

    def density(self) -> float:
        """Fraction of set bits."""
        if self._num_bits == 0:
            return 0.0
        return self.count() / self._num_bits

    def get(self, position: int) -> bool:
        """Return whether bit ``position`` is set."""
        if not 0 <= position < self._num_bits:
            raise IndexError(
                f"position {position} out of range for "
                f"{self._num_bits}-bit bitmap"
            )
        return kernels.word_bit(self._words, position)

    def to_positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        return kernels.words_to_positions(self._words)

    def to_dense(self) -> np.ndarray:
        """Boolean numpy array of length ``num_bits``."""
        dense = np.zeros(self._num_bits, dtype=bool)
        positions = self.to_positions()
        if positions.size:
            dense[positions] = True
        return dense

    # ------------------------------------------------------------------
    # Logical operations (compressed-form)
    # ------------------------------------------------------------------
    def _binary(self, other: "WahBitmap", op_name: str) -> "WahBitmap":
        """Merge two compressed word arrays group-aligned under an op."""
        if self._num_bits != other._num_bits:
            raise BitmapLengthMismatchError(
                self._num_bits, other._num_bits
            )
        return WahBitmap(
            kernels.binary_words(self._words, other._words, op_name),
            self._num_bits,
        )

    def __and__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, "and")

    def __or__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, "or")

    def __xor__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, "xor")

    def andnot(self, other: "WahBitmap") -> "WahBitmap":
        """Bits set in ``self`` but not in ``other`` (the paper's ANDNOT)."""
        return self._binary(other, "andnot")

    def __invert__(self) -> "WahBitmap":
        """Bitwise complement over the logical length (padding kept zero)."""
        return WahBitmap(
            kernels.invert_words(self._words, self._num_bits),
            self._num_bits,
        )

    def concat(self, other: "WahBitmap") -> "WahBitmap":
        """Append ``other``'s bits after this bitmap's logical length.

        :meth:`concat_all` folds it over row segments: delta
        generations onto a base, and shard answers.  The word arrays are joined run by run, shifting ``other`` across the
        seam when this length is not a multiple of the 31-bit group size
        (:func:`repro.bitmap.kernels.concat_words`), so the cost is
        proportional to the runs of both operands.
        """
        return WahBitmap(
            kernels.concat_words(
                self._words, self._num_bits, other._words, other._num_bits
            ),
            self._num_bits + other._num_bits,
        )

    # ------------------------------------------------------------------
    # Aggregate helpers
    # ------------------------------------------------------------------
    @staticmethod
    def union_all(
        bitmaps: Iterable["WahBitmap | tuple[WahBitmap, Sequence[WahBitmap]]"],
        num_bits: int | None = None,
    ) -> "WahBitmap":
        """OR together any number of terms (empty input => all zeros).

        A term is a bitmap, or a ``(node, leaves)`` tuple standing for
        ``node.andnot(WahBitmap.union_all(leaves))``: an H-CS plan's
        exclusive atom (with no leaves, its complete atom), so one call
        evaluates a whole plan over a row segment.  One k-way pass
        (:func:`repro.bitmap.kernels.union_all_words`) encodes the
        answer once, where a left-to-right fold would pay
        ``O(k * result_runs)`` once the accumulated result grows dense
        and an ``andnot`` per exclusive atom would encode each atom on
        its own.  ``num_bits`` is required when ``bitmaps`` may be
        empty.
        """
        pending = list(bitmaps)
        if not pending:
            if num_bits is None:
                raise ValueError(
                    "union_all of no bitmaps requires an explicit "
                    "num_bits"
                )
            return WahBitmap.zeros(num_bits)
        terms = []
        first_bits = None
        for term in pending:
            node, leaves = term if isinstance(term, tuple) else (term, ())
            for bitmap in (node, *leaves):
                if first_bits is None:
                    first_bits = bitmap._num_bits
                elif bitmap._num_bits != first_bits:
                    raise BitmapLengthMismatchError(
                        first_bits, bitmap._num_bits
                    )
            terms.append(
                (node._words, [leaf._words for leaf in leaves])
                if leaves
                else node._words
            )
        return WahBitmap(kernels.union_all_words(terms), first_bits)

    @staticmethod
    def concat_all(bitmaps: Iterable["WahBitmap"]) -> "WahBitmap":
        """Concatenate row segments in order: the one fold that joins
        a base with its delta generations, and shard answers.

        Bitwise algebra commutes with row concatenation, so a query
        answered once per segment and concatenated here is
        word-identical to the query answered over the joined rows.
        One :meth:`concat` per seam; raises ``ValueError`` on no
        bitmaps.
        """
        pending = iter(bitmaps)
        try:
            result = next(pending)
        except StopIteration:
            raise ValueError("concat_all needs at least one bitmap") from None
        for bitmap in pending:
            result = result.concat(bitmap)
        return result

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitmap):
            return NotImplemented
        # Canonical encoding makes word-level comparison exact.
        return self._num_bits == other._num_bits and np.array_equal(
            self._words, other._words
        )

    def __hash__(self) -> int:
        return hash((self._num_bits, self._words.tobytes()))

    def __len__(self) -> int:
        return self._num_bits

    def __repr__(self) -> str:
        return (
            f"WahBitmap(num_bits={self._num_bits}, "
            f"words={self._words.size}, count={self.count()})"
        )
