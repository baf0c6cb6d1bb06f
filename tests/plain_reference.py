"""Uncompressed reference bitmap, kept as the test oracle.

:class:`PlainBitmap` is a simple, obviously-correct bitvector backed by a
Python arbitrary-precision integer.  The property suites check
:class:`~repro.bitmap.wah.WahBitmap` and the Roaring oracle
(``tests/roaring_reference.py``) against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import BitmapLengthMismatchError

__all__ = ["PlainBitmap"]


class PlainBitmap:
    """A fixed-length bitvector backed by a Python integer.

    Bit ``i`` corresponds to row ``i`` of the indexed column.  All logical
    operations require both operands to have the same ``num_bits`` and
    return new :class:`PlainBitmap` instances.
    """

    __slots__ = ("_value", "_num_bits")

    def __init__(self, num_bits: int, value: int = 0):
        if num_bits < 0:
            raise ValueError(f"num_bits must be >= 0, got {num_bits}")
        mask = (1 << num_bits) - 1
        if value & ~mask:
            raise ValueError("value has bits set beyond num_bits")
        self._value = value
        self._num_bits = num_bits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_bits: int) -> "PlainBitmap":
        """An all-zero bitmap of the given logical length."""
        return cls(num_bits, 0)

    @classmethod
    def ones(cls, num_bits: int) -> "PlainBitmap":
        """An all-one bitmap of the given logical length."""
        return cls(num_bits, (1 << num_bits) - 1)

    @classmethod
    def from_positions(
        cls, positions: Iterable[int], num_bits: int
    ) -> "PlainBitmap":
        """Build a bitmap with the given bit positions set.

        ``positions`` may be any iterable of integers in ``[0, num_bits)``;
        duplicates are allowed and ignored.
        """
        value = 0
        for pos in positions:
            pos = int(pos)
            if not 0 <= pos < num_bits:
                raise ValueError(
                    f"position {pos} out of range for {num_bits}-bit bitmap"
                )
            value |= 1 << pos
        return cls(num_bits, value)

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "PlainBitmap":
        """Build a bitmap from a boolean numpy array (bit ``i`` = ``bits[i]``)."""
        bits = np.asarray(bits, dtype=bool)
        positions = np.flatnonzero(bits)
        return cls.from_positions(positions.tolist(), int(bits.size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of set bits."""
        return self._value.bit_count()

    def density(self) -> float:
        """Fraction of set bits (0.0 for an empty bitmap of length 0)."""
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
        return bool((self._value >> position) & 1)

    def to_positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        out = []
        value = self._value
        base = 0
        while value:
            chunk = value & 0xFFFFFFFFFFFFFFFF
            while chunk:
                low = chunk & -chunk
                out.append(base + low.bit_length() - 1)
                chunk ^= low
            value >>= 64
            base += 64
        return np.asarray(out, dtype=np.int64)

    def iter_positions(self) -> Iterator[int]:
        """Iterate set-bit positions in ascending order."""
        return iter(self.to_positions().tolist())

    def to_dense(self) -> np.ndarray:
        """Boolean numpy array of length ``num_bits``."""
        dense = np.zeros(self._num_bits, dtype=bool)
        dense[self.to_positions()] = True
        return dense

    # ------------------------------------------------------------------
    # Logical operations
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "PlainBitmap") -> None:
        if self._num_bits != other._num_bits:
            raise BitmapLengthMismatchError(self._num_bits, other._num_bits)

    def __and__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check_compatible(other)
        return PlainBitmap(self._num_bits, self._value & other._value)

    def __or__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check_compatible(other)
        return PlainBitmap(self._num_bits, self._value | other._value)

    def __xor__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check_compatible(other)
        return PlainBitmap(self._num_bits, self._value ^ other._value)

    def andnot(self, other: "PlainBitmap") -> "PlainBitmap":
        """Bits set in ``self`` but not in ``other`` (the paper's ANDNOT)."""
        self._check_compatible(other)
        mask = (1 << self._num_bits) - 1
        return PlainBitmap(self._num_bits, self._value & ~other._value & mask)

    def __invert__(self) -> "PlainBitmap":
        mask = (1 << self._num_bits) - 1
        return PlainBitmap(self._num_bits, ~self._value & mask)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlainBitmap):
            return NotImplemented
        return (
            self._num_bits == other._num_bits and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._num_bits, self._value))

    def __len__(self) -> int:
        return self._num_bits

    def __repr__(self) -> str:
        return (
            f"PlainBitmap(num_bits={self._num_bits}, "
            f"count={self.count()})"
        )
