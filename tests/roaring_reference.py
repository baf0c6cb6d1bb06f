"""A Roaring-style chunked bitmap, kept as the test oracle.

This from-scratch "roaring-lite" implements the classic two-container
scheme:

* the row space is split into 2¹⁶-bit *chunks*;
* a chunk holding at most :data:`ARRAY_CONTAINER_LIMIT` rows stores the
  sorted 16-bit offsets (*array container*, 2 bytes/row);
* denser chunks store a packed 8 KiB bitset (*bitmap container*).

Its logical operations are checked against the plain oracle
(``tests/plain_reference.py``), and its
:attr:`RoaringBitmap.serialized_size_bytes` is the oracle of
:func:`repro.experiments.compression.roaring_size_bytes`, which
computes the same size from the set-bit positions without building
containers and adds the frame's header and CRC trailer.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.bitmap.kernels import sorted_unique
from repro.errors import BitmapLengthMismatchError

__all__ = ["RoaringBitmap", "CHUNK_BITS", "ARRAY_CONTAINER_LIMIT"]

#: Rows per chunk (the classic 2^16).
CHUNK_BITS = 1 << 16

#: Array containers flip to bitmap containers above this cardinality
#: (the break-even point: 4096 * 2 bytes == 8 KiB bitset).
ARRAY_CONTAINER_LIMIT = 4096

_WORDS_PER_BITMAP_CONTAINER = CHUNK_BITS // 64
_CHUNK_HEADER_BYTES = 8  # key (u32) + kind (u16) + cardinality-ish (u16)


def _to_bitmap_container(offsets: np.ndarray) -> np.ndarray:
    words = np.zeros(_WORDS_PER_BITMAP_CONTAINER, dtype=np.uint64)
    idx = offsets.astype(np.int64)
    np.bitwise_or.at(
        words,
        idx >> 6,
        np.left_shift(
            np.uint64(1), (idx & 63).astype(np.uint64)
        ),
    )
    return words


def _bitmap_container_to_offsets(words: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(
        words.view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(bits).astype(np.uint16)


class _Container:
    """One chunk's payload: sorted uint16 array or packed bitset."""

    __slots__ = ("kind", "data", "cardinality")

    def __init__(self, kind: str, data: np.ndarray, cardinality: int):
        self.kind = kind  # "array" | "bitmap"
        self.data = data
        self.cardinality = cardinality

    @classmethod
    def from_offsets(cls, offsets: np.ndarray) -> "_Container":
        offsets = np.asarray(offsets, dtype=np.uint16)
        if offsets.size <= ARRAY_CONTAINER_LIMIT:
            return cls("array", offsets, int(offsets.size))
        return cls(
            "bitmap",
            _to_bitmap_container(offsets),
            int(offsets.size),
        )

    def offsets(self) -> np.ndarray:
        if self.kind == "array":
            return self.data
        return _bitmap_container_to_offsets(self.data)

    def normalized(self) -> "_Container | None":
        """Re-pick the container kind; ``None`` when empty."""
        if self.cardinality == 0:
            return None
        if (
            self.kind == "bitmap"
            and self.cardinality <= ARRAY_CONTAINER_LIMIT
        ):
            return _Container.from_offsets(self.offsets())
        if (
            self.kind == "array"
            and self.cardinality > ARRAY_CONTAINER_LIMIT
        ):
            return _Container.from_offsets(self.data)
        return self

    @property
    def nbytes(self) -> int:
        if self.kind == "array":
            return 2 * self.cardinality
        return 8 * _WORDS_PER_BITMAP_CONTAINER


def _combine(
    left: "_Container | None",
    right: "_Container | None",
    op: str,
) -> "_Container | None":
    if left is None and right is None:
        return None
    if left is None:
        if op in ("or", "xor"):
            return right
        return None  # and / andnot with empty left
    if right is None:
        if op == "and":
            return None
        return left  # or / xor / andnot keep left
    if left.kind == "bitmap" and right.kind == "bitmap":
        if op == "and":
            words = left.data & right.data
        elif op == "or":
            words = left.data | right.data
        elif op == "xor":
            words = left.data ^ right.data
        else:
            words = left.data & ~right.data
        cardinality = int(
            np.unpackbits(words.view(np.uint8)).sum()
        )
        result = _Container("bitmap", words, cardinality)
        return result.normalized()
    # At least one side is an array container: go through offsets.
    a = left.offsets()
    b = right.offsets()
    if op == "and":
        merged = np.intersect1d(a, b, assume_unique=True)
    elif op == "or":
        merged = np.union1d(a, b)
    elif op == "xor":
        merged = np.setxor1d(a, b, assume_unique=True)
    else:
        merged = np.setdiff1d(a, b, assume_unique=True)
    if merged.size == 0:
        return None
    return _Container.from_offsets(merged.astype(np.uint16))


class RoaringBitmap:
    """An immutable chunked bitmap over ``num_bits`` logical bits."""

    __slots__ = ("_containers", "_num_bits")

    def __init__(
        self, containers: dict[int, _Container], num_bits: int
    ):
        self._containers = containers
        self._num_bits = num_bits

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_bits: int) -> "RoaringBitmap":
        """An all-zero bitmap (stores nothing)."""
        if num_bits < 0:
            raise ValueError(f"num_bits must be >= 0, got {num_bits}")
        return cls({}, num_bits)

    @classmethod
    def ones(cls, num_bits: int) -> "RoaringBitmap":
        """An all-one bitmap."""
        return ~cls.zeros(num_bits)

    @classmethod
    def from_positions(
        cls, positions: Iterable[int] | np.ndarray, num_bits: int
    ) -> "RoaringBitmap":
        """Build from set-bit positions (need not be sorted)."""
        if num_bits < 0:
            raise ValueError(f"num_bits must be >= 0, got {num_bits}")
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return cls.zeros(num_bits)
        if positions.min() < 0 or positions.max() >= num_bits:
            raise ValueError(
                f"positions out of range for {num_bits}-bit bitmap"
            )
        positions = sorted_unique(positions)
        keys = positions >> 16
        offsets = (positions & 0xFFFF).astype(np.uint16)
        containers: dict[int, _Container] = {}
        unique_keys = sorted_unique(keys)
        starts = np.searchsorted(keys, unique_keys)
        boundaries = list(starts) + [positions.size]
        for i, key in enumerate(unique_keys.tolist()):
            chunk_offsets = offsets[boundaries[i]:boundaries[i + 1]]
            containers[int(key)] = _Container.from_offsets(
                chunk_offsets
            )
        return cls(containers, num_bits)

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "RoaringBitmap":
        """Build from a boolean numpy array."""
        bits = np.asarray(bits, dtype=bool)
        return cls.from_positions(
            np.flatnonzero(bits), int(bits.size)
        )

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """Number of non-empty 2^16-bit chunks."""
        return len(self._containers)

    @property
    def serialized_size_bytes(self) -> int:
        """Per-chunk header plus container bytes (no frame)."""
        return sum(
            _CHUNK_HEADER_BYTES + container.nbytes
            for container in self._containers.values()
        )

    def count(self) -> int:
        """Number of set bits."""
        return sum(
            container.cardinality
            for container in self._containers.values()
        )

    def density(self) -> float:
        """Fraction of set bits."""
        if self._num_bits == 0:
            return 0.0
        return self.count() / self._num_bits

    def get(self, position: int) -> bool:
        """Whether bit ``position`` is set."""
        if not 0 <= position < self._num_bits:
            raise IndexError(
                f"position {position} out of range for "
                f"{self._num_bits}-bit bitmap"
            )
        container = self._containers.get(position >> 16)
        if container is None:
            return False
        offset = position & 0xFFFF
        if container.kind == "array":
            index = np.searchsorted(container.data, offset)
            return bool(
                index < container.data.size
                and container.data[index] == offset
            )
        word = container.data[offset >> 6]
        return bool((int(word) >> (offset & 63)) & 1)

    def to_positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        chunks = []
        for key in sorted(self._containers):
            offsets = self._containers[key].offsets()
            chunks.append(
                offsets.astype(np.int64) + (key << 16)
            )
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RoaringBitmap") -> None:
        if self._num_bits != other._num_bits:
            raise BitmapLengthMismatchError(
                self._num_bits, other._num_bits
            )

    def _binary(
        self, other: "RoaringBitmap", op: str
    ) -> "RoaringBitmap":
        self._check_compatible(other)
        keys = set(self._containers)
        if op == "and":
            keys &= set(other._containers)
        else:
            keys |= set(other._containers)
        containers: dict[int, _Container] = {}
        for key in keys:
            combined = _combine(
                self._containers.get(key),
                other._containers.get(key),
                op,
            )
            if combined is not None:
                containers[key] = combined
        return RoaringBitmap(containers, self._num_bits)

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "and")

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "or")

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        return self._binary(other, "xor")

    def andnot(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """Bits set in ``self`` but not in ``other``."""
        return self._binary(other, "andnot")

    def __invert__(self) -> "RoaringBitmap":
        containers: dict[int, _Container] = {}
        total_chunks = -(-self._num_bits // CHUNK_BITS)
        for key in range(total_chunks):
            chunk_lo = key << 16
            chunk_bits = min(CHUNK_BITS, self._num_bits - chunk_lo)
            existing = self._containers.get(key)
            if existing is None:
                present = np.empty(0, dtype=np.int64)
            else:
                present = existing.offsets().astype(np.int64)
            mask = np.ones(chunk_bits, dtype=bool)
            mask[present[present < chunk_bits]] = False
            flipped = np.flatnonzero(mask).astype(np.uint16)
            if flipped.size:
                containers[key] = _Container.from_offsets(flipped)
        return RoaringBitmap(containers, self._num_bits)

    # ------------------------------------------------------------------
    def container_kinds(self) -> dict[str, int]:
        """How many chunks use each container kind (introspection)."""
        kinds = {"array": 0, "bitmap": 0}
        for container in self._containers.values():
            kinds[container.kind] += 1
        return kinds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if self._num_bits != other._num_bits:
            return False
        if set(self._containers) != set(other._containers):
            return False
        for key, container in self._containers.items():
            theirs = other._containers[key]
            if not np.array_equal(
                container.offsets(), theirs.offsets()
            ):
                return False
        return True

    def __hash__(self) -> int:
        return hash(
            (self._num_bits, tuple(self.to_positions().tolist()))
        )

    def __len__(self) -> int:
        return self._num_bits

    def __repr__(self) -> str:
        return (
            f"RoaringBitmap(num_bits={self._num_bits}, "
            f"chunks={self.num_chunks}, count={self.count()})"
        )
