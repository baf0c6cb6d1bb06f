"""PLWAH — Position List Word Aligned Hybrid — kept as the test oracle.

PLWAH (Deliège & Pedersen, EDBT 2010 — the paper's reference [20])
improves WAH's space by absorbing *nearly identical* literals into the
preceding fill word: a literal that differs from the fill in exactly
one bit is dropped and its dirty-bit position is piggybacked in the
fill word's position field.  On sparse bitmaps (one set bit every few
runs) this roughly halves the size versus WAH.

This module implements the 32-bit single-position variant as a *codec*
over the canonical WAH word stream:

``[1 | fill(1) | position(5) | count(25)]``  fill word
``[0 | payload(31)]``                        literal word

``position`` is 1-based (0 = no piggybacked literal); the absorbed
literal logically follows the fill's ``count`` groups.  Logical
operations delegate to :class:`~repro.bitmap.wah.WahBitmap` (decode →
operate → re-encode).  The codec's paper-relevant property is its
*size*, which :func:`repro.experiments.compression.plwah_size_bytes`
computes from the WAH words without encoding; the property suites
require it to equal :attr:`PlwahBitmap.serialized_size_bytes`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.bitmap.serialization import HEADER_SIZE_BYTES, TRAILER_SIZE_BYTES
from repro.bitmap.wah import LITERAL_PAYLOAD_MASK, WahBitmap

__all__ = ["PlwahBitmap", "plwah_encode", "plwah_decode"]

_FILL_FLAG = 1 << 31
_FILL_VALUE_SHIFT = 30
_POSITION_SHIFT = 25
_POSITION_MASK = 0x1F
_COUNT_MASK = (1 << 25) - 1
_MAX_FILL_GROUPS = _COUNT_MASK


def _single_dirty_position(payload: int, fill_value: int) -> int:
    """1-based dirty-bit position if ``payload`` differs from a pure
    fill pattern in exactly one bit, else 0."""
    reference = LITERAL_PAYLOAD_MASK if fill_value else 0
    diff = payload ^ reference
    if diff and (diff & (diff - 1)) == 0:
        return diff.bit_length()
    return 0


def plwah_encode(wah_words: Iterable[int]) -> list[int]:
    """Encode a canonical WAH word stream into PLWAH words."""
    out: list[int] = []

    def flush_fill(fill_value: int, count: int, position: int) -> None:
        while count > _MAX_FILL_GROUPS:
            out.append(
                _FILL_FLAG
                | (fill_value << _FILL_VALUE_SHIFT)
                | _MAX_FILL_GROUPS
            )
            count -= _MAX_FILL_GROUPS
        out.append(
            _FILL_FLAG
            | (fill_value << _FILL_VALUE_SHIFT)
            | (position << _POSITION_SHIFT)
            | count
        )

    pending: tuple[int, int] | None = None  # (fill_value, count)
    for word in wah_words:
        if word & _FILL_FLAG:
            fill_value = (word >> 30) & 1
            count = word & ((1 << 30) - 1)
            if pending is not None:
                if pending[0] == fill_value:
                    pending = (fill_value, pending[1] + count)
                    continue
                flush_fill(pending[0], pending[1], 0)
            pending = (fill_value, count)
        else:
            payload = word & LITERAL_PAYLOAD_MASK
            if pending is not None:
                position = _single_dirty_position(
                    payload, pending[0]
                )
                if position and pending[1] <= _MAX_FILL_GROUPS:
                    flush_fill(pending[0], pending[1], position)
                    pending = None
                    continue
                flush_fill(pending[0], pending[1], 0)
                pending = None
            out.append(payload)
    if pending is not None:
        flush_fill(pending[0], pending[1], 0)
    return out


def plwah_decode(plwah_words: Iterable[int]) -> list[int]:
    """Decode PLWAH words back into a canonical WAH word stream."""
    wah: list[int] = []

    def append_fill(fill_value: int, count: int) -> None:
        if count <= 0:
            return
        if wah and wah[-1] & _FILL_FLAG:
            previous_value = (wah[-1] >> 30) & 1
            if previous_value == fill_value:
                previous_count = wah[-1] & ((1 << 30) - 1)
                total = previous_count + count
                if total < (1 << 30):
                    wah[-1] = (
                        _FILL_FLAG | (fill_value << 30) | total
                    )
                    return
        wah.append(_FILL_FLAG | (fill_value << 30) | count)

    for word in plwah_words:
        if word & _FILL_FLAG:
            fill_value = (word >> _FILL_VALUE_SHIFT) & 1
            position = (word >> _POSITION_SHIFT) & _POSITION_MASK
            count = word & _COUNT_MASK
            append_fill(fill_value, count)
            if position:
                reference = (
                    LITERAL_PAYLOAD_MASK if fill_value else 0
                )
                wah.append(reference ^ (1 << (position - 1)))
        else:
            wah.append(word & LITERAL_PAYLOAD_MASK)
    return wah


class PlwahBitmap:
    """A PLWAH-compressed view of a bitmap.

    Wraps the operational WAH form and keeps the PLWAH word array for
    size accounting; all logical operations round-trip through WAH.
    """

    __slots__ = ("_wah", "_words")

    def __init__(self, wah: WahBitmap):
        self._wah = wah
        self._words = plwah_encode(wah.words)

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_bits: int) -> "PlwahBitmap":
        """An all-zero bitmap."""
        return cls(WahBitmap.zeros(num_bits))

    @classmethod
    def from_positions(
        cls, positions: Iterable[int] | np.ndarray, num_bits: int
    ) -> "PlwahBitmap":
        """Build from set-bit positions."""
        return cls(WahBitmap.from_positions(positions, num_bits))

    @classmethod
    def from_wah(cls, wah: WahBitmap) -> "PlwahBitmap":
        """Wrap an existing WAH bitmap."""
        return cls(wah)

    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Logical length in bits."""
        return self._wah.num_bits

    @property
    def num_words(self) -> int:
        """Number of 32-bit PLWAH code words."""
        return len(self._words)

    @property
    def serialized_size_bytes(self) -> int:
        """Footprint of the PLWAH words in a WAH-sized frame (header,
        u32 words, CRC trailer)."""
        return (
            HEADER_SIZE_BYTES + 4 * len(self._words) + TRAILER_SIZE_BYTES
        )

    def to_wah(self) -> WahBitmap:
        """The operational WAH form (lossless round trip)."""
        return WahBitmap(
            plwah_decode(self._words), self._wah.num_bits
        )

    def count(self) -> int:
        """Number of set bits."""
        return self._wah.count()

    def density(self) -> float:
        """Fraction of set bits."""
        return self._wah.density()

    def to_positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        return self._wah.to_positions()

    # ------------------------------------------------------------------
    def __and__(self, other: "PlwahBitmap") -> "PlwahBitmap":
        return PlwahBitmap(self._wah & other._wah)

    def __or__(self, other: "PlwahBitmap") -> "PlwahBitmap":
        return PlwahBitmap(self._wah | other._wah)

    def __xor__(self, other: "PlwahBitmap") -> "PlwahBitmap":
        return PlwahBitmap(self._wah ^ other._wah)

    def andnot(self, other: "PlwahBitmap") -> "PlwahBitmap":
        """Bits set in ``self`` but not in ``other``."""
        return PlwahBitmap(self._wah.andnot(other._wah))

    def __invert__(self) -> "PlwahBitmap":
        return PlwahBitmap(~self._wah)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlwahBitmap):
            return NotImplemented
        return self._wah == other._wah

    def __hash__(self) -> int:
        return hash(("plwah", self._wah))

    def __len__(self) -> int:
        return self._wah.num_bits

    def __repr__(self) -> str:
        return (
            f"PlwahBitmap(num_bits={self.num_bits}, "
            f"words={self.num_words}, count={self.count()})"
        )
