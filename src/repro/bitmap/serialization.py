"""On-disk format for bitmap files, with CRC32 integrity framing.

The simulated secondary storage stores each hierarchy node's WAH bitmap
as one file whose size drives the paper's IO cost accounting.  Every
file is one self-describing frame:

``[magic: 4 bytes][version: u16][codec: u16][num_bits: u64]``
``[count: u64][count WAH words: u32 little-endian][crc32: u32 little-endian]``

The trailing CRC32 covers the header and payload, so a torn read, a
truncated file, or a flipped bit is *detected* at read time
(:class:`~repro.errors.ChecksumError`) instead of being silently decoded
into garbage words.  WAH (codec id 0) is the only codec: a frame with
any other id is rejected with :class:`~repro.errors.BitmapDecodeError`.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import BitmapDecodeError, ChecksumError
from .wah import WahBitmap

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE_BYTES",
    "TRAILER_SIZE_BYTES",
    "CODEC_WAH",
    "serialize_wah",
    "deserialize_wah",
    "verify_frame",
]

MAGIC = b"WAHB"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sHHQQ")
HEADER_SIZE_BYTES = _HEADER.size
_TRAILER = struct.Struct("<I")
TRAILER_SIZE_BYTES = _TRAILER.size

#: The codec id stored in the frame header (the v1 ``reserved`` field).
CODEC_WAH = 0


def _unframe(payload: bytes) -> tuple[int, int]:
    """Validate a WAH frame and return ``(num_bits, num_words)``.

    Raises :class:`BitmapDecodeError` for structural problems, a codec
    id other than :data:`CODEC_WAH` among them, and
    :class:`ChecksumError` when the frame parses but the CRC disagrees.
    """
    floor = HEADER_SIZE_BYTES + TRAILER_SIZE_BYTES
    if len(payload) < floor:
        raise BitmapDecodeError(
            f"payload too short: {len(payload)} bytes < minimum frame "
            f"size {floor}"
        )
    magic, version, codec, num_bits, count = _HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise BitmapDecodeError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise BitmapDecodeError(
            f"unsupported format version {version}, "
            f"expected {FORMAT_VERSION}"
        )
    if codec != CODEC_WAH:
        raise BitmapDecodeError(
            f"codec id {codec} is not WAH ({CODEC_WAH})"
        )
    expected = floor + 4 * count
    if len(payload) != expected:
        raise BitmapDecodeError(
            f"payload length {len(payload)} does not match header "
            f"({count} words => {expected} bytes)"
        )
    (stored_crc,) = _TRAILER.unpack_from(
        payload, len(payload) - TRAILER_SIZE_BYTES
    )
    actual_crc = zlib.crc32(memoryview(payload)[:-TRAILER_SIZE_BYTES])
    if stored_crc != actual_crc:
        raise ChecksumError(stored_crc, actual_crc)
    return int(num_bits), int(count)


def verify_frame(payload: bytes) -> None:
    """Cheap integrity check without decoding.

    Raises :class:`BitmapDecodeError` (:class:`ChecksumError` on a CRC
    mismatch) unless ``payload`` is a valid WAH frame.
    """
    _unframe(payload)


def serialize_wah(bitmap: WahBitmap) -> bytes:
    """Serialize a :class:`WahBitmap` to its on-disk byte representation."""
    words = bitmap._words.astype("<u4", copy=False)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, CODEC_WAH, bitmap.num_bits, words.size
    )
    body = words.tobytes()
    crc = zlib.crc32(body, zlib.crc32(header))
    return header + body + _TRAILER.pack(crc)


def deserialize_wah(payload: bytes) -> WahBitmap:
    """Parse bytes produced by :func:`serialize_wah` back into a bitmap.

    The bitmap's words are a read-only view of the verified payload.
    """
    num_bits, num_words = _unframe(payload)
    words = np.frombuffer(
        payload, dtype="<u4", count=num_words, offset=HEADER_SIZE_BYTES
    )
    return WahBitmap(words, num_bits)
