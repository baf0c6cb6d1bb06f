"""On-disk format for bitmap files, with CRC32 integrity framing.

The simulated secondary storage stores each hierarchy node's bitmap as one
file whose size drives the paper's IO cost accounting.  Every file shares
one self-describing frame:

``[magic: 4 bytes][version: u16][codec: u16][num_bits: u64]``
``[count: u64][payload: codec-specific][crc32: u32 little-endian]``

The trailing CRC32 covers the header and payload, so a torn read, a
truncated file, or a flipped bit is *detected* at read time
(:class:`~repro.errors.ChecksumError`) instead of being silently decoded
into garbage words.  ``count`` is the codec's natural unit count: 32-bit
code words for WAH/PLWAH, bytes for plain, chunks for roaring.

All four bitmap substrates serialize through this frame so the fault
tolerance (and the compression experiments) can compare codecs on equal
footing; WAH remains the operational format of the materialized catalog.
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
    "CODEC_PLWAH",
    "CODEC_ROARING",
    "CODEC_PLAIN",
    "serialize_wah",
    "deserialize_wah",
    "serialize_plwah",
    "deserialize_plwah",
    "serialize_roaring",
    "deserialize_roaring",
    "serialize_plain",
    "deserialize_plain",
    "serialize_bitmap",
    "deserialize_bitmap",
    "payload_codec",
    "codec_name",
    "verify_frame",
]

MAGIC = b"WAHB"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sHHQQ")
HEADER_SIZE_BYTES = _HEADER.size
_TRAILER = struct.Struct("<I")
TRAILER_SIZE_BYTES = _TRAILER.size

#: Codec ids stored in the frame header (the v1 ``reserved`` field).
CODEC_WAH = 0
CODEC_PLWAH = 1
CODEC_ROARING = 2
CODEC_PLAIN = 3

_CODEC_NAMES = {
    CODEC_WAH: "wah",
    CODEC_PLWAH: "plwah",
    CODEC_ROARING: "roaring",
    CODEC_PLAIN: "plain",
}

_CHUNK_HEADER = struct.Struct("<IHH")
_CONTAINER_ARRAY = 0
_CONTAINER_BITMAP = 1
_BITMAP_CONTAINER_BYTES = (1 << 16) // 8


def _frame(codec: int, num_bits: int, count: int, body: bytes) -> bytes:
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, codec, num_bits, count)
    crc = zlib.crc32(body, zlib.crc32(header))
    return header + body + _TRAILER.pack(crc)


def _unframe(
    payload: bytes, expect_codec: int | None = None
) -> tuple[int, int, int]:
    """Validate a frame and return ``(codec, num_bits, count)``.

    The body starts at ``HEADER_SIZE_BYTES`` (see :func:`_body`).

    Raises :class:`BitmapDecodeError` for structural problems and
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
    if codec not in _CODEC_NAMES:
        raise BitmapDecodeError(f"unknown codec id {codec}")
    if expect_codec is not None and codec != expect_codec:
        raise BitmapDecodeError(
            f"payload is {_CODEC_NAMES[codec]!r}, expected "
            f"{_CODEC_NAMES[expect_codec]!r}"
        )
    if codec in (CODEC_WAH, CODEC_PLWAH):
        expected = floor + 4 * count
    elif codec == CODEC_PLAIN:
        expected = floor + count
    else:  # roaring: chunk payloads vary; length checked per chunk below
        expected = None
    if expected is not None and len(payload) != expected:
        raise BitmapDecodeError(
            f"payload length {len(payload)} does not match header "
            f"({count} units => {expected} bytes)"
        )
    (stored_crc,) = _TRAILER.unpack_from(
        payload, len(payload) - TRAILER_SIZE_BYTES
    )
    actual_crc = zlib.crc32(memoryview(payload)[:-TRAILER_SIZE_BYTES])
    if stored_crc != actual_crc:
        raise ChecksumError(stored_crc, actual_crc)
    return codec, int(num_bits), int(count)


def _body(payload: bytes) -> memoryview:
    """The codec-specific bytes of a frame, without a copy."""
    return memoryview(payload)[HEADER_SIZE_BYTES:-TRAILER_SIZE_BYTES]


def verify_frame(payload: bytes) -> int:
    """Cheap integrity check without decoding; returns the codec id."""
    codec, _num_bits, _count = _unframe(payload)
    return codec


def payload_codec(payload: bytes) -> int:
    """The codec id of a framed payload (validates the frame)."""
    return verify_frame(payload)


def codec_name(codec: int) -> str:
    """Human-readable name of a codec id (``"unknown"`` if unmapped).

    Used as the ``codec`` metrics label on decode counters.
    """
    return _CODEC_NAMES.get(codec, "unknown")


# ----------------------------------------------------------------------
# WAH (codec 0) — the operational format of the materialized catalog.
# ----------------------------------------------------------------------
def serialize_wah(bitmap: WahBitmap) -> bytes:
    """Serialize a :class:`WahBitmap` to its on-disk byte representation."""
    words = bitmap._words.astype("<u4", copy=False)
    return _frame(
        CODEC_WAH, bitmap.num_bits, words.size, words.tobytes()
    )


def deserialize_wah(payload: bytes) -> WahBitmap:
    """Parse bytes produced by :func:`serialize_wah` back into a bitmap.

    The bitmap's words are a read-only view of the verified payload.
    """
    _codec, num_bits, num_words = _unframe(payload, CODEC_WAH)
    words = np.frombuffer(
        payload, dtype="<u4", count=num_words, offset=HEADER_SIZE_BYTES
    )
    return WahBitmap(words, num_bits)


# ----------------------------------------------------------------------
# PLWAH (codec 1) — same u32 word stream, PLWAH code words.
# ----------------------------------------------------------------------
def serialize_plwah(bitmap) -> bytes:
    """Serialize a :class:`~repro.bitmap.plwah.PlwahBitmap`."""
    words = np.asarray(bitmap.words, dtype=np.uint32)
    return _frame(
        CODEC_PLWAH, bitmap.num_bits, words.size, words.tobytes()
    )


def deserialize_plwah(payload: bytes):
    """Parse bytes produced by :func:`serialize_plwah`."""
    from .plwah import PlwahBitmap, plwah_decode

    _codec, num_bits, num_words = _unframe(payload, CODEC_PLWAH)
    words = np.frombuffer(
        payload, dtype="<u4", count=num_words, offset=HEADER_SIZE_BYTES
    )
    wah_words = plwah_decode(int(word) for word in words)
    return PlwahBitmap(WahBitmap(wah_words, num_bits))


# ----------------------------------------------------------------------
# Roaring (codec 2) — per-chunk: key u32, kind u16, cardinality-1 u16,
# then sorted u16 offsets (array) or a packed 1024×u64 bitset (bitmap).
# ----------------------------------------------------------------------
def serialize_roaring(bitmap) -> bytes:
    """Serialize a :class:`~repro.bitmap.roaring.RoaringBitmap`."""
    parts: list[bytes] = []
    chunks = bitmap.chunks()
    for key, kind, data, cardinality in chunks:
        kind_id = (
            _CONTAINER_ARRAY if kind == "array" else _CONTAINER_BITMAP
        )
        # Cardinality 2^16 does not fit a u16; store cardinality - 1
        # (empty containers are never materialized).
        parts.append(
            _CHUNK_HEADER.pack(key, kind_id, cardinality - 1)
        )
        if kind == "array":
            parts.append(
                np.asarray(data, dtype="<u2").tobytes()
            )
        else:
            parts.append(
                np.asarray(data, dtype="<u8").tobytes()
            )
    return _frame(
        CODEC_ROARING, bitmap.num_bits, len(chunks), b"".join(parts)
    )


def deserialize_roaring(payload: bytes):
    """Parse bytes produced by :func:`serialize_roaring`."""
    from .roaring import RoaringBitmap

    _codec, num_bits, num_chunks = _unframe(payload, CODEC_ROARING)
    body = _body(payload)
    chunks: list[tuple[int, str, np.ndarray, int]] = []
    cursor = 0
    for _ in range(num_chunks):
        if cursor + _CHUNK_HEADER.size > len(body):
            raise BitmapDecodeError(
                "roaring payload truncated inside a chunk header"
            )
        key, kind_id, card_minus_1 = _CHUNK_HEADER.unpack_from(
            body, cursor
        )
        cursor += _CHUNK_HEADER.size
        cardinality = card_minus_1 + 1
        if kind_id == _CONTAINER_ARRAY:
            nbytes, dtype, count = 2 * cardinality, "<u2", cardinality
        elif kind_id == _CONTAINER_BITMAP:
            nbytes = _BITMAP_CONTAINER_BYTES
            dtype, count = "<u8", _BITMAP_CONTAINER_BYTES // 8
        else:
            raise BitmapDecodeError(
                f"unknown roaring container kind {kind_id}"
            )
        if cursor + nbytes > len(body):
            raise BitmapDecodeError(
                "roaring payload truncated inside a container"
            )
        data = np.frombuffer(body, dtype=dtype, count=count, offset=cursor)
        cursor += nbytes
        kind = "array" if kind_id == _CONTAINER_ARRAY else "bitmap"
        chunks.append((int(key), kind, data, cardinality))
    if cursor != len(body):
        raise BitmapDecodeError(
            f"roaring payload has {len(body) - cursor} trailing bytes"
        )
    return RoaringBitmap.from_chunks(chunks, num_bits)


# ----------------------------------------------------------------------
# Plain (codec 3) — the uncompressed oracle, little-endian bit packing.
# ----------------------------------------------------------------------
def serialize_plain(bitmap) -> bytes:
    """Serialize a :class:`~repro.bitmap.plain.PlainBitmap`."""
    nbytes = (bitmap.num_bits + 7) // 8
    body = bitmap.value.to_bytes(nbytes, "little")
    return _frame(CODEC_PLAIN, bitmap.num_bits, nbytes, body)


def deserialize_plain(payload: bytes):
    """Parse bytes produced by :func:`serialize_plain`."""
    from .plain import PlainBitmap

    _codec, num_bits, _nbytes = _unframe(payload, CODEC_PLAIN)
    value = int.from_bytes(_body(payload), "little")
    if value >> num_bits:
        raise BitmapDecodeError(
            "plain payload has bits set beyond num_bits"
        )
    return PlainBitmap(num_bits, value)


# ----------------------------------------------------------------------
# Codec dispatch.
# ----------------------------------------------------------------------
def serialize_bitmap(bitmap) -> bytes:
    """Serialize any of the four bitmap substrates by type."""
    from .plain import PlainBitmap
    from .plwah import PlwahBitmap
    from .roaring import RoaringBitmap

    if isinstance(bitmap, WahBitmap):
        return serialize_wah(bitmap)
    if isinstance(bitmap, PlwahBitmap):
        return serialize_plwah(bitmap)
    if isinstance(bitmap, RoaringBitmap):
        return serialize_roaring(bitmap)
    if isinstance(bitmap, PlainBitmap):
        return serialize_plain(bitmap)
    raise TypeError(
        f"cannot serialize {type(bitmap).__name__}; expected one of "
        f"WahBitmap/PlwahBitmap/RoaringBitmap/PlainBitmap"
    )


def deserialize_bitmap(payload: bytes):
    """Deserialize a framed payload, dispatching on its codec id."""
    codec = payload_codec(payload)
    if codec == CODEC_WAH:
        return deserialize_wah(payload)
    if codec == CODEC_PLWAH:
        return deserialize_plwah(payload)
    if codec == CODEC_ROARING:
        return deserialize_roaring(payload)
    return deserialize_plain(payload)
