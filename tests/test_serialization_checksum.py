"""CRC32 framing tests: round trips, rejection of every codec id but
WAH's, and rejection of truncated and single-bit-flipped payloads.

WAH is the only codec of the frame.  The fixture ids name the codecs it
also carried before (PLWAH, Roaring, plain); each now names the WAH
frame of a bitmap shaped like the data that codec was built for.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.bitmap.serialization import (
    CODEC_WAH,
    TRAILER_SIZE_BYTES,
    deserialize_wah,
    serialize_wah,
    verify_frame,
)
from repro.bitmap.wah import WahBitmap
from repro.errors import BitmapDecodeError, ChecksumError
from repro.storage.manifest import ManifestEntry

POSITIONS = [0, 3, 64, 65, 1000, 4095, 9999]
NUM_BITS = 10_000

#: The ids PLWAH, Roaring and plain frames carried, and one never used.
FOREIGN_CODEC_IDS = (1, 2, 3, 0xFFFF)

#: Byte offset of the codec id in the frame header.
_CODEC_OFFSET = 6


def _plwah_shaped() -> WahBitmap:
    """A 0-fill then a literal holding one bit, and a 1-fill then a
    literal missing one bit: the literals PLWAH absorbs into fills."""
    ones = np.arange(31 * 101, 31 * 201)
    positions = np.append(31 * 100 + 7, ones[ones != 31 * 200 + 7])
    return WahBitmap.from_positions(positions, NUM_BITS)


SHAPES = {
    "wah": lambda: WahBitmap.from_positions(POSITIONS, NUM_BITS),
    "plwah": _plwah_shaped,
    # Set bits either side of a 2^16-bit chunk border.
    "roaring": lambda: WahBitmap.from_positions(
        [0, 65_535, 65_536, 131_071], 131_072
    ),
    # Dense and random: every word a literal.
    "plain": lambda: WahBitmap.from_dense(
        np.random.default_rng(0).random(NUM_BITS) < 0.5
    ),
}


@pytest.fixture(params=sorted(SHAPES), ids=sorted(SHAPES))
def shape(request):
    return request.param


def _payload(shape: str) -> bytes:
    return serialize_wah(SHAPES[shape]())


def _relabelled(payload: bytes, codec_id: int) -> bytes:
    """``payload`` with another codec id in its header and a valid CRC."""
    body = bytearray(payload[:-TRAILER_SIZE_BYTES])
    struct.pack_into("<H", body, _CODEC_OFFSET, codec_id)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


class TestRoundTrip:
    def test_roundtrip_preserves_bitmap(self, shape):
        bitmap = SHAPES[shape]()
        restored = deserialize_wah(serialize_wah(bitmap))
        assert restored == bitmap
        assert (
            restored.to_positions().tolist()
            == bitmap.to_positions().tolist()
        )

    def test_empty_bitmap_roundtrip(self, shape):
        empty = WahBitmap.zeros(SHAPES[shape]().num_bits)
        assert deserialize_wah(serialize_wah(empty)) == empty

    def test_frame_reports_codec(self, shape):
        payload = _payload(shape)
        assert struct.unpack_from("<H", payload, _CODEC_OFFSET) == (
            CODEC_WAH,
        )
        verify_frame(payload)

    def test_generic_dispatch_roundtrip(self, shape):
        """The manifest's codec label is the one place codec ids are
        still told apart: ``"wah"`` for the frame, ``"raw"`` for it
        under any other id."""
        payload = _payload(shape)
        assert ManifestEntry.for_payload("n", "g-n", payload).codec == "wah"
        for codec_id in FOREIGN_CODEC_IDS:
            entry = ManifestEntry.for_payload(
                "n", "g-n", _relabelled(payload, codec_id)
            )
            assert entry.codec == "raw"

    def test_wrong_codec_rejected(self, shape):
        """A frame under any codec id but WAH's is refused, even with a
        valid CRC."""
        payload = _payload(shape)
        for codec_id in FOREIGN_CODEC_IDS:
            foreign = _relabelled(payload, codec_id)
            for check in (verify_frame, deserialize_wah):
                with pytest.raises(BitmapDecodeError, match="not WAH"):
                    check(foreign)


class TestCorruptionRejection:
    def test_every_truncation_rejected(self, shape):
        payload = _payload(shape)
        for cut in range(len(payload)):
            with pytest.raises(BitmapDecodeError):
                deserialize_wah(payload[:cut])

    def test_every_single_bit_flip_rejected(self, shape):
        """CRC32 detects any single-bit error by construction."""
        payload = _payload(shape)
        for position in range(len(payload) * 8):
            corrupted = bytearray(payload)
            corrupted[position // 8] ^= 1 << (position % 8)
            with pytest.raises(BitmapDecodeError):
                deserialize_wah(bytes(corrupted))

    def test_trailing_garbage_rejected(self, shape):
        payload = _payload(shape)
        with pytest.raises(BitmapDecodeError):
            deserialize_wah(payload + b"\x00")

    def test_payload_corruption_is_checksum_error(self, shape):
        """A flip in the body (past the length-checked header fields)
        surfaces as the typed ChecksumError, the executor's retry cue."""
        payload = bytearray(_payload(shape))
        payload[-5] ^= 0x10  # inside body, away from header/CRC trailer
        with pytest.raises(ChecksumError):
            deserialize_wah(bytes(payload))
