"""Bitmap substrate: WAH compression, index construction from data
columns, and the CRC-framed on-disk serialization format."""

from .builder import (
    bitmap_for_leaf_set,
    build_span_bitmap,
)
from .index import HierarchicalBitmapIndex
from .serialization import (
    HEADER_SIZE_BYTES,
    TRAILER_SIZE_BYTES,
    deserialize_wah,
    serialize_wah,
    verify_frame,
)
from .wah import LITERAL_PAYLOAD_MASK, WORD_PAYLOAD_BITS, WahBitmap

__all__ = [
    "WahBitmap",
    "WORD_PAYLOAD_BITS",
    "LITERAL_PAYLOAD_MASK",
    "HEADER_SIZE_BYTES",
    "TRAILER_SIZE_BYTES",
    "serialize_wah",
    "deserialize_wah",
    "verify_frame",
    "build_span_bitmap",
    "bitmap_for_leaf_set",
    "HierarchicalBitmapIndex",
]
