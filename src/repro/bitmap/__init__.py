"""Bitmap substrate: WAH compression, a plain reference bitvector, index
construction from data columns, and the on-disk serialization format."""

from .builder import (
    bitmap_for_leaf_set,
    build_span_bitmap,
)
from .index import HierarchicalBitmapIndex
from .plain import PlainBitmap
from .roaring import (
    ARRAY_CONTAINER_LIMIT,
    CHUNK_BITS,
    RoaringBitmap,
)
from .serialization import (
    HEADER_SIZE_BYTES,
    TRAILER_SIZE_BYTES,
    deserialize_bitmap,
    deserialize_plain,
    deserialize_plwah,
    deserialize_roaring,
    deserialize_wah,
    serialize_bitmap,
    serialize_plain,
    serialize_plwah,
    serialize_roaring,
    serialize_wah,
    verify_frame,
)
from .wah import LITERAL_PAYLOAD_MASK, WORD_PAYLOAD_BITS, WahBitmap

__all__ = [
    "WahBitmap",
    "PlainBitmap",
    "WORD_PAYLOAD_BITS",
    "LITERAL_PAYLOAD_MASK",
    "HEADER_SIZE_BYTES",
    "TRAILER_SIZE_BYTES",
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
    "verify_frame",
    "build_span_bitmap",
    "bitmap_for_leaf_set",
    "HierarchicalBitmapIndex",
    "RoaringBitmap",
    "CHUNK_BITS",
    "ARRAY_CONTAINER_LIMIT",
]
