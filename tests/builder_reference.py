"""The per-node mask scan, kept as the index builder's test oracle.

:func:`repro.bitmap.builder.node_positions` groups a column's rows by
hierarchy node with one sort per level.  The code it replaced scanned
the whole column once per node with a boolean mask over the node's leaf
span.  That scan lives on here, so the property suites can require the
builder to match it node for node, and :func:`reference_payload`
encodes a node's bitmap with the per-word oracle of
``tests/wah_reference.py``, so byte-identity checks do not depend on
the kernels or on :meth:`WahBitmap.from_positions`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.bitmap.serialization import serialize_wah
from repro.bitmap.wah import WahBitmap
from repro.hierarchy.tree import Hierarchy

from .wah_reference import ReferenceWah

__all__ = ["mask_positions", "reference_payload", "reference_payloads"]


def mask_positions(
    hierarchy: Hierarchy, column: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(node_id, rows)`` for every node, one mask scan each."""
    column = np.asarray(column)
    for node in hierarchy:
        mask = (column >= node.leaf_lo) & (column <= node.leaf_hi)
        yield node.node_id, np.flatnonzero(mask)


def reference_payload(positions: np.ndarray, num_bits: int) -> bytes:
    """The on-disk payload of the bitmap with ``positions`` set,
    encoded one code word at a time by :class:`ReferenceWah`."""
    reference = ReferenceWah.from_positions(positions, num_bits)
    return serialize_wah(
        WahBitmap(np.asarray(reference.words, dtype=np.uint32), num_bits)
    )


def reference_payloads(
    hierarchy: Hierarchy, column: np.ndarray
) -> dict[int, bytes]:
    """Every node's reference payload for ``column``, by node id."""
    num_rows = int(np.asarray(column).size)
    return {
        node_id: reference_payload(positions, num_rows)
        for node_id, positions in mask_positions(hierarchy, column)
    }
