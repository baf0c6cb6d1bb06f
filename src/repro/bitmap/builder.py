"""Constructing bitmap indices from data columns.

A *column* here is a 1-D integer array of leaf ids: row ``i`` holds the
leaf (finest-granularity domain value) of the indexed attribute.  The
paper assumes only leaves occur in the database (§2.1.1); an internal
node's bitmap marks the rows whose value is any of its leaf descendants.

:func:`node_positions` is the one builder of per-node row sets: the
base build (:class:`~repro.storage.catalog.MaterializedNodeCatalog`)
and delta appends (:class:`~repro.storage.delta.DeltaAppender`) both
go through it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import WorkloadError
from ..hierarchy.tree import Hierarchy
from .wah import WahBitmap

__all__ = [
    "node_positions",
    "checked_column",
    "build_span_bitmap",
    "bitmap_for_leaf_set",
]


def node_positions(
    hierarchy: Hierarchy, column: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(node_id, row positions)`` for every hierarchy node.

    Each node's positions are the rows whose leaf id falls in its span,
    sorted and unique, ready for :meth:`WahBitmap.from_positions`.

    The nodes at one level have disjoint leaf spans, so one grouping
    pass per level serves all of them: a lookup table maps each leaf
    to the index of the level's node that covers it, the column's keys
    (in the smallest integer dtype, which numpy's stable argsort
    radix-sorts) are sorted once, and the order is cut into per-node
    slices at the key boundaries.  The sort is stable, so every slice
    is already in row order.  Rows whose leaf sits above a level (leaves
    at several depths) carry a sentinel key there and are skipped.

    The column is checked here, once, before anything is yielded: it
    must be 1-D and, unless empty, integral with values in
    ``[0, num_leaves)``.

    Raises:
        WorkloadError: on a column that fails that check.
    """
    return _level_groups(
        hierarchy, checked_column(column, hierarchy.num_leaves)
    )


def checked_column(column, num_leaves: int) -> np.ndarray:
    """``column`` as an array of leaf ids, or :class:`WorkloadError`.

    The check :func:`node_positions` makes; a caller that splits a
    column before building (one build per shard) checks it whole.
    """
    column = np.asarray(column)
    if column.ndim != 1:
        raise WorkloadError(
            f"column must be a 1-D array, got shape {column.shape}"
        )
    if column.size == 0:
        return column.astype(np.int64)
    if not np.issubdtype(column.dtype, np.integer):
        raise WorkloadError(
            f"column must be integral leaf ids, got {column.dtype}"
        )
    low, high = column.min(), column.max()
    if low < 0 or high >= num_leaves:
        raise WorkloadError(
            f"column values must lie in [0, {num_leaves}), got range "
            f"[{low}, {high}]"
        )
    return column


def _level_groups(hierarchy: Hierarchy, column: np.ndarray):
    # A generator of its own, so that node_positions checks the column
    # when it is called, before a caller stages any write.
    levels: dict[int, list] = {}
    for node in hierarchy:
        levels.setdefault(node.level, []).append(node)
    for nodes in levels.values():
        sentinel = len(nodes)
        lookup = np.full(
            hierarchy.num_leaves,
            sentinel,
            dtype=np.min_scalar_type(sentinel),
        )
        for index, node in enumerate(nodes):
            lookup[node.leaf_lo:node.leaf_hi + 1] = index
        keys = lookup[column]
        order = np.argsort(keys, kind="stable")
        bounds = np.searchsorted(keys[order], np.arange(sentinel + 1))
        for index, node in enumerate(nodes):
            yield node.node_id, order[bounds[index]:bounds[index + 1]]


def build_span_bitmap(
    column: np.ndarray, leaf_lo: int, leaf_hi: int
) -> WahBitmap:
    """Bitmap of rows whose value lies in the leaf span ``[leaf_lo, leaf_hi]``.

    This is how an internal hierarchy node's bitmap is materialized when
    the node covers a contiguous range of leaves (always true for the
    hierarchies in this reproduction).
    """
    column = np.asarray(column)
    mask = (column >= leaf_lo) & (column <= leaf_hi)
    return WahBitmap.from_positions(
        np.flatnonzero(mask), int(column.size)
    )


def bitmap_for_leaf_set(
    leaf_bitmaps: list[WahBitmap], leaves: list[int] | range
) -> WahBitmap:
    """OR together the bitmaps of the given leaves.

    Equivalent to :func:`build_span_bitmap` for contiguous ``leaves`` but
    built from already-materialized leaf bitmaps; used to cross-check the
    two construction paths in tests.
    """
    if not leaf_bitmaps:
        raise ValueError("leaf_bitmaps must be non-empty")
    num_bits = leaf_bitmaps[0].num_bits
    return WahBitmap.union_all(
        (leaf_bitmaps[leaf] for leaf in leaves), num_bits=num_bits
    )
