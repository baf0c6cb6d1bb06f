"""An appendable hierarchical bitmap index.

:class:`HierarchicalBitmapIndex` maintains one WAH bitmap per hierarchy
node over a growing column.  The paper studies a static index; real
column stores also need to *append* rows, so this extension keeps the
per-node bitmaps incrementally up to date: a batch of new rows extends
every node bitmap by a (mostly zero) tail, which WAH's run-length fills
absorb cheaply.

The index is the authoritative structure behind a
:class:`~repro.storage.catalog.MaterializedNodeCatalog`-style setup and
can flush its bitmaps into a :class:`~repro.storage.filestore.BitmapFileStore`.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..hierarchy.tree import Hierarchy
from ..storage.filestore import BitmapFileStore
from .builder import node_positions
from .serialization import serialize_wah
from .wah import WahBitmap

__all__ = ["HierarchicalBitmapIndex"]


class HierarchicalBitmapIndex:
    """One WAH bitmap per hierarchy node, supporting batch appends.

    Args:
        hierarchy: the domain hierarchy (leaves = column values).
        column: optional initial rows (integer leaf ids).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        column: np.ndarray | None = None,
    ):
        self._hierarchy = hierarchy
        self._num_rows = 0
        self._bitmaps: dict[int, WahBitmap] = {
            node.node_id: WahBitmap.zeros(0) for node in hierarchy
        }
        self._deleted = WahBitmap.zeros(0)
        if column is not None:
            self.append_rows(column)

    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> Hierarchy:
        """The indexed hierarchy."""
        return self._hierarchy

    @property
    def num_rows(self) -> int:
        """Rows indexed so far (including tombstoned rows)."""
        return self._num_rows

    @property
    def num_deleted(self) -> int:
        """Rows currently tombstoned."""
        return self._deleted.count()

    @property
    def num_live_rows(self) -> int:
        """Rows that are indexed and not deleted."""
        return self._num_rows - self.num_deleted

    def bitmap(self, node_id: int) -> WahBitmap:
        """The current bitmap of a node."""
        return self._bitmaps[node_id]

    def density(self, node_id: int) -> float:
        """Current bit density of a node's bitmap."""
        return self._bitmaps[node_id].density()

    # ------------------------------------------------------------------
    def append_rows(self, values: np.ndarray) -> None:
        """Index a batch of new rows (appended after existing rows).

        Every node bitmap is extended by the batch length; nodes whose
        leaf span misses the batch receive a pure zero-fill tail, which
        WAH compresses to (at most) one extra word.  The tails come
        from :func:`~repro.bitmap.builder.node_positions`, which raises
        :class:`~repro.errors.WorkloadError` on a batch that is not a
        1-D array of integral leaf ids.
        """
        values = np.asarray(values)
        tails = node_positions(self._hierarchy, values)
        if values.size == 0:
            return
        batch = int(values.size)
        for node_id, positions in tails:
            tail = WahBitmap.from_positions(positions, batch)
            self._bitmaps[node_id] = self._bitmaps[node_id].concat(
                tail
            )
        self._deleted = self._deleted.concat(
            WahBitmap.zeros(batch)
        )
        self._num_rows += batch

    def delete_rows(self, row_ids: np.ndarray) -> None:
        """Tombstone rows by id (idempotent).

        Deletion is logical: the rows stay in every node bitmap but are
        ANDNOT-ed out of query answers; :meth:`vacuum` reclaims them.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return
        if row_ids.min() < 0 or row_ids.max() >= self._num_rows:
            raise WorkloadError(
                f"row ids must lie in [0, {self._num_rows}), got "
                f"range [{row_ids.min()}, {row_ids.max()}]"
            )
        self._deleted = self._deleted | WahBitmap.from_positions(
            row_ids, self._num_rows
        )

    def vacuum(self) -> int:
        """Physically drop tombstoned rows and renumber the rest.

        The surviving rows keep their relative order.  Returns the
        number of rows reclaimed.  Values are reconstructed from the
        leaf bitmaps, so no external copy of the column is needed.
        """
        reclaimed = self.num_deleted
        if reclaimed == 0:
            return 0
        deleted_positions = self._deleted.to_positions()
        live_count = self._num_rows - reclaimed

        def remap(positions: np.ndarray) -> np.ndarray:
            # New row id = old id minus the deleted rows before it.
            shift = np.searchsorted(
                deleted_positions, positions, side="left"
            )
            return positions - shift

        keep = ~self._deleted
        for node in self._hierarchy:
            surviving = self._bitmaps[node.node_id] & keep
            self._bitmaps[node.node_id] = WahBitmap.from_positions(
                remap(surviving.to_positions()), live_count
            )
        self._deleted = WahBitmap.zeros(live_count)
        self._num_rows = live_count
        return reclaimed

    # ------------------------------------------------------------------
    def lookup_range(self, leaf_lo: int, leaf_hi: int) -> WahBitmap:
        """Rows whose value lies in ``[leaf_lo, leaf_hi]``.

        Answered from the index alone: whole covered subtrees use their
        node bitmap, the ragged edges use leaf bitmaps — the inclusive
        strategy with a greedy node cover.
        """
        if leaf_hi < leaf_lo:
            return WahBitmap.zeros(self._num_rows)
        terms: list[WahBitmap] = []

        def cover(node_id: int) -> None:
            node = self._hierarchy.node(node_id)
            if node.leaf_hi < leaf_lo or node.leaf_lo > leaf_hi:
                return
            if leaf_lo <= node.leaf_lo and node.leaf_hi <= leaf_hi:
                terms.append(self._bitmaps[node_id])
                return
            for child in node.children:
                cover(child)

        cover(self._hierarchy.root_id)
        union = WahBitmap.union_all(
            terms, num_bits=self._num_rows
        )
        if self._deleted.count():
            return union.andnot(self._deleted)
        return union

    def flush_to_store(
        self, store: BitmapFileStore, prefix: str = "node_"
    ) -> int:
        """Serialize every node bitmap into a file store.

        Returns the total bytes written.  File names follow the
        catalog convention ``node_<id>.wah`` by default.
        """
        total = 0
        for node_id, bitmap in self._bitmaps.items():
            payload = serialize_wah(bitmap)
            store.write(f"{prefix}{node_id}.wah", payload)
            total += len(payload)
        return total

    def verify_consistency(self) -> None:
        """Check the structural invariant: every internal node's bitmap
        equals the OR of its children's (raises ``AssertionError``)."""
        for node in self._hierarchy:
            if node.is_leaf:
                continue
            union = WahBitmap.union_all(
                (
                    self._bitmaps[child]
                    for child in node.children
                ),
                num_bits=self._num_rows,
            )
            assert self._bitmaps[node.node_id] == union, (
                f"node {node.node_id} bitmap diverged from its "
                f"children's union"
            )

    def __repr__(self) -> str:
        return (
            f"HierarchicalBitmapIndex(rows={self._num_rows}, "
            f"nodes={len(self._bitmaps)})"
        )
