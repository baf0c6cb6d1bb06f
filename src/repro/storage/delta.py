"""LSM-style ingest: append row batches as delta generations.

The materialized index is read-optimized; rebuilding it for every
appended batch would cost a full index write.  Instead,
:class:`DeltaAppender` turns a batch of appended rows into one small
*delta generation*: per hierarchy node, the WAH tail bitmap covering
only the batch (zero tails compress to a single fill word), committed
atomically as one :class:`~repro.storage.manifest.IndexBuild`, the
same tmp + fsync + manifest-swap protocol as a full build
(:meth:`~repro.storage.manifest.DurableBitmapStore.begin_delta`).

Readers merge on read: a query runs its plan once per row segment
(the base, then each delta generation in seq order) and concatenates
the segment answers, which for append-only rows is bit-identical
(canonical WAH words) to the answer over a from-scratch rebuild of the
full column.  :class:`~repro.storage.compactor.Compactor` folds deltas
back into a new base generation when read amplification grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bitmap.builder import node_positions
from ..bitmap.serialization import serialize_wah
from ..bitmap.wah import WahBitmap
from ..errors import StorageError
from ..hierarchy.tree import Hierarchy
from ..obs import get_metrics, record
from .manifest import DurableBitmapStore, delta_file_name

__all__ = ["DeltaAppendResult", "DeltaAppender"]


@dataclass(frozen=True)
class DeltaAppendResult:
    """What one :meth:`DeltaAppender.append` call committed.

    Attributes:
        seq: the delta generation's sequence number (0 when the batch
            was empty and nothing was committed).
        generation: the manifest generation committed (0 for an empty
            batch).
        num_rows: rows appended by this batch.
        files_written: delta files staged (one per hierarchy node).
        bytes_written: total serialized delta payload bytes.
    """

    seq: int
    generation: int
    num_rows: int
    files_written: int
    bytes_written: int

    @property
    def committed(self) -> bool:
        """Whether a delta generation was actually committed (an
        empty batch is a no-op)."""
        return self.num_rows > 0

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI output)."""
        return {
            "seq": self.seq,
            "generation": self.generation,
            "num_rows": self.num_rows,
            "files_written": self.files_written,
            "bytes_written": self.bytes_written,
            "committed": self.committed,
        }


class DeltaAppender:
    """Stages and commits per-node delta bitmaps for appended rows.

    An append holds the store's reorg lock across staging and commit,
    so no other commit (another append, a compaction, a build) can
    land in between and refuse it.

    Args:
        store: the durable store holding the base generation.  Must
            already contain a built index (``num_rows > 0``) — a delta
            extends a base, it cannot found one.
        hierarchy: the indexed hierarchy; checked against the store's
            recorded fingerprint so a delta can never be computed for
            the wrong tree shape.
    """

    def __init__(
        self, store: DurableBitmapStore, hierarchy: Hierarchy
    ):
        if not isinstance(store, DurableBitmapStore):
            raise StorageError(
                "DeltaAppender requires a DurableBitmapStore; "
                "in-memory stores have no durable delta lifecycle"
            )
        if store.manifest.num_rows <= 0:
            raise StorageError(
                "cannot append deltas to an empty store: build a "
                "base generation first"
            )
        store.verify_hierarchy(hierarchy)
        self._store = store
        self._hierarchy = hierarchy

    @property
    def store(self) -> DurableBitmapStore:
        """The store appends commit into."""
        return self._store

    def append(self, values: np.ndarray) -> DeltaAppendResult:
        """Commit one batch of appended rows as a delta generation.

        ``values`` are the batch's leaf ids in row order, exactly as
        for the initial build.  Every hierarchy node gets a tail
        bitmap covering only the batch (nodes missed by the batch get
        a pure zero fill), so merge-on-read can extend any node
        positionally without consulting which nodes the batch touched.
        An empty batch commits nothing and returns a result with
        ``committed == False``.  The tails come from
        :func:`~repro.bitmap.builder.node_positions`, which raises
        :class:`~repro.errors.WorkloadError`, before anything is
        staged, on a batch that is not a 1-D array of integral leaf
        ids.
        """
        values = np.asarray(values)
        tails = node_positions(self._hierarchy, values)
        if values.size == 0:
            return DeltaAppendResult(
                seq=0,
                generation=0,
                num_rows=0,
                files_written=0,
                bytes_written=0,
            )
        batch = int(values.size)
        bytes_written = 0
        store = self._store
        with store._reorg_lock:
            with store.begin_delta(batch) as delta:
                seq = delta.seq
                generation = delta.generation
                for node_id, positions in tails:
                    payload = serialize_wah(
                        WahBitmap.from_positions(positions, batch)
                    )
                    delta.add(delta_file_name(seq, node_id), payload)
                    bytes_written += len(payload)
                files_written = len(delta.staged_names)
        record(
            "delta.append",
            f"delta_{seq:06d}",
            seq=seq,
            rows=batch,
            files=files_written,
            bytes=bytes_written,
        )
        get_metrics().inc("delta_rows_appended_total", batch)
        return DeltaAppendResult(
            seq=seq,
            generation=generation,
            num_rows=batch,
            files_written=files_written,
            bytes_written=bytes_written,
        )
