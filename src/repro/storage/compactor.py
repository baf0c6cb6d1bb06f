"""Fold delta generations back into the base index.

Merge-on-read keeps ingest cheap, but every live delta generation adds
one read per node per query.  The :class:`Compactor` bounds that read
amplification: it folds the oldest ``max_deltas_per_run`` delta
generations into a new base generation — per node, the base and its
delta tails joined in seq order by
:meth:`~repro.bitmap.wah.WahBitmap.concat_all`, the same fold that
joins a query's row-segment answers — and stages and
commits the result as one :class:`~repro.storage.manifest.IndexBuild`
with a fold transform.  The rename of the MANIFEST is the commit
point; the post-commit sweep then reclaims the superseded base files
and the folded delta files.  A crash at any step leaves the store
serving exactly the old state or exactly the new one, which the
compaction crash matrix asserts cell by cell.

Compaction reads bytes straight from disk (CRC-verified against the
manifest, bypassing the read-fault injector): folding must fold what
is *actually committed*, and a store failing its own checksums needs a
scrub, not a compaction — so a mismatch aborts the build (deleting
what it staged) with a typed :class:`~repro.errors.StorageError`.

:class:`BackgroundCompactor` runs the same fold on a daemon thread
with a delta-count threshold; no serving path starts one (a shard
worker folds inline on :meth:`~repro.serve.sharded.ShardedExecutor.compact`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..bitmap.serialization import deserialize_wah, serialize_wah
from ..bitmap.wah import WahBitmap
from ..errors import StorageError
from ..obs import get_metrics, record
from .accounting import IOAccountant
from .catalog import node_id_from_file_name
from .manifest import DurableBitmapStore, IndexBuild, delta_file_name

__all__ = ["CompactionReport", "Compactor", "BackgroundCompactor"]


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction run did.

    Attributes:
        folded_seqs: delta sequence numbers folded into the new base.
        folded_rows: rows those deltas appended (now in the base).
        files_written: base files rewritten.
        bytes_read: payload bytes read to compute the fold.
        bytes_written: new base payload bytes written.
        generation_before: manifest generation before the run.
        generation_after: generation after (same as before when the
            run was a no-op).
    """

    folded_seqs: tuple[int, ...]
    folded_rows: int
    files_written: int
    bytes_read: int
    bytes_written: int
    generation_before: int
    generation_after: int

    @property
    def did_work(self) -> bool:
        """Whether any delta generation was folded."""
        return bool(self.folded_seqs)

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI output)."""
        return {
            "folded_seqs": list(self.folded_seqs),
            "folded_rows": self.folded_rows,
            "files_written": self.files_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "generation_before": self.generation_before,
            "generation_after": self.generation_after,
            "did_work": self.did_work,
        }


def _noop_report(generation: int) -> CompactionReport:
    return CompactionReport(
        folded_seqs=(),
        folded_rows=0,
        files_written=0,
        bytes_read=0,
        bytes_written=0,
        generation_before=generation,
        generation_after=generation,
    )


class Compactor:
    """Folds delta generations into a new base generation.

    Args:
        store: the durable store to compact.
        max_deltas_per_run: fold at most this many (oldest) delta
            generations per :meth:`run`, bounding the IO of one run;
            ``None`` folds everything.
        accountant: optional :class:`~repro.storage.accounting.
            IOAccountant` charged with every payload byte the fold
            reads, so maintenance IO shows up in the same ledger as
            query IO.
    """

    def __init__(
        self,
        store: DurableBitmapStore,
        max_deltas_per_run: int | None = None,
        accountant: IOAccountant | None = None,
    ):
        if not isinstance(store, DurableBitmapStore):
            raise StorageError(
                "Compactor requires a DurableBitmapStore"
            )
        if max_deltas_per_run is not None and max_deltas_per_run <= 0:
            raise ValueError(
                f"max_deltas_per_run must be positive, got "
                f"{max_deltas_per_run}"
            )
        self._store = store
        self._max_deltas = max_deltas_per_run
        self._accountant = accountant

    def _verified_payload(self, name: str, entry) -> bytes:
        payload = self._store.read_physical(name)
        if not entry.matches(payload):
            raise StorageError(
                f"refusing to compact: {name!r} fails its manifest "
                f"checksum on disk; run scrub first"
            )
        if self._accountant is not None:
            self._accountant.record_read(name, len(payload))
        return payload

    def run(self) -> CompactionReport:
        """Fold the oldest deltas into a new base generation.

        Returns a no-op report when the store has no live deltas.
        Holds the store's reorg lock for the whole fold, so a
        concurrent append can neither be dropped by this commit nor
        observe a half-staged base.  A catalog opened before the fold
        keeps the old base's sizes, so its plans and EXPLAIN
        predictions are off until ``MaterializedNodeCatalog.from_store``
        reopens it.
        """
        store = self._store
        with store._reorg_lock:
            manifest = store.manifest
            deltas = manifest.deltas
            if not deltas:
                return _noop_report(manifest.generation)
            fold = deltas[: self._max_deltas or len(deltas)]
            folded_rows = sum(delta.num_rows for delta in fold)
            expected_bits = manifest.num_rows + folded_rows

            def folded(base, staged):
                # Staged node bases replace theirs; any other base
                # entry is carried forward on its same physical file.
                return replace(
                    base,
                    entries={**base.entries, **staged},
                    num_rows=expected_bits,
                    deltas=base.deltas[len(fold):],
                )

            bytes_read = 0
            bytes_written = 0
            with IndexBuild(store, folded) as build:
                for name, entry in sorted(manifest.entries.items()):
                    node_id = node_id_from_file_name(name)
                    if node_id is None:
                        continue
                    base_payload = self._verified_payload(name, entry)
                    bytes_read += len(base_payload)
                    parts = [deserialize_wah(base_payload)]
                    for delta in fold:
                        dname = delta_file_name(delta.seq, node_id)
                        dentry = delta.entries.get(dname)
                        if dentry is None:
                            raise StorageError(
                                f"refusing to compact: delta "
                                f"generation {delta.seq} has no entry "
                                f"for {dname!r}; run scrub first"
                            )
                        dpayload = self._verified_payload(
                            dname, dentry
                        )
                        bytes_read += len(dpayload)
                        parts.append(deserialize_wah(dpayload))
                    merged = WahBitmap.concat_all(parts)
                    if merged.num_bits != expected_bits:
                        raise StorageError(
                            f"compaction of {name!r} produced "
                            f"{merged.num_bits} bits, expected "
                            f"{expected_bits}"
                        )
                    payload = serialize_wah(merged)
                    build.add(name, payload)
                    bytes_written += len(payload)
            generation = build.generation
            files_written = len(build.staged_names)
        record(
            "compact.run",
            f"g{generation:08d}",
            folded_seqs=[delta.seq for delta in fold],
            folded_rows=folded_rows,
            files=files_written,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        )
        metrics = get_metrics()
        metrics.inc("compactions_total")
        metrics.inc("compacted_deltas_total", len(fold))
        return CompactionReport(
            folded_seqs=tuple(delta.seq for delta in fold),
            folded_rows=folded_rows,
            files_written=files_written,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            generation_before=manifest.generation,
            generation_after=generation,
        )


class BackgroundCompactor:
    """Runs :class:`Compactor` on a daemon thread.

    Wakes every ``interval_seconds`` (or immediately on
    :meth:`trigger`) and folds when at least ``min_deltas`` delta
    generations are live.  Storage errors are recorded and retried at
    the next wake rather than killing the thread; committed reports
    accumulate in :attr:`reports`.
    """

    def __init__(
        self,
        store: DurableBitmapStore,
        min_deltas: int = 4,
        interval_seconds: float = 1.0,
        max_deltas_per_run: int | None = None,
        accountant: IOAccountant | None = None,
    ):
        if min_deltas <= 0:
            raise ValueError(
                f"min_deltas must be positive, got {min_deltas}"
            )
        self._store = store
        self._min_deltas = min_deltas
        self._interval = interval_seconds
        self._compactor = Compactor(
            store,
            max_deltas_per_run=max_deltas_per_run,
            accountant=accountant,
        )
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self._state_lock = threading.Lock()
        self._reports: list[CompactionReport] = []
        self._errors: list[StorageError] = []
        self._thread: threading.Thread | None = None

    @property
    def reports(self) -> list[CompactionReport]:
        """Reports of runs that folded at least one delta."""
        with self._state_lock:
            return list(self._reports)

    @property
    def errors(self) -> list[StorageError]:
        """Storage errors swallowed by the loop (retried later)."""
        with self._state_lock:
            return list(self._errors)

    def start(self) -> "BackgroundCompactor":
        """Start the daemon thread (idempotent); returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._loop,
            name="hcs-compactor",
            daemon=True,
        )
        self._thread.start()
        return self

    def trigger(self) -> None:
        """Wake the loop now instead of at the next interval."""
        self._wake.set()

    def stop(self) -> None:
        """Stop the thread and wait for it to exit."""
        if self._thread is None:
            return
        self._stopped.set()
        self._wake.set()
        self._thread.join()
        self._thread = None

    def _due(self) -> bool:
        return len(self._store.delta_manifests) >= self._min_deltas

    def _loop(self) -> None:
        while not self._stopped.is_set():
            self._wake.wait(self._interval)
            self._wake.clear()
            if self._stopped.is_set():
                return
            if not self._due():
                continue
            try:
                report = self._compactor.run()
            except StorageError as err:
                record(
                    "compact.error",
                    type(err).__name__,
                    message=str(err),
                )
                with self._state_lock:
                    self._errors.append(err)
                continue
            if report.did_work:
                with self._state_lock:
                    self._reports.append(report)

    def __enter__(self) -> "BackgroundCompactor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
