"""Batch execution of many queries over one shared buffer pool.

The serial path answers one query at a time; this module serves a
*batch* concurrently while keeping every observability contract the
serial path makes:

* **Ordering** — outcomes come back in query-index order, never
  completion order, so a batch run is a drop-in replacement for the
  serial loop.
* **Per-query attribution** — each worker wraps its query in a private
  :class:`~repro.storage.accounting.IOAccountant` (via
  :meth:`~repro.storage.cache.BufferPool.attributing`) and a private
  :class:`~repro.obs.TraceCollector` (via
  :func:`~repro.obs.thread_recording`), so bytes and events land on the
  query that caused them.  A single-flight fetch is charged to the
  query that performed it; queries that shared the payload record
  nothing, like a cache hit.
* **Exact reconciliation** — the shared accountant's delta for the
  batch equals the pin-phase IO plus the sum of per-query IO, to the
  byte, faults and retries included
  (:meth:`BatchReport.reconciles`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import QueryFailedError
from ..obs import TraceCollector, TraceEvent, thread_recording
from ..storage.accounting import IOAccountant, IOSnapshot
from ..workload.query import RangeQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.executor import ExecutionResult, QueryExecutor

__all__ = [
    "BatchExecutor",
    "BatchReport",
    "QueryOutcome",
    "merge_event_streams",
    "reconcile_exactly",
]


def merge_event_streams(
    streams: Iterable[tuple[TraceEvent, ...]],
) -> tuple[TraceEvent, ...]:
    """Concatenate per-query trace streams and re-sequence densely.

    The order of ``streams`` (query order, then shard order for the
    sharded path) fully determines the output — wall-clock
    interleaving never leaks in, so two runs of the same batch over
    healthy storage merge byte-identically.
    """
    merged: list[TraceEvent] = []
    seq = 0
    for stream in streams:
        for event in stream:
            merged.append(
                TraceEvent(
                    seq=seq,
                    kind=event.kind,
                    name=event.name,
                    depth=event.depth,
                    attrs=dict(event.attrs),
                )
            )
            seq += 1
    return tuple(merged)

#: Counters that must balance between the shared accountant and the
#: pin-phase-plus-per-query attribution.  ``bytes_read``/``read_count``
#: cover useful IO; the fault-path counters catch a retry or discard
#: charged to the wrong accountant, which the byte tallies alone would
#: miss (retries transfer no bytes).
_RECONCILED_COUNTERS = (
    "bytes_read",
    "read_count",
    "retry_count",
    "discarded_bytes",
    "discard_count",
)


def reconcile_exactly(
    pin_io: IOSnapshot,
    per_query: Iterable[IOSnapshot],
    total: IOSnapshot,
) -> bool:
    """Whether pin-phase IO plus per-query IO explains ``total`` exactly.

    Checked counter by counter — useful bytes/reads *and* the fault
    path (retries, discarded bytes/count) — so misattributed waste
    cannot hide behind balanced byte tallies.  Behind
    :meth:`BatchReport.reconciles`, so also behind each sharded
    path's per-shard report.
    """
    snapshots = list(per_query)
    return all(
        getattr(pin_io, counter)
        + sum(getattr(snapshot, counter) for snapshot in snapshots)
        == getattr(total, counter)
        for counter in _RECONCILED_COUNTERS
    )


@dataclass(frozen=True)
class QueryOutcome:
    """One query's result plus its exactly-attributed IO and trace.

    Attributes:
        index: the query's position in the submitted batch (outcomes
            are always sorted by this, not by completion).
        result: the execution result (answer, io_bytes, degradations),
            or ``None`` when the query failed.
        io: this query's private accountant snapshot — per-file reads
            and bytes, retries, and discards caused by this query
            alone (partial reads of a failed query included).
        events: the query's private trace stream (sequence numbers are
            per-query, starting at 0).
        wall_seconds: wall-clock latency of this query inside the
            batch.
        error: ``None`` on success; a
            :class:`~repro.errors.QueryFailedError` wrapping whatever
            the query raised.  Failures are isolated per query: one
            bad query never discards its siblings' outcomes.
    """

    index: int
    result: "ExecutionResult | None"
    io: IOSnapshot
    events: tuple[TraceEvent, ...]
    wall_seconds: float
    error: QueryFailedError | None = None

    @property
    def ok(self) -> bool:
        """Whether the query produced a result."""
        return self.error is None


@dataclass(frozen=True)
class BatchReport:
    """Everything a batch run produced, deterministically ordered.

    Attributes:
        outcomes: per-query outcomes, sorted by query index.
        pin_io: shared-accountant delta for the pin phase (zero when
            the batch did not pin).
        io: shared-accountant delta for the whole run (pin + queries).
        wall_seconds: wall-clock time for the whole batch (pin
            included).
        workers: thread count the batch actually ran with — clamped to
            the batch size, and 1 when the run degenerated to the
            serial loop (batches of ≤ 1 query).

    The sharded path's :class:`~repro.serve.sharded.ShardRunReport`
    and :class:`~repro.serve.sharded.ShardedBatchReport` are
    subclasses, so every serving tier reports through these fields
    and properties.
    """

    outcomes: tuple[QueryOutcome, ...]
    pin_io: IOSnapshot
    io: IOSnapshot
    wall_seconds: float
    workers: int

    @property
    def results(self) -> tuple["ExecutionResult", ...]:
        """Execution results in query order (the serial-loop shape).

        Raises the first failed outcome's
        :class:`~repro.errors.QueryFailedError` — callers that want
        the per-query view of a partially-failed batch read
        :attr:`outcomes` (or :attr:`errors`) instead.
        """
        for outcome in self.outcomes:
            if outcome.error is not None:
                raise outcome.error
        return tuple(outcome.result for outcome in self.outcomes)

    @property
    def errors(self) -> tuple[QueryFailedError, ...]:
        """The failed outcomes' errors, in query order (empty when the
        whole batch succeeded)."""
        return tuple(
            outcome.error
            for outcome in self.outcomes
            if outcome.error is not None
        )

    @property
    def ok(self) -> bool:
        """Whether every query in the batch succeeded."""
        return not self.errors

    @property
    def attributed_bytes(self) -> int:
        """Total bytes charged to individual queries."""
        return sum(outcome.io.bytes_read for outcome in self.outcomes)

    def reconciles(self) -> bool:
        """Whether per-query IO plus the pin phase exactly explains the
        shared accountant's delta — every reconciled counter, fault
        path included (``retry_count``, ``discarded_bytes``,
        ``discard_count``), not just useful bytes/reads.

        True by construction — every fetch is charged to the pin phase
        or to exactly one query (single-flight waiters are charged
        nothing); failed queries still carry whatever IO they incurred
        before raising — and asserted by the chaos suite under fault
        injection at 2 and 8 workers.
        """
        return reconcile_exactly(
            self.pin_io,
            (outcome.io for outcome in self.outcomes),
            self.io,
        )

    def merged_events(self) -> tuple[TraceEvent, ...]:
        """One deterministic stream: per-query events concatenated in
        query order and re-sequenced densely.

        Concurrent workers interleave in wall-clock time, but the
        merged stream does not depend on that interleaving — two runs
        of the same batch over healthy storage merge byte-identically.
        """
        return merge_event_streams(
            outcome.events for outcome in self.outcomes
        )


class BatchExecutor:
    """Runs a list of queries concurrently against a shared pool.

    Wraps a :class:`~repro.core.executor.QueryExecutor` whose
    :class:`~repro.storage.cache.BufferPool` is thread-safe and
    single-flight deduplicated; the batch executor adds the fan-out,
    the per-query attribution plumbing, and the deterministic merge.

    Args:
        executor: the query executor to serve through.  All workers
            share its pool (and therefore its pinned cut, LRU area,
            and accountant).
        max_workers: thread count; 1 degenerates to a serial loop
            (useful as an oracle for the concurrent runs).
    """

    def __init__(self, executor: "QueryExecutor", max_workers: int = 8):
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._executor = executor
        self._max_workers = max_workers

    @property
    def executor(self) -> "QueryExecutor":
        """The wrapped query executor."""
        return self._executor

    @property
    def max_workers(self) -> int:
        """Thread count used for a batch."""
        return self._max_workers

    @property
    def healthy(self) -> bool:
        """Whether the backing store can still serve this catalog.

        The in-process mirror of
        :attr:`~repro.serve.sharded.ShardedExecutor.healthy` — the
        gateway's :class:`~repro.serve.gateway.BatchReplica` probes it
        before re-admitting a replica.  Probes cheap store metadata
        (existence of the hierarchy root's bitmap file) rather than
        running a query; any storage-layer exception reads as
        unhealthy.
        """
        try:
            catalog = self._executor.catalog
            name = catalog.file_name(catalog.hierarchy.root_id)
            return bool(catalog.store.exists(name))
        except Exception:
            return False

    def _run_one(
        self,
        index: int,
        query: RangeQuery,
        cut_node_ids: Sequence[int],
        node_is_cached: bool,
    ) -> QueryOutcome:
        pool = self._executor.pool
        collector = TraceCollector()
        local = IOAccountant()
        started = time.perf_counter()
        result: "ExecutionResult | None" = None
        error: QueryFailedError | None = None
        try:
            with thread_recording(collector), pool.attributing(local):
                result = self._executor.execute_query(
                    query, cut_node_ids, node_is_cached=node_is_cached
                )
        except Exception as exc:
            # Isolate the failure to this query: siblings keep their
            # outcomes, and the partial IO this query performed stays
            # attributed to it so the batch still reconciles.
            error = QueryFailedError(
                index, type(exc).__name__, str(exc)
            )
            error.__cause__ = exc
        return QueryOutcome(
            index=index,
            result=result,
            io=local.snapshot(),
            events=tuple(collector.events),
            wall_seconds=time.perf_counter() - started,
            error=error,
        )

    def run(
        self,
        queries: Iterable[RangeQuery],
        cut_node_ids: Sequence[int] = (),
        pin: bool = True,
        node_is_cached: bool | None = None,
    ) -> BatchReport:
        """Execute a batch of queries; outcomes return in query order.

        Args:
            queries: the queries to serve (a list or a
                :class:`~repro.workload.query.Workload`).
            cut_node_ids: cut members to plan against.
            pin: pin the cut's bitmaps first (Case-2/3 "read the cut
                once"); already-pinned members are skipped.
            node_is_cached: plan under the assumption that cut members
                are resident.  Defaults to ``pin and bool(
                cut_node_ids)`` — the same rule as
                :meth:`~repro.core.executor.QueryExecutor.
                execute_workload` — and must be set explicitly when the
                caller pinned the cut beforehand.

        Returns:
            A :class:`BatchReport` whose accounting reconciles exactly:
            ``pin_io + sum(per-query io) == io``.  A raising query
            becomes an error outcome (its siblings still return);
            :attr:`BatchReport.results` re-raises the first failure,
            :attr:`BatchReport.outcomes` exposes the per-query view.
        """
        batch = list(queries)
        accountant = self._executor.pool.accountant
        started = time.perf_counter()
        before = accountant.snapshot()
        if pin and cut_node_ids:
            self._executor.pin_cut(cut_node_ids)
        after_pin = accountant.snapshot()
        if node_is_cached is None:
            node_is_cached = pin and bool(cut_node_ids)
        if self._max_workers == 1 or len(batch) <= 1:
            workers = 1
            outcomes = [
                self._run_one(
                    index, query, cut_node_ids, node_is_cached
                )
                for index, query in enumerate(batch)
            ]
        else:
            workers = min(self._max_workers, len(batch))
            with ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="hcs-serve",
            ) as tpe:
                outcomes = list(
                    tpe.map(
                        lambda pair: self._run_one(
                            pair[0],
                            pair[1],
                            cut_node_ids,
                            node_is_cached,
                        ),
                        enumerate(batch),
                    )
                )
        # Deterministic merge: results are ordered by query index, not
        # completion (ThreadPoolExecutor.map already preserves input
        # order; the sort makes the contract explicit and future-proof).
        outcomes.sort(key=lambda outcome: outcome.index)
        return BatchReport(
            outcomes=tuple(outcomes),
            pin_io=after_pin.diff(before),
            io=accountant.diff_since(before),
            wall_seconds=time.perf_counter() - started,
            workers=workers,
        )
