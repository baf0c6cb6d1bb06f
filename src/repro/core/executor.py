"""Query execution on real WAH bitmaps through the budgeted buffer pool.

The cut-selection algorithms *predict* IO; this module actually performs
it: plans from :mod:`repro.core.opnodes` are evaluated as bitmap algebra
(OR / ANDNOT) over a :class:`MaterializedNodeCatalog`, every bitmap
fetched through a :class:`BufferPool` whose accountant tallies the bytes
read.  Tests compare the tally with the model's prediction and the
answer with a direct column scan.

Reads are fault tolerant: corrupt payloads (detected by the CRC32 frame
check) are re-fetched a few times, and a node whose bitmap stays
unreadable is *re-derived* as the union of its hierarchy descendants'
bitmaps — the defining invariant of the hierarchical index (an internal
node's bitmap is the OR of its children's).  The recovery reads go
through the same pool/accountant, so measured IO stays honest, and each
recovery surfaces as a :class:`DegradedRead` on the
:class:`ExecutionResult`.  Only a leaf with no readable copy is fatal
(:class:`~repro.errors.UnrecoverableReadError`).

A query reads one *row segment* at a time.  Over a plain store the
catalog's rows are one segment.  Over a
:class:`~repro.storage.manifest.DurableBitmapStore`, one manifest
snapshot per query lists the segments: the base generation, then each
live delta generation (a row batch committed by
:class:`~repro.storage.delta.DeltaAppender`) in seq order.  The plan
runs once per segment, and :meth:`WahBitmap.concat_all` joins the
segment answers.  OR and ANDNOT commute with row concatenation, so the
words are identical to the answer of a from-scratch rebuild over the
full column.  Delta fetches go through the same pool, so their bytes
land in the same per-query attribution as base reads; a query that
read deltas emits one ``delta.merge`` trace event, and delta files
appear as ``delta-merge`` rows in EXPLAIN ANALYZE.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..bitmap.serialization import deserialize_wah
from ..bitmap.wah import WahBitmap
from ..errors import (
    BitmapDecodeError,
    FileMissingError,
    StorageError,
    UnrecoverableReadError,
)
from ..obs import (
    TraceCollector,
    get_metrics,
    record,
    span,
    thread_recording,
)
from ..storage.accounting import IOAccountant, IOSnapshot
from ..storage.cache import BufferPool
from ..storage.catalog import MaterializedNodeCatalog, node_file_name
from ..storage.costmodel import MB
from ..storage.faults import RetryPolicy
from ..storage.manifest import delta_file_name
from ..workload.query import RangeQuery, Workload
from .costs import StrategyLabel
from .explain import ExplainReport, build_explain_report
from .opnodes import QueryPlan, build_query_plan

__all__ = [
    "DegradedRead",
    "ExecutionResult",
    "QueryExecutor",
    "scan_answer",
]

#: Decode attempts per node before falling back to degradation.
DEFAULT_DECODE_RETRY = RetryPolicy(max_attempts=3)

#: Manifest snapshots one query tries before a stale snapshot is an
#: error (each retry follows a fold that committed mid-query).
SNAPSHOT_ATTEMPTS = 3


@dataclass(frozen=True, slots=True)
class _Segment:
    """One row segment of a manifest snapshot: a file-name scheme and
    the rows its files cover.  ``seq`` is the delta generation, or
    ``None`` for the base (``node_<id>.wah``)."""

    seq: int | None
    num_rows: int

    def file_name(self, node_id: int) -> str:
        if self.seq is None:
            return node_file_name(node_id)
        return delta_file_name(self.seq, node_id)


class _StaleSnapshot(Exception):
    """A store base disagrees with the query's manifest snapshot."""


@dataclass(frozen=True, slots=True)
class DegradedRead:
    """One node bitmap that had to be re-derived from its descendants.

    Attributes:
        node_id: the hierarchy node whose file was unreadable.
        file_name: the unreadable bitmap file.
        attempts: how many read+decode attempts were made first.
        error: string form of the final error.
        recovered_from: the child node ids whose bitmaps were unioned
            in its place (each child may itself have degraded —
            recursively reported as its own event).
    """

    node_id: int
    file_name: str
    attempts: int
    error: str
    recovered_from: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionResult:
    """Answer bitmap plus the IO incurred producing it."""

    query: RangeQuery
    answer: WahBitmap
    io_bytes: int
    degraded_reads: tuple[DegradedRead, ...] = field(default=())

    @property
    def io_mb(self) -> float:
        """Data read from storage for this query, in MB."""
        return self.io_bytes / MB

    @property
    def degraded(self) -> bool:
        """Whether any bitmap had to be recovered from descendants."""
        return bool(self.degraded_reads)


def scan_answer(column: np.ndarray, query: RangeQuery) -> WahBitmap:
    """Ground truth: scan the column and mark the matching rows."""
    column = np.asarray(column)
    mask = np.zeros(column.shape, dtype=bool)
    for spec in query.specs:
        mask |= (column >= spec.start) & (column <= spec.end)
    return WahBitmap.from_positions(
        np.flatnonzero(mask), int(column.size)
    )


class QueryExecutor:
    """Executes query plans against materialized bitmaps.

    Args:
        catalog: the materialized bitmap catalog.
        pool: buffer pool to route reads through; a fresh unbounded pool
            is created when omitted.
        verify: statically verify every plan (atoms tile the query's
            range leaves) before touching any bitmap.
        retry_policy: attempts per node bitmap before degrading to a
            descendant union (corrupt payloads are re-fetched between
            attempts); ``RetryPolicy(max_attempts=1)`` disables retries
            but keeps degradation.
        allow_degraded: when false, unreadable nodes raise instead of
            being recovered from descendants.  Recovery heals the
            query, not the file: :class:`~repro.storage.scrub.Scrubber`
            is the one repair path.
    """

    def __init__(
        self,
        catalog: MaterializedNodeCatalog,
        pool: BufferPool | None = None,
        verify: bool = False,
        retry_policy: RetryPolicy | None = None,
        allow_degraded: bool = True,
    ):
        self._catalog = catalog
        self._pool = (
            pool
            if pool is not None
            else BufferPool(catalog.store)
        )
        self._verify = verify
        self._retry = retry_policy or DEFAULT_DECODE_RETRY
        self._allow_degraded = allow_degraded
        # The newest manifest generation seen and its live delta seqs.
        self._delta_view: tuple[int, frozenset[int]] = (0, frozenset())
        self._delta_view_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def catalog(self) -> MaterializedNodeCatalog:
        """The catalog whose bitmaps are executed against."""
        return self._catalog

    @property
    def pool(self) -> BufferPool:
        """The buffer pool (and its IO accountant)."""
        return self._pool

    def _snapshot(self) -> tuple[_Segment, ...]:
        """The row segments of one manifest snapshot, in row order.

        A durable store with a built base gives its base, then each
        live delta generation in seq order (and releases the ones a
        fold retired); any other store is one base segment of the
        catalog's rows.
        """
        manifest = getattr(self._catalog.store, "manifest", None)
        if manifest is None or manifest.num_rows <= 0:
            return (_Segment(None, self._catalog.num_rows),)
        self._release_retired(manifest)
        return (_Segment(None, manifest.num_rows),) + tuple(
            _Segment(delta.seq, delta.num_rows)
            for delta in manifest.deltas
        )

    def _release_retired(self, manifest) -> None:
        """Drop the pool's copies of the delta generations that the
        newest manifest seen here listed and ``manifest`` does not.

        Seqs are never reused, so nothing reads those files again.
        Only a newer generation retires anything: a thread holding an
        older manifest cannot drop a delta appended since.
        """
        with self._delta_view_lock:
            generation, seqs = self._delta_view
            if manifest.generation <= generation:
                return
            live = frozenset(delta.seq for delta in manifest.deltas)
            self._delta_view = (manifest.generation, live)
        for seq in seqs - live:
            for node in self._catalog.hierarchy:
                self._pool.invalidate(delta_file_name(seq, node.node_id))

    def _read_bitmap_file(
        self,
        name: str,
        node_id: int,
        segment: _Segment,
        events: list[DegradedRead],
    ) -> WahBitmap:
        """Read and decode one bitmap file, retrying as needed.

        Attempt 1 goes through the pool's cache; later attempts force
        a fresh fetch (a cached copy that failed its checksum is
        corrupt by definition).  If every attempt fails,
        :meth:`_recover` supplies the bitmap from the same segment's
        children.
        """
        metrics = get_metrics()
        last_error: Exception | None = None
        attempts = 0
        for attempt in self._retry.attempts():
            attempts += 1
            try:
                payload = (
                    self._pool.reload(name)
                    if attempt
                    else self._pool.get(name)
                )
            except StorageError as err:
                # The pool already retried transients; anything that
                # escapes it will not clear by asking again.
                last_error = err
                break
            try:
                if metrics.enabled:
                    started = time.perf_counter()
                    bitmap = deserialize_wah(payload)
                    metrics.observe(
                        "decode_seconds",
                        time.perf_counter() - started,
                    )
                    metrics.inc("decoded_bytes_total", len(payload))
                    return bitmap
                return deserialize_wah(payload)
            except BitmapDecodeError as err:
                last_error = err
                self._pool.record_discard(name, len(payload))
                record(
                    "executor.discard",
                    name,
                    node_id=node_id,
                    nbytes=len(payload),
                    error=type(err).__name__,
                )
                metrics.inc("decode_discards_total")
        assert last_error is not None
        if not self._allow_degraded:
            raise last_error
        return self._recover(
            node_id, name, segment, attempts, last_error, events
        )

    def _segment_bitmap(
        self,
        node_id: int,
        segment: _Segment,
        events: list[DegradedRead],
    ) -> WahBitmap:
        """A node's bitmap in one row segment, checked against the
        segment's row count.

        The pool serves only the store's current file, so a base whose
        width disagrees was replaced by a fold that committed after
        this query took its snapshot: :class:`_StaleSnapshot` restarts
        the query.
        """
        name = segment.file_name(node_id)
        bitmap = self._read_bitmap_file(name, node_id, segment, events)
        if bitmap.num_bits == segment.num_rows:
            return bitmap
        if segment.seq is not None:
            raise StorageError(
                f"{name!r} decodes to {bitmap.num_bits} bits but "
                f"delta generation {segment.seq} appended "
                f"{segment.num_rows} rows"
            )
        raise _StaleSnapshot(
            f"{name!r} decodes to {bitmap.num_bits} bits but the "
            f"snapshot records {segment.num_rows} base rows"
        )

    def _recover(
        self,
        node_id: int,
        name: str,
        segment: _Segment,
        attempts: int,
        last_error: Exception,
        events: list[DegradedRead],
    ) -> WahBitmap:
        """Recover an unreadable node file as the union of its
        children's bitmaps in the same segment (B_n == OR of
        children's, over any set of rows).  A leaf has no children to
        recover from, so its loss is fatal.
        """
        node = self._catalog.hierarchy.node(node_id)
        if node.is_leaf:
            raise UnrecoverableReadError(
                name,
                0,
                f"leaf node {node_id} unreadable after {attempts} "
                f"attempts and has no descendants to recover from "
                f"({last_error})",
            ) from last_error
        recovered = WahBitmap.union_all(
            [
                self._segment_bitmap(child, segment, events)
                for child in node.children
            ],
            num_bits=segment.num_rows,
        )
        events.append(
            DegradedRead(
                node_id=node_id,
                file_name=name,
                attempts=attempts,
                error=f"{type(last_error).__name__}: {last_error}",
                recovered_from=tuple(node.children),
            )
        )
        record(
            "executor.degraded",
            name,
            node_id=node_id,
            attempts=attempts,
            recovered_from=tuple(node.children),
        )
        get_metrics().inc("degraded_reads_total")
        return recovered

    def _evaluate(
        self,
        plan: QueryPlan,
        segment: _Segment,
        events: list[DegradedRead],
    ) -> WahBitmap:
        """A plan's answer over one row segment, in one
        :meth:`WahBitmap.union_all` pass over the atoms' terms: an
        inclusive atom's leaves, or a complete or exclusive atom's
        ``(node, leaves)``.  The terms are read as the union consumes
        them, a node before its leaves and atoms in plan order."""
        hierarchy = self._catalog.hierarchy

        def terms():
            for atom in plan.atoms:
                if segment.seq is None:
                    # Once per atom: the base segment is in every
                    # snapshot.
                    record(
                        "executor.atom",
                        atom.label.value,
                        node_id=atom.node_id,
                        leaves=len(atom.leaf_values),
                    )
                leaves = (
                    self._segment_bitmap(
                        hierarchy.leaf_node_id(value), segment, events
                    )
                    for value in atom.leaf_values
                )
                if atom.label is StrategyLabel.INCLUSIVE:
                    yield from leaves
                else:
                    assert atom.node_id is not None
                    node = self._segment_bitmap(
                        atom.node_id, segment, events
                    )
                    yield node, list(leaves)

        return WahBitmap.union_all(terms(), num_bits=segment.num_rows)

    def _answer(
        self, plan: QueryPlan
    ) -> tuple[WahBitmap, list[DegradedRead]]:
        """Run a plan once per row segment of one manifest snapshot
        and concatenate the segment answers in row order.

        A snapshot goes stale when a fold commits mid-query: a base's
        width disagrees with it, or a file it names is gone while the
        current manifest lists other segments (the fold retired
        that delta generation, or swept the base file being read).
        The query then restarts against a fresh snapshot, at most
        :data:`SNAPSHOT_ATTEMPTS` times in all.
        """
        attempt = 1
        while True:
            segments = self._snapshot()
            events: list[DegradedRead] = []
            try:
                answer = WahBitmap.concat_all(
                    self._evaluate(plan, segment, events)
                    for segment in segments
                )
            except (FileMissingError, UnrecoverableReadError) as err:
                if self._snapshot() == segments:
                    raise  # the store did not move: the file is lost
                stale: Exception = err
            except _StaleSnapshot as err:
                stale = err
            else:
                if len(segments) > 1:
                    record(
                        "delta.merge",
                        plan.query.label or repr(plan.query),
                        seqs=[segment.seq for segment in segments[1:]],
                        num_bits=answer.num_bits,
                    )
                    get_metrics().inc("delta_merges_total")
                return answer, events
            if attempt == SNAPSHOT_ATTEMPTS:
                raise StorageError(
                    f"manifest snapshot went stale on each of "
                    f"{SNAPSHOT_ATTEMPTS} attempts: {stale}"
                ) from stale
            record(
                "executor.snapshot-retry",
                plan.query.label or repr(plan.query),
                attempt=attempt,
                error=type(stale).__name__,
            )
            get_metrics().inc("snapshot_retries_total")
            attempt += 1

    def pin_cut(self, node_ids) -> None:
        """Load a cut's bitmaps once and keep them resident (Case 2/3)."""
        self._pool.pin(
            node_file_name(node_id) for node_id in node_ids
        )

    # ------------------------------------------------------------------
    def execute_plan(self, plan: QueryPlan) -> ExecutionResult:
        """Evaluate a plan's bitmap algebra; returns answer + IO.

        ``io_bytes`` comes from a private per-call accountant attributed
        to the calling thread, not from a snapshot diff of the shared
        accountant — so the figure is exact even while other threads
        execute against the same pool (see
        :meth:`~repro.storage.cache.BufferPool.attributing`).
        """
        if self._verify:
            from .verify import verify_plan

            verify_plan(plan, self._catalog.hierarchy)
        local = IOAccountant()
        with span(
            "executor.plan",
            query=plan.query.label or repr(plan.query),
            atoms=len(plan.atoms),
        ) as sp, self._pool.attributing(local):
            answer, events = self._answer(plan)
            get_metrics().observe("union_width", len(plan.atoms))
            sp.annotate(
                io_bytes=local.bytes_read,
                degraded=len(events),
            )
        return ExecutionResult(
            query=plan.query,
            answer=answer,
            io_bytes=local.bytes_read,
            degraded_reads=tuple(events),
        )

    def aggregate(
        self,
        plan: QueryPlan,
        measure: np.ndarray,
        agg: str = "sum",
    ) -> tuple[float, ExecutionResult]:
        """Execute a plan and aggregate a measure over matching rows.

        This is the OLAP use the paper motivates (§1): the bitmap plan
        prunes the rows, then the aggregate runs only over survivors.

        Args:
            plan: the query plan to execute.
            measure: per-row measure column, one value per row the
                answer covers.
            agg: ``count``, ``sum``, ``avg``, ``min``, or ``max``.

        Returns:
            ``(aggregate_value, execution_result)``.  Aggregates over
            an empty selection return ``0`` for count/sum and ``nan``
            for avg/min/max.
        """
        measure = np.asarray(measure)
        result = self.execute_plan(plan)
        expected_rows = result.answer.num_bits
        if measure.shape != (expected_rows,):
            raise ValueError(
                f"measure must have one value per row "
                f"({expected_rows}), got shape "
                f"{measure.shape}"
            )
        positions = result.answer.to_positions()
        if agg == "count":
            return float(positions.size), result
        if positions.size == 0:
            value = 0.0 if agg == "sum" else float("nan")
            return value, result
        selected = measure[positions]
        if agg == "sum":
            return float(selected.sum()), result
        if agg == "avg":
            return float(selected.mean()), result
        if agg == "min":
            return float(selected.min()), result
        if agg == "max":
            return float(selected.max()), result
        raise ValueError(
            f"agg must be one of count/sum/avg/min/max, got {agg!r}"
        )

    def explain_analyze(
        self,
        query: RangeQuery | QueryPlan,
        cut_node_ids=(),
        node_is_cached: bool = False,
    ) -> ExplainReport:
        """Execute a query with tracing on and report predicted vs
        measured IO for every operation node.

        The executor's EXPLAIN ANALYZE: plans the query (Alg. 2, unless
        a prebuilt :class:`QueryPlan` is passed), runs it with a private
        :class:`~repro.obs.TraceCollector` installed, and attributes
        the accountant's byte delta file-by-file — so each node row
        shows the :class:`~repro.storage.costmodel.CostModel`/catalog
        prediction next to the bytes actually read, plus cache hits,
        retries, checksum discards, and degraded recoveries.

        On a cold pool over healthy storage every row satisfies
        ``measured_bytes == predicted_bytes`` exactly; retried or
        degraded reads cost more and flag the row.

        Args:
            query: the query to explain, or an already-built plan.
            cut_node_ids: cut members to plan against.
            node_is_cached: plan under the Cases-2/3 assumption that
                cut members are resident (their read cost is sunk).

        Returns:
            The :class:`~repro.core.explain.ExplainReport`, renderable
            via ``to_text(catalog)`` or ``to_json()``.

        Note:
            events emitted while the report runs go to the report's own
            collector, not any previously installed ambient recorder.
        """
        planner_seconds: float | None = None
        if isinstance(query, QueryPlan):
            plan = query
        else:
            started = time.perf_counter()
            plan = build_query_plan(
                self._catalog,
                query,
                cut_node_ids,
                node_is_cached=node_is_cached,
            )
            planner_seconds = time.perf_counter() - started
        pre_cached = tuple(sorted(self._pool.cached_names))
        local = IOAccountant()
        collector = TraceCollector()
        started = time.perf_counter()
        # Thread-scoped recording plus a per-call attributed accountant:
        # the report's events and byte tallies cover exactly this
        # execution even when other workers run concurrently against
        # the same pool.
        with thread_recording(collector), self._pool.attributing(local):
            result = self.execute_plan(plan)
        execute_seconds = time.perf_counter() - started
        delta = local.snapshot()
        return build_explain_report(
            self._catalog,
            plan,
            result,
            io=delta,
            events=tuple(collector.events),
            pre_cached=pre_cached,
            planner_seconds=planner_seconds,
            execute_seconds=execute_seconds,
        )

    def execute_query(
        self,
        query: RangeQuery,
        cut_node_ids=(),
        node_is_cached: bool = False,
    ) -> ExecutionResult:
        """Plan (Alg. 2) and execute a query in one step."""
        plan = build_query_plan(
            self._catalog,
            query,
            cut_node_ids,
            node_is_cached=node_is_cached,
        )
        return self.execute_plan(plan)

    def execute_workload(
        self,
        workload: Workload,
        cut_node_ids=(),
        pin: bool = True,
    ) -> tuple[list[ExecutionResult], IOSnapshot]:
        """Execute every query of a workload against one cut.

        When ``pin`` is true the cut's bitmaps are pinned first (the
        Case-2/3 "read the cut once" semantics); per-query plans then
        treat the members as cached.  Concurrent serving of the same
        workload is :class:`repro.serve.BatchExecutor` (threads over
        this executor's pool) or :class:`repro.serve.ShardedExecutor`
        (row-sharded worker processes).
        """
        if pin and cut_node_ids:
            self.pin_cut(cut_node_ids)
        # Plans may only assume cut members are resident when the pool
        # actually pinned them; with pin=False the members are streamed
        # like any other bitmap, so predicting with node_is_cached=True
        # would undercount the measured IO (Alg. 2 cost vs. Eq. 4).
        node_is_cached = pin and bool(cut_node_ids)
        results = [
            self.execute_query(
                query, cut_node_ids, node_is_cached=node_is_cached
            )
            for query in workload
        ]
        return results, self._pool.accountant.snapshot()
