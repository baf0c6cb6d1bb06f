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

Reads are also *merge-on-read* over a mutable store: when the backing
store is a :class:`~repro.storage.manifest.DurableBitmapStore` with
live delta generations (appended row batches committed by
:class:`~repro.storage.delta.DeltaAppender`), a node's effective
bitmap is ``base.concat(delta_1).concat(delta_2)...`` in seq order —
canonically equal to ``OR(base ∪ offset-extended deltas)`` and
bit-identical to a from-scratch rebuild over the full column.  Delta
fetches go through the same pool, so their bytes land in the same
accountant and per-query attribution as base reads; each merge is
surfaced as a ``delta.merge`` trace event, and delta files appear as
``delta-merge`` rows in EXPLAIN ANALYZE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..bitmap.serialization import (
    codec_name,
    deserialize_wah,
    payload_codec,
)
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
from ..storage.manifest import DeltaManifest, delta_file_name
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

    # ------------------------------------------------------------------
    @property
    def catalog(self) -> MaterializedNodeCatalog:
        """The catalog whose bitmaps are executed against."""
        return self._catalog

    @property
    def pool(self) -> BufferPool:
        """The buffer pool (and its IO accountant)."""
        return self._pool

    def _manifest_snapshot(self):
        """The backing store's manifest, when it is a durable store
        with a built base — the executor's merge-on-read view.

        One snapshot is taken per node read, so one merge always pairs
        a base with exactly the delta set committed alongside it.
        Returns ``None`` for plain (non-durable) stores.
        """
        manifest = getattr(self._catalog.store, "manifest", None)
        if manifest is None or manifest.num_rows <= 0:
            return None
        return manifest

    def _num_rows(self) -> int:
        """Rows the current answers must cover: the durable store's
        base + delta total when one backs the catalog, else the
        catalog's build-time row count."""
        manifest = self._manifest_snapshot()
        if manifest is not None:
            return manifest.total_rows
        return self._catalog.num_rows

    def _read_bitmap_file(
        self,
        name: str,
        node_id: int,
        events: list[DegradedRead] | None,
        delta: DeltaManifest | None = None,
    ) -> tuple[WahBitmap, bool]:
        """Read and decode one bitmap file, retrying as needed.

        Attempt 1 goes through the pool's cache; later attempts force
        a fresh fetch (a cached copy that failed its checksum is stale
        by definition).  If every attempt fails and ``events`` is
        given, :meth:`_recover` supplies the bitmap instead (from
        ``delta``'s files when the file is a delta tail); the returned
        flag says whether that recovery path ran.
        """
        metrics = get_metrics()
        last_error: Exception | None = None
        attempts = 0
        for attempt in self._retry.attempts():
            attempts += 1
            try:
                payload = (
                    self._pool.get(name)
                    if attempt == 0
                    else self._pool.reload(name)
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
                    metrics.inc(
                        "decoded_bytes_total",
                        len(payload),
                        codec=codec_name(payload_codec(payload)),
                    )
                    return bitmap, False
                return deserialize_wah(payload), False
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
        if events is None or not self._allow_degraded:
            raise last_error
        recovered = self._recover(
            node_id, name, attempts, last_error, events, delta
        )
        return recovered, True

    def _note_degraded(
        self,
        node_id: int,
        name: str,
        attempts: int,
        last_error: Exception,
        events: list[DegradedRead],
        children,
    ) -> None:
        events.append(
            DegradedRead(
                node_id=node_id,
                file_name=name,
                attempts=attempts,
                error=f"{type(last_error).__name__}: {last_error}",
                recovered_from=tuple(children),
            )
        )
        record(
            "executor.degraded",
            name,
            node_id=node_id,
            attempts=attempts,
            recovered_from=tuple(children),
        )
        get_metrics().inc("degraded_reads_total")

    def _bitmap(
        self,
        node_id: int,
        events: list[DegradedRead] | None = None,
    ) -> WahBitmap:
        """A node's *effective* bitmap: base merged with live deltas.

        Over a plain store this is one read (with the retry/degrade
        ladder).  Over a durable store with live delta generations,
        the base payload is concatenated with each delta generation's
        tail for this node, in seq order — canonical WAH concatenation
        makes the result word-identical to a from-scratch rebuild over
        the full column.  Every delta fetch goes through the same pool
        and lands in the same per-query attribution as the base read.

        A cached base whose bit length disagrees with the manifest
        (the only possible cache staleness: a compaction replaced the
        base under a long-lived pool; delta payloads are immutable) is
        dropped — along with its whole node group — and re-read
        against a fresh manifest snapshot.
        """
        name = node_file_name(node_id)
        manifest = self._manifest_snapshot()
        if manifest is None:
            bitmap, _ = self._read_bitmap_file(name, node_id, events)
            return bitmap
        for attempt in range(3):
            base, recovered = self._read_bitmap_file(
                name, node_id, events
            )
            if recovered:
                # The children unioned by the recovery were themselves
                # merged (base + deltas); appending deltas again here
                # would double-count the appended rows.
                return base
            if base.num_bits != manifest.num_rows:
                if attempt == 2:
                    raise StorageError(
                        f"{name!r} decodes to {base.num_bits} bits "
                        f"but the manifest records "
                        f"{manifest.num_rows} base rows; store and "
                        f"cache cannot be reconciled"
                    )
                record(
                    "executor.stale-base",
                    name,
                    node_id=node_id,
                    cached_bits=base.num_bits,
                    manifest_rows=manifest.num_rows,
                )
                get_metrics().inc("stale_base_invalidations_total")
                self._pool.invalidate(name)
                refreshed = self._manifest_snapshot()
                assert refreshed is not None
                manifest = refreshed
                continue
            if not manifest.deltas:
                return base
            try:
                merged = base
                for delta in manifest.deltas:
                    merged = merged.concat(
                        self._delta_bitmap(delta, node_id, events)
                    )
            except (FileMissingError, UnrecoverableReadError) as err:
                # A compaction can fold this snapshot's deltas and GC
                # their files between our snapshot and the delta
                # reads.  If that is what happened (some snapshot
                # delta is no longer live), re-merge against a fresh
                # snapshot; a delta that is still referenced really
                # is damaged, so the error stands.
                refreshed = self._manifest_snapshot()
                assert refreshed is not None
                live = {d.seq for d in refreshed.deltas}
                folded = any(
                    d.seq not in live for d in manifest.deltas
                )
                if attempt == 2 or not folded:
                    raise
                record(
                    "executor.folded-delta-retry",
                    name,
                    node_id=node_id,
                    error=type(err).__name__,
                )
                get_metrics().inc("folded_delta_retries_total")
                # The fold also replaced the base this merge paired
                # with those deltas; drop the cached copy too.
                self._pool.invalidate(name)
                manifest = refreshed
                continue
            if merged.num_bits != manifest.total_rows:
                raise StorageError(
                    f"merge-on-read of node {node_id} produced "
                    f"{merged.num_bits} bits, manifest records "
                    f"{manifest.total_rows} total rows"
                )
            record(
                "delta.merge",
                name,
                node_id=node_id,
                deltas=len(manifest.deltas),
                seqs=[delta.seq for delta in manifest.deltas],
                num_bits=merged.num_bits,
            )
            get_metrics().inc("delta_merges_total")
            return merged
        raise StorageError(  # pragma: no cover - loop always resolves
            f"merge-on-read of node {node_id} did not converge"
        )

    def _recover(
        self,
        node_id: int,
        name: str,
        attempts: int,
        last_error: Exception,
        events: list[DegradedRead],
        delta: DeltaManifest | None,
    ) -> WahBitmap:
        """Recover an unreadable node file as the union of its
        children's bitmaps (B_n == OR of children's).

        A base file unions the children's *effective* (merged)
        bitmaps, so the recovery covers the full row range, deltas
        included.  A delta tail unions the *same generation's* child
        tails: the identity holds over the batch's rows alone.  A leaf
        has no children to recover from, so its loss is fatal.
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
        if delta is None:
            parts = [
                self._bitmap(child, events) for child in node.children
            ]
            num_bits = self._num_rows()
        else:
            parts = [
                self._delta_bitmap(delta, child, events)
                for child in node.children
            ]
            num_bits = delta.num_rows
        recovered = WahBitmap.union_all(parts, num_bits=num_bits)
        self._note_degraded(
            node_id, name, attempts, last_error, events, node.children
        )
        return recovered

    def _delta_bitmap(
        self,
        delta: DeltaManifest,
        node_id: int,
        events: list[DegradedRead] | None,
    ) -> WahBitmap:
        """One delta generation's tail bitmap for a node, with the
        same retry/degrade ladder as base reads."""
        name = delta_file_name(delta.seq, node_id)
        bitmap, _ = self._read_bitmap_file(name, node_id, events, delta)
        if bitmap.num_bits != delta.num_rows:
            raise StorageError(
                f"{name!r} decodes to {bitmap.num_bits} bits but "
                f"delta generation {delta.seq} appended "
                f"{delta.num_rows} rows"
            )
        return bitmap

    def _leaf_bitmap(
        self,
        leaf_value: int,
        events: list[DegradedRead] | None = None,
    ) -> WahBitmap:
        node_id = self._catalog.hierarchy.leaf_node_id(leaf_value)
        return self._bitmap(node_id, events)

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
        num_bits = self._num_rows()
        events: list[DegradedRead] = []
        terms: list[WahBitmap] = []
        with span(
            "executor.plan",
            query=plan.query.label or repr(plan.query),
            atoms=len(plan.atoms),
        ) as sp, self._pool.attributing(local):
            for atom in plan.atoms:
                record(
                    "executor.atom",
                    atom.label.value,
                    node_id=atom.node_id,
                    leaves=len(atom.leaf_values),
                )
                if atom.label is StrategyLabel.COMPLETE:
                    assert atom.node_id is not None
                    term = self._bitmap(atom.node_id, events)
                elif atom.label is StrategyLabel.INCLUSIVE:
                    term = WahBitmap.union_all(
                        (
                            self._leaf_bitmap(value, events)
                            for value in atom.leaf_values
                        ),
                        num_bits=num_bits,
                    )
                else:  # EXCLUSIVE
                    assert atom.node_id is not None
                    node_bitmap = self._bitmap(atom.node_id, events)
                    removal = WahBitmap.union_all(
                        (
                            self._leaf_bitmap(value, events)
                            for value in atom.leaf_values
                        ),
                        num_bits=num_bits,
                    )
                    term = node_bitmap.andnot(removal)
                terms.append(term)
            # One k-way union over all atoms (vectorized kernel path)
            # instead of a left-to-right OR fold over a growing answer.
            answer = WahBitmap.union_all(terms, num_bits=num_bits)
            get_metrics().observe("union_width", len(terms))
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
            measure: per-row measure column (length = num rows).
            agg: ``count``, ``sum``, ``avg``, ``min``, or ``max``.

        Returns:
            ``(aggregate_value, execution_result)``.  Aggregates over
            an empty selection return ``0`` for count/sum and ``nan``
            for avg/min/max.
        """
        measure = np.asarray(measure)
        expected_rows = self._num_rows()
        if measure.shape != (expected_rows,):
            raise ValueError(
                f"measure must have one value per row "
                f"({expected_rows}), got shape "
                f"{measure.shape}"
            )
        result = self.execute_plan(plan)
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
