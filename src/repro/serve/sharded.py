"""Sharded multiprocess scatter-gather serving.

The thread-pool :class:`~repro.serve.batch.BatchExecutor` saturates on
WAH decode/union CPU — the GIL caps the serving path at one core's
worth of compute.  This module scales past that by *sharding the rows*:
the column is partitioned into ``N`` contiguous row ranges, each shard
owning its own hierarchy-node bitmaps, store directory,
:class:`~repro.storage.cache.BufferPool`, and H-CS cut selected under a
per-shard slice of the Case-3 budget ``S_total``.  Shards run in worker
*processes* (spawn-safe), each free to run its own small thread pool —
a process/thread hybrid.  Every :class:`~repro.workload.query.RangeQuery`
is scattered to all shards and the per-shard answers are merged by
row-offset concatenation.

The discipline of the thread path survives the process boundary:

* **Bit-identical answers** — each shard's answer and the merged
  concatenation are canonical WAH, so the merged bitmap's words equal
  the single-shard serial oracle's exactly.
* **Exact reconciliation** — each shard's
  :class:`~repro.storage.accounting.IOSnapshot`\\ s ship back over the
  result pipe and must satisfy ``io == pin_io + Σ per-query io`` (all
  counters, fault path included) *per shard*, and the batch totals are
  the per-shard sums.
* **Deterministic trace merge** — per-shard per-query streams merge
  query-major then shard-major, re-sequenced densely; wall-clock
  interleaving never leaks in.
* **Typed failure** — a dead, hung, or erroring shard raises
  :class:`~repro.errors.ShardFailedError` (no hang, no silent partial
  answer); a query that fails on one shard becomes a per-query
  :class:`~repro.errors.QueryFailedError` outcome carrying the shard
  id, and its siblings still return.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..bitmap.builder import checked_column
from ..bitmap.wah import WahBitmap
from ..errors import QueryFailedError, ShardError, ShardFailedError
from ..hierarchy.serialization import (
    hierarchy_from_dict,
    hierarchy_to_dict,
)
from ..hierarchy.tree import Hierarchy
from ..storage.accounting import IOSnapshot
from ..workload.query import RangeQuery, Workload
from .batch import BatchReport, QueryOutcome, merge_event_streams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.compactor import CompactionReport
    from ..storage.delta import DeltaAppendResult

__all__ = [
    "ShardCutInfo",
    "ShardRunReport",
    "ShardSpec",
    "ShardedBatchReport",
    "ShardedExecutor",
    "shard_row_ranges",
]

#: Per-shard k for budgeted (Case-3) cut selection.
DEFAULT_SHARD_K = 4

#: How long the parent waits on a shard's reply before declaring it
#: hung.  Generous — the point is "no infinite hang", not latency SLO.
DEFAULT_RECV_TIMEOUT_S = 120.0


def shard_row_ranges(
    num_rows: int, num_shards: int
) -> tuple[tuple[int, int], ...]:
    """Partition ``[0, num_rows)`` into ``num_shards`` contiguous
    half-open ranges whose sizes differ by at most one row.

    Raises:
        ValueError: when ``num_shards`` is not in ``[1, num_rows]``
            (an empty shard would own zero-bit bitmaps, which the
            reopen path cannot size).
    """
    if num_shards < 1:
        raise ValueError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    if num_shards > num_rows:
        raise ValueError(
            f"cannot cut {num_rows} rows into {num_shards} non-empty "
            f"shards"
        )
    base, extra = divmod(num_rows, num_shards)
    ranges = []
    lo = 0
    for shard_id in range(num_shards):
        hi = lo + base + (1 if shard_id < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return tuple(ranges)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: its store directory and row range.

    Attributes:
        shard_id: dense shard index, ``0 .. num_shards-1``.
        store_dir: directory holding this shard's ``node_<id>.wah``
            bitmap files (and MANIFEST when durable).
        row_lo: first global row owned by the shard (inclusive).
        row_hi: end of the shard's global row range (exclusive).
    """

    shard_id: int
    store_dir: str
    row_lo: int
    row_hi: int

    @property
    def num_rows(self) -> int:
        """Rows owned by this shard."""
        return self.row_hi - self.row_lo


@dataclass(frozen=True)
class ShardCutInfo:
    """What one shard prepared: its cut and its pool budget.

    Attributes:
        shard_id: the shard that selected the cut.
        cut_node_ids: hierarchy node ids of the shard's cut (the
            hierarchy is shared, so ids are comparable across shards).
        budget_bytes: the shard's buffer-pool budget — the per-shard
            ``S_total`` slice when one was given, otherwise the cut's
            measured file bytes (``None`` for an unbounded pool).
    """

    shard_id: int
    cut_node_ids: tuple[int, ...]
    budget_bytes: int | None


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a spawn-started worker needs (all fields picklable)."""

    shard_id: int
    store_dir: str
    hierarchy_payload: dict
    threads: int
    durable: bool
    fault_policy_kwargs: dict | None
    retry_max_attempts: int | None
    expected_rows: int


class _WorkerState:
    """Worker-process state: reopened catalog, pool, batch executor."""

    def __init__(self, config: _WorkerConfig):
        from ..storage.catalog import MaterializedNodeCatalog
        from ..storage.faults import FaultPolicy
        from ..storage.filestore import BitmapFileStore
        from ..storage.manifest import DurableBitmapStore

        self._config = config
        hierarchy = hierarchy_from_dict(config.hierarchy_payload)
        policy = (
            FaultPolicy(**config.fault_policy_kwargs)
            if config.fault_policy_kwargs
            else None
        )
        store_cls = (
            DurableBitmapStore if config.durable else BitmapFileStore
        )
        self._store = store_cls(
            config.store_dir, fault_policy=policy
        )
        # The manifest-reopen path: rehydrate sizes/densities from the
        # stored bitmaps (and, when durable, verify the manifest's
        # hierarchy fingerprint) instead of rebuilding from a column.
        self._catalog = MaterializedNodeCatalog.from_store(
            hierarchy, self._store
        )
        if self.num_rows != config.expected_rows:
            raise ShardError(
                f"shard {config.shard_id} store holds "
                f"{self.num_rows} rows, expected "
                f"{config.expected_rows}"
            )
        self._batch = None
        self._pool = None
        self._cut: tuple[int, ...] = ()
        self._auto_budget = False

    @property
    def num_rows(self) -> int:
        """Rows the shard's store answers for: the base plus, on a
        durable store, every live delta generation."""
        if self._config.durable:
            return self._store.total_num_rows
        return self._catalog.num_rows

    def prepare(
        self,
        queries: tuple[RangeQuery, ...],
        budget_bytes: int | None,
        cut_node_ids: tuple[int, ...] | None,
        k: int,
    ) -> tuple:
        """Select (or accept) a cut and build the shard's pool."""
        from ..core.constrained import k_cut_selection
        from ..core.multi import select_cut_multi
        from ..storage.costmodel import MB

        workload = Workload(queries) if queries else None
        if cut_node_ids is not None:
            cut = tuple(cut_node_ids)
        elif workload is None:
            raise ShardError(
                "prepare needs a workload to select a cut from, or "
                "an explicit cut"
            )
        elif budget_bytes is not None:
            selected = k_cut_selection(
                self._catalog, workload, budget_bytes / MB, k=k
            )
            cut = tuple(selected.cut.node_ids)
        else:
            cut = tuple(
                select_cut_multi(
                    self._catalog, workload
                ).cut.node_ids
            )
        if budget_bytes is not None:
            pool_budget = int(budget_bytes)
        else:
            pool_budget = self._cut_pool_budget(cut)
        self._auto_budget = budget_bytes is None
        self._cut = cut
        self._build_serving(pool_budget)
        return (
            "prepared",
            self._config.shard_id,
            cut,
            pool_budget,
        )

    def _cut_pool_budget(self, cut: tuple[int, ...]) -> int | None:
        """The pool budget when none is given: the cut members' stored
        file bytes, or unbounded (``None``) for an empty cut."""
        from ..storage.catalog import node_file_name

        if not cut:
            return None
        return sum(
            self._store.size_bytes(node_file_name(node_id))
            for node_id in cut
        )

    def _build_serving(self, pool_budget: int | None) -> None:
        """(Re)build the shard's pool, then its batch executor."""
        from ..storage.cache import BufferPool
        from ..storage.faults import RetryPolicy

        retry = (
            RetryPolicy(
                max_attempts=self._config.retry_max_attempts
            )
            if self._config.retry_max_attempts is not None
            else None
        )
        self._pool = BufferPool(
            self._store,
            budget_bytes=pool_budget,
            retry_policy=retry,
        )
        self._build_executor()

    def _build_executor(self) -> None:
        """(Re)build the batch executor over the catalog and pool."""
        from ..core.executor import QueryExecutor
        from .batch import BatchExecutor

        self._batch = BatchExecutor(
            QueryExecutor(self._catalog, self._pool),
            max_workers=self._config.threads,
        )

    def run(
        self, queries: tuple[RangeQuery, ...], pin: bool
    ) -> tuple:
        """Serve the batch locally and ship the full report back."""
        if self._batch is None:
            raise ShardError("run received before prepare")
        report = self._batch.run(queries, self._cut, pin=pin)
        return (
            "report",
            self._config.shard_id,
            report,
            self._pool.resident_bytes,
        )

    def ingest(self, values: np.ndarray) -> tuple:
        """Append a row batch to this shard's store as one delta
        generation; queries merge it on read from then on."""
        from ..storage.delta import DeltaAppender

        appender = DeltaAppender(
            self._store, self._catalog.hierarchy
        )
        result = appender.append(np.asarray(values))
        return ("ingested", self._config.shard_id, result)

    def compact(self, max_deltas: int | None) -> tuple:
        """Fold this shard's delta generations into a new base.

        A fold that did work reopens the catalog, as a restarted worker
        does, so plans and a later :meth:`prepare` price the folded
        base.  A pool given no explicit budget is rebuilt: a cut-sized
        budget would reject the larger folded cut, and an unbounded
        pool would keep the folded deltas' copies.  An explicitly
        budgeted pool, which holds no delta copies, serves on (it
        re-reads each folded base it held when next used).
        """
        from ..storage.catalog import MaterializedNodeCatalog
        from ..storage.compactor import Compactor

        report = Compactor(
            self._store, max_deltas_per_run=max_deltas
        ).run()
        if report.did_work:
            self._catalog = MaterializedNodeCatalog.from_store(
                self._catalog.hierarchy, self._store
            )
            if self._auto_budget:
                self._build_serving(self._cut_pool_budget(self._cut))
            elif self._batch is not None:
                self._build_executor()
        return ("compacted", self._config.shard_id, report)


def _send_safely(conn, message) -> None:
    """Best-effort send; a gone parent is not the worker's problem."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):  # pragma: no cover - teardown
        pass


def _shard_worker_main(conn, config: _WorkerConfig) -> None:
    """Entry point of one shard worker process (spawn-safe: module
    level, all arguments picklable).

    Replies on ``conn`` with ``("ready", ...)`` after reopening its
    store, then serves ``("prepare", ...)`` / ``("run", ...)`` commands
    until ``("stop",)`` or EOF.  Any exception becomes an
    ``("error", shard_id, type_name, message)`` reply — errors cross
    the pipe as strings, never as pickled exception objects.
    """
    try:
        state = _WorkerState(config)
        conn.send(("ready", config.shard_id, state.num_rows))
    except Exception as exc:
        _send_safely(
            conn,
            ("error", config.shard_id, type(exc).__name__, str(exc)),
        )
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "stop":
            _send_safely(conn, ("stopped", config.shard_id))
            break
        try:
            if command == "prepare":
                reply = state.prepare(*message[1:])
            elif command == "run":
                reply = state.run(*message[1:])
            elif command == "ingest":
                reply = state.ingest(*message[1:])
            elif command == "compact":
                reply = state.compact(*message[1:])
            else:
                raise ShardError(f"unknown command {command!r}")
            conn.send(reply)
        except Exception as exc:
            _send_safely(
                conn,
                (
                    "error",
                    config.shard_id,
                    type(exc).__name__,
                    str(exc),
                ),
            )
    conn.close()


@dataclass(frozen=True, kw_only=True)
class ShardRunReport(BatchReport):
    """One shard's :class:`~repro.serve.batch.BatchReport`, shipped
    over the result pipe and tagged parent-side with the shard's
    identity.

    The inherited fields are the worker's own report: outcomes are
    shard-local answers over ``row_hi - row_lo`` bits, ``pin_io`` and
    ``io`` the shard accountant's deltas, ``wall_seconds`` the shard's
    local batch wall clock, and :meth:`reconciles` checks
    ``io == pin_io + Σ per-query io`` on every counter.

    Attributes:
        shard_id: which shard produced the report.
        row_lo: the shard's first global row (inclusive).
        row_hi: end of the shard's global row range (exclusive).
        resident_bytes: the shard pool's resident bytes after the run
            (must stay within the shard's budget slice).
    """

    shard_id: int
    row_lo: int
    row_hi: int
    resident_bytes: int


@dataclass(frozen=True, kw_only=True)
class ShardedBatchReport(BatchReport):
    """A scatter-gather batch: a :class:`~repro.serve.batch.
    BatchReport` over merged outcomes, plus the per-shard reports.

    The inherited fields describe the merged batch: outcomes are
    full-width answers (per-shard answers concatenated by row offset)
    with per-shard-summed IO and the query-major/shard-major event
    merge, ``pin_io`` and ``io`` are the shards' sums,
    ``wall_seconds`` is the parent-side scatter→gather wall clock and
    ``workers`` the worker threads across shards.

    Attributes:
        shard_reports: the per-shard views, in shard order.
        num_rows: total rows across shards (the merged answers' width).
    """

    shard_reports: tuple[ShardRunReport, ...]
    num_rows: int

    @property
    def num_shards(self) -> int:
        """How many shards served the batch."""
        return len(self.shard_reports)

    def reconciles(self) -> bool:
        """Whether IO reconciles byte-exactly across the process
        boundaries: every shard internally (``io == pin_io +
        Σ per-query io``, fault counters included) and the batch
        totals as the per-shard sums."""
        return (
            all(
                report.reconciles()
                for report in self.shard_reports
            )
            and IOSnapshot.combine(
                report.io for report in self.shard_reports
            )
            == self.io
            and IOSnapshot.combine(
                report.pin_io for report in self.shard_reports
            )
            == self.pin_io
        )


class ShardedExecutor:
    """Scatter-gather serving over row shards in worker processes.

    Lifecycle: :meth:`build` (or construct over existing
    :class:`ShardSpec`\\ s) → :meth:`start` → :meth:`prepare` →
    :meth:`run` (any number of times) → :meth:`close`.  The class is a
    context manager; ``__enter__`` starts the workers.

    Args:
        hierarchy: the shared domain hierarchy (shipped to workers as
            a JSON payload; every shard indexes the same tree).
        shard_specs: the shards' store directories and row ranges, in
            shard order; ranges must tile ``[0, num_rows)``.
        threads_per_shard: size of each shard's local thread pool.
        durable: open shard stores as
            :class:`~repro.storage.manifest.DurableBitmapStore`
            (manifest verified on reopen).
        fault_policy_kwargs: keyword arguments for a per-shard
            :class:`~repro.storage.faults.FaultPolicy` constructed
            inside each worker (policies themselves hold locks and
            cannot cross the spawn boundary).
        retry_max_attempts: per-shard pool
            :class:`~repro.storage.faults.RetryPolicy` attempts, or
            ``None`` for the pool default.
        recv_timeout_s: how long to wait on a shard reply before
            raising :class:`~repro.errors.ShardFailedError`.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        shard_specs: Sequence[ShardSpec],
        threads_per_shard: int = 1,
        durable: bool = False,
        fault_policy_kwargs: dict | None = None,
        retry_max_attempts: int | None = None,
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
    ):
        if not shard_specs:
            raise ValueError("need at least one shard")
        if threads_per_shard < 1:
            raise ValueError(
                f"threads_per_shard must be >= 1, got "
                f"{threads_per_shard}"
            )
        expected_lo = 0
        for spec in shard_specs:
            if spec.row_lo != expected_lo or spec.num_rows <= 0:
                raise ValueError(
                    f"shard specs must tile [0, num_rows) with "
                    f"non-empty contiguous ranges; shard "
                    f"{spec.shard_id} covers "
                    f"[{spec.row_lo}, {spec.row_hi})"
                )
            expected_lo = spec.row_hi
        self._hierarchy = hierarchy
        self._specs = tuple(shard_specs)
        self._threads = threads_per_shard
        self._durable = durable
        self._fault_policy_kwargs = fault_policy_kwargs
        self._retry_max_attempts = retry_max_attempts
        self._recv_timeout_s = recv_timeout_s
        self._handles: list = []
        # Shard replies carry no request id, so one command at a time
        # owns the pipes, from its first send to its last reply.
        self._pipe_lock = threading.Lock()
        self._prepared = False
        self._appended_rows = 0
        self._last_prepare: dict | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        hierarchy: Hierarchy,
        column: np.ndarray,
        num_shards: int,
        base_dir: str | Path,
        **kwargs,
    ) -> "ShardedExecutor":
        """Partition a column into per-shard stores and wire up an
        executor over them (workers not yet started).

        Each shard's bitmaps are materialized from its row slice into
        ``base_dir/shard_<i>`` (a MANIFEST-committed build when
        ``durable=True`` is passed through); workers later *reopen*
        those stores via
        :meth:`~repro.storage.catalog.MaterializedNodeCatalog.from_store`.
        The whole column is checked before any shard is written, so a
        bad value raises :class:`~repro.errors.WorkloadError` with
        every shard directory still empty.
        """
        from ..storage.catalog import MaterializedNodeCatalog
        from ..storage.filestore import BitmapFileStore
        from ..storage.manifest import DurableBitmapStore

        column = checked_column(column, hierarchy.num_leaves)
        durable = bool(kwargs.get("durable", False))
        store_cls = (
            DurableBitmapStore if durable else BitmapFileStore
        )
        specs = []
        for shard_id, (lo, hi) in enumerate(
            shard_row_ranges(int(column.size), num_shards)
        ):
            shard_dir = Path(base_dir) / f"shard_{shard_id}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            MaterializedNodeCatalog(
                hierarchy, column[lo:hi], store_cls(shard_dir)
            )
            specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    store_dir=str(shard_dir),
                    row_lo=lo,
                    row_hi=hi,
                )
            )
        return cls(hierarchy, specs, **kwargs)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._specs)

    @property
    def shard_specs(self) -> tuple[ShardSpec, ...]:
        """The shards' specs, in shard order."""
        return self._specs

    @property
    def num_rows(self) -> int:
        """Total rows across shards, ingested appends included."""
        return self._specs[-1].row_hi + self._appended_rows

    @property
    def worker_processes(self) -> tuple:
        """The live worker ``Process`` objects (test hook — chaos
        tests kill one to assert typed failure propagation)."""
        return tuple(handle[1] for handle in self._handles)

    @property
    def started(self) -> bool:
        """Whether the worker processes are running."""
        return bool(self._handles)

    @property
    def healthy(self) -> bool:
        """Whether the fleet is started with every worker alive.

        The gateway's replica-failover hook: a fleet that lost a
        worker (or was torn down) reads unhealthy and stops receiving
        batches.
        """
        return bool(self._handles) and all(
            process.is_alive()
            for _spec, process, _conn in self._handles
        )

    @property
    def prepared(self) -> bool:
        """Whether the fleet has a pinned cut and can serve batches."""
        return self._prepared

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one worker process per shard and wait for each to
        reopen its store (raises
        :class:`~repro.errors.ShardFailedError` if any cannot)."""
        if self._handles:
            raise ShardError("workers already started")
        context = multiprocessing.get_context("spawn")
        hierarchy_payload = hierarchy_to_dict(self._hierarchy)
        try:
            for spec in self._specs:
                parent_conn, child_conn = context.Pipe()
                config = _WorkerConfig(
                    shard_id=spec.shard_id,
                    store_dir=spec.store_dir,
                    hierarchy_payload=hierarchy_payload,
                    threads=self._threads,
                    durable=self._durable,
                    fault_policy_kwargs=self._fault_policy_kwargs,
                    retry_max_attempts=self._retry_max_attempts,
                    expected_rows=self._row_hi(spec) - spec.row_lo,
                )
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, config),
                    name=f"hcs-shard-{spec.shard_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._handles.append(
                    (spec, process, parent_conn)
                )
            for handle in self._handles:
                self._recv(handle, "ready")
        except BaseException:
            self.close()
            raise

    def _row_hi(self, spec: ShardSpec) -> int:
        """A shard's end row: appended rows extend the *last* shard's
        range, base and delta rows alike."""
        if spec is self._specs[-1]:
            return spec.row_hi + self._appended_rows
        return spec.row_hi

    def _require_started(self) -> None:
        if not self._handles:
            raise ShardError(
                "workers not running; call start() (or use the "
                "executor as a context manager) first"
            )

    def _recv(self, handle, expected_kind: str):
        """Receive one reply from a shard; never hangs.

        Polls the pipe with a deadline while watching process
        liveness, so a dead or wedged worker surfaces as a typed
        :class:`~repro.errors.ShardFailedError` instead of a silent
        partial answer or an indefinite block.
        """
        spec, process, conn = handle
        deadline = time.monotonic() + self._recv_timeout_s
        while True:
            try:
                if conn.poll(0.05):
                    message = conn.recv()
                    break
            except (EOFError, OSError):
                raise ShardFailedError(
                    spec.shard_id,
                    "result pipe closed before a reply arrived",
                ) from None
            if not process.is_alive():
                raise ShardFailedError(
                    spec.shard_id,
                    f"worker process exited with code "
                    f"{process.exitcode} before replying",
                )
            if time.monotonic() > deadline:
                raise ShardFailedError(
                    spec.shard_id,
                    f"no reply within {self._recv_timeout_s:.0f}s",
                )
        kind = message[0]
        if kind == "error":
            raise ShardFailedError(
                spec.shard_id, f"{message[2]}: {message[3]}"
            )
        if kind != expected_kind:
            raise ShardFailedError(
                spec.shard_id,
                f"expected {expected_kind!r} reply, got {kind!r}",
            )
        return message

    def _scatter_gather(
        self, command: tuple, expected_kind: str
    ) -> list:
        """Send one command to every shard, then gather all replies.

        Any shard failure tears the whole fleet down (close()) before
        re-raising — after a scatter has partially executed there is
        no consistent state to continue from.  Callers on other
        threads wait for the pipes (see :meth:`run`).
        """
        with self._pipe_lock:
            self._require_started()
            try:
                for _spec, _process, conn in self._handles:
                    conn.send(command)
                return [
                    self._recv(handle, expected_kind)
                    for handle in self._handles
                ]
            except ShardError:
                self.close()
                raise
            except (BrokenPipeError, OSError) as exc:
                self.close()
                raise ShardFailedError(
                    -1, f"scatter failed: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    def prepare(
        self,
        workload: Iterable[RangeQuery] | None = None,
        budget_bytes_total: int | None = None,
        cut_node_ids: Sequence[int] | None = None,
        k: int = DEFAULT_SHARD_K,
    ) -> tuple[ShardCutInfo, ...]:
        """Have every shard select its cut and build its pool.

        Each shard receives a ``budget_bytes_total / num_shards``
        slice of the Case-3 budget and runs
        :func:`~repro.core.constrained.k_cut_selection` under it; with
        no budget, shards run the unconstrained Alg.-3 multi-query
        selection (:func:`~repro.core.multi.select_cut_multi`) and
        budget their pools to the selected cut's file bytes.  An
        explicit ``cut_node_ids`` (valid for every shard — the
        hierarchy is shared) skips selection.

        Args:
            workload: the queries to select cuts for (optional when
                ``cut_node_ids`` is given).
            budget_bytes_total: the global ``S_total`` to slice across
                shards, or ``None``.
            cut_node_ids: use this cut on every shard instead of
                selecting one.
            k: per-shard ``k`` for the budgeted k-Cut selection.

        Returns:
            One :class:`ShardCutInfo` per shard, in shard order.
        """
        queries = tuple(workload) if workload is not None else ()
        per_shard_budget = (
            int(budget_bytes_total) // self.num_shards
            if budget_bytes_total is not None
            else None
        )
        explicit_cut = (
            tuple(cut_node_ids)
            if cut_node_ids is not None
            else None
        )
        replies = self._scatter_gather(
            ("prepare", queries, per_shard_budget, explicit_cut, k),
            "prepared",
        )
        self._prepared = True
        self._last_prepare = {
            "workload": queries if workload is not None else None,
            "budget_bytes_total": budget_bytes_total,
            "cut_node_ids": explicit_cut,
            "k": k,
        }
        return tuple(
            ShardCutInfo(
                shard_id=reply[1],
                cut_node_ids=tuple(reply[2]),
                budget_bytes=reply[3],
            )
            for reply in replies
        )

    def run(
        self,
        queries: Iterable[RangeQuery],
        pin: bool = True,
    ) -> ShardedBatchReport:
        """Scatter a batch to every shard and merge the answers.

        Safe to call from several threads: batches take turns on the
        shard pipes, and each merges its own replies.

        Args:
            queries: the batch (a list or a
                :class:`~repro.workload.query.Workload`).
            pin: pin each shard's cut first (skipped for members
                already resident from a previous batch).

        Returns:
            A :class:`ShardedBatchReport` whose merged answers are
            bit-identical to a single-shard run over the whole column
            and whose accounting reconciles across the process
            boundaries.
        """
        batch = list(queries)
        if not self._prepared:
            raise ShardError("call prepare() before run()")
        started = time.perf_counter()
        replies = self._scatter_gather(
            ("run", tuple(batch), pin), "report"
        )
        wall = time.perf_counter() - started
        shard_reports = []
        try:
            for (spec, _process, _conn), reply in zip(
                self._handles, replies
            ):
                _kind, shard_id, report, resident_bytes = reply
                if shard_id != spec.shard_id or len(
                    report.outcomes
                ) != len(batch):
                    raise ShardFailedError(
                        spec.shard_id,
                        "reply does not match the scattered batch",
                    )
                shard_reports.append(
                    ShardRunReport(
                        **vars(report),
                        shard_id=shard_id,
                        row_lo=spec.row_lo,
                        row_hi=self._row_hi(spec),
                        resident_bytes=resident_bytes,
                    )
                )
        except ShardError:
            # A malformed reply is as fatal as a dead shard: tear the
            # fleet down so worker processes are reaped, not leaked.
            self.close()
            raise
        return ShardedBatchReport(
            outcomes=self._merge_outcomes(batch, shard_reports),
            shard_reports=tuple(shard_reports),
            pin_io=IOSnapshot.combine(
                report.pin_io for report in shard_reports
            ),
            io=IOSnapshot.combine(
                report.io for report in shard_reports
            ),
            wall_seconds=wall,
            workers=sum(
                report.workers for report in shard_reports
            ),
            num_rows=self.num_rows,
        )

    def ingest(self, values) -> "DeltaAppendResult":
        """Append a batch of rows to the column.

        Appended global rows extend the *tail* of the row space, which
        the last shard owns — so the batch routes to that one shard,
        whose worker commits it as a delta generation via
        :class:`~repro.storage.delta.DeltaAppender`.  Subsequent
        :meth:`run` answers are full-width over :attr:`num_rows`
        (appends included), merged on read.  Requires ``durable=True``
        shard stores: delta generations live in the manifest.

        Args:
            values: 1-D array of leaf ids for the appended rows.

        Returns:
            The last shard's
            :class:`~repro.storage.delta.DeltaAppendResult`.
        """
        if not self._durable:
            raise ShardError(
                "ingest requires durable=True shard stores (delta "
                "generations are manifest-committed)"
            )
        with self._pipe_lock:
            self._require_started()
            handle = self._handles[-1]
            spec, _process, conn = handle
            try:
                conn.send(("ingest", np.asarray(values)))
                reply = self._recv(handle, "ingested")
            except ShardError:
                self.close()
                raise
            except (BrokenPipeError, OSError) as exc:
                self.close()
                raise ShardFailedError(
                    spec.shard_id, f"ingest failed: {exc}"
                ) from exc
            result = reply[2]
            self._appended_rows += result.num_rows
        return result

    def compact(
        self, max_deltas_per_run: int | None = None
    ) -> tuple["CompactionReport", ...]:
        """Fold delta generations shard-by-shard: every worker runs
        its own :class:`~repro.storage.compactor.Compactor` against
        its own store; each pool re-reads the bases the fold replaced
        when it next uses them.

        Args:
            max_deltas_per_run: bound each shard's fold to its oldest
                N delta generations; ``None`` folds everything.

        Returns:
            One :class:`~repro.storage.compactor.CompactionReport`
            per shard, in shard order (no-op reports for shards with
            nothing to fold).
        """
        replies = self._scatter_gather(
            ("compact", max_deltas_per_run), "compacted"
        )
        return tuple(reply[2] for reply in replies)

    def _merge_outcomes(
        self,
        batch: list[RangeQuery],
        shard_reports: list[ShardRunReport],
    ) -> tuple[QueryOutcome, ...]:
        """Merge per-shard outcomes into full-column outcomes.

        Answers concatenate by row offset: the shard answers are row
        segments, joined by :meth:`~repro.bitmap.wah.WahBitmap.
        concat_all` in ``row_lo`` order, whose canonical words are
        identical to a single-shard answer's.
        A failure on any shard makes the merged outcome a
        :class:`~repro.errors.QueryFailedError` carrying the shard id
        (IO and events of all shards, failed included, stay merged).
        """
        from ..core.executor import ExecutionResult

        merged: list[QueryOutcome] = []
        for index, query in enumerate(batch):
            parts = [
                report.outcomes[index] for report in shard_reports
            ]
            io = IOSnapshot.combine(part.io for part in parts)
            events = merge_event_streams(
                part.events for part in parts
            )
            wall = max(part.wall_seconds for part in parts)
            error: QueryFailedError | None = None
            for report, part in zip(shard_reports, parts):
                if part.error is not None:
                    error = QueryFailedError(
                        index,
                        part.error.error_type,
                        part.error.message,
                        shard_id=report.shard_id,
                    )
                    break
            if error is not None:
                merged.append(
                    QueryOutcome(
                        index=index,
                        result=None,
                        io=io,
                        events=events,
                        wall_seconds=wall,
                        error=error,
                    )
                )
                continue
            result = ExecutionResult(
                query=query,
                answer=WahBitmap.concat_all(
                    part.result.answer for part in parts
                ),
                io_bytes=sum(
                    part.result.io_bytes for part in parts
                ),
                degraded_reads=tuple(
                    event
                    for part in parts
                    for event in part.result.degraded_reads
                ),
            )
            merged.append(
                QueryOutcome(
                    index=index,
                    result=result,
                    io=io,
                    events=events,
                    wall_seconds=wall,
                )
            )
        return tuple(merged)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (politely, then by terminate, then by
        kill) and release the pipes.  Idempotent.

        The escalation ladder guarantees no worker process outlives
        the fleet: a cooperative ``stop`` with a joint deadline, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) for a
        worker wedged in uninterruptible state, each followed by a
        bounded join.
        """
        handles, self._handles = self._handles, []
        self._prepared = False
        for _spec, process, conn in handles:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for _spec, process, conn in handles:
            process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
            conn.close()

    def restart(self) -> tuple[ShardCutInfo, ...]:
        """Rebuild the fleet: close, respawn workers, replay the last
        :meth:`prepare`.

        The gateway supervisor's repair hook: a fleet that raised
        :class:`~repro.errors.ShardError` (and tore itself down) is
        rebuilt from its on-disk shard stores with the same cut
        selection it served before.  Rows appended via :meth:`ingest`
        are delta generations (or, after :meth:`compact`, base rows)
        committed to the last shard's durable store, so the respawned
        worker reopens them with the rest.  Raises
        :class:`~repro.errors.ShardError` when there is no remembered
        ``prepare()`` to replay.

        Returns:
            The replayed per-shard cut selections, in shard order.
        """
        if self._last_prepare is None:
            raise ShardError(
                "restart() needs a previous prepare() to replay"
            )
        remembered = self._last_prepare
        self.close()
        self.start()
        return self.prepare(
            workload=remembered["workload"],
            budget_bytes_total=remembered["budget_bytes_total"],
            cut_node_ids=remembered["cut_node_ids"],
            k=remembered["k"],
        )

    def __enter__(self) -> "ShardedExecutor":
        """Start the workers (if not already) and return self."""
        if not self._handles:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the fleet."""
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(shards={self.num_shards}, "
            f"threads_per_shard={self._threads}, "
            f"rows={self.num_rows})"
        )
