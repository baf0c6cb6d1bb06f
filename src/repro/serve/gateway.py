"""Asyncio serving gateway: admission control, micro-batching, SLOs,
and a self-healing replica fleet.

PR 6/7 built the compute tier — :class:`~repro.serve.batch.
BatchExecutor` threads and :class:`~repro.serve.sharded.
ShardedExecutor` process fleets — but clients still called it
in-process, one blocking batch at a time.  This module is the network
front-end the ROADMAP asks for:

* **Concurrent intake.**  Requests arrive over an in-process async API
  (:meth:`Gateway.submit`) or a TCP/JSON-lines socket
  (:meth:`Gateway.serve_tcp`); the event loop coalesces them into
  bounded micro-batches for the blocking executors, which run on the
  event loop's default executor (``run_in_executor(None, ...)``) so
  the loop never blocks.
* **Priority-aware admission control.**  The intake queue is bounded
  (``max_queue_depth``) and partitioned by priority class; a request
  that would overflow it is shed *synchronously* with a typed
  :class:`~repro.errors.OverloadedError` — low-priority traffic is
  shed first (an incoming high-priority request may evict the newest
  queued low-priority one), and a shed request never enters a batch,
  so shedding cannot poison admitted siblings.  Per-request deadlines
  are enforced both while queued (the backend never sees an expired
  request) and in flight (a late answer is discarded), with the phase
  recorded on the :class:`~repro.errors.DeadlineExceededError`.
* **SLO metrics.**  Every gateway event is recorded once, into a
  :class:`~repro.obs.MetricsRegistry` the gateway owns
  (:attr:`Gateway.metrics`) and mirrors to the ambient
  :func:`~repro.obs.get_metrics` registry: request latency as
  ``gateway_request_seconds`` (p50/p95/p99 via the registry's
  quantile-capable histograms) next to queue-depth and batch-size
  histograms, per-priority latency/shed series, and
  ``gateway_requests_total{status=...}`` counters.  The registry is
  the gateway's whole reporting surface (with
  :meth:`Gateway.replica_states` for the fleet), so it reads the same
  with or without an ambient registry installed.
* **Sequential failover.**  The gateway holds N *replicas* —
  independent serving fleets over the same logical column — and
  serves each micro-batch on one replica at a time: try replica A,
  and only when A fails try B, and so on.  Every failed attempt
  suspects its replica.  This is safe because the serving path is
  read-only and any two healthy replicas answer bit-identically.
* **Replica lifecycle with re-admission.**  Each replica is tracked by
  the :mod:`~repro.serve.lifecycle` state machine (``ACTIVE →
  SUSPECTED → PROBATION → ACTIVE | DEAD``).  A replica is *suspected*
  (out of rotation) when an attempt on it fails, it fails a health
  scan, or its rolling circuit breaker opens; a background supervisor
  then revives the backend and re-admits it once a deterministic
  canary query answers bit-identical to a healthy peer, with seeded
  exponential backoff between probes.  Replicas only die for good
  when the probe budget is exhausted (or re-admission is disabled
  with ``max_probe_attempts=0``).
* **Bounded history.**  Batch records keep the newest
  :data:`HISTORY_LIMIT` entries; the trace keeps its first
  :data:`HISTORY_LIMIT` events and counts the rest as dropped.

Determinism discipline: gateway *trace events* carry no wall-clock
data (latencies go to metrics), the supervisor's probe schedule draws
from a seeded RNG, and answers are whatever the backend produced —
bit-identical to the serial oracle by the serving tier's own
contracts, which is also what makes failover and canary re-admission
provably safe.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import (
    AllReplicasFailedError,
    DeadlineExceededError,
    GatewayClosedError,
    GatewayError,
    OverloadedError,
    QueryFailedError,
    WorkloadError,
)
from ..obs import MetricsRegistry, TraceCollector, TraceEvent, get_metrics
from ..workload.query import RangeQuery
from .lifecycle import ReplicaSlot, ReplicaState, probe_backoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bitmap.wah import WahBitmap
    from ..core.executor import ExecutionResult
    from .batch import BatchExecutor
    from .sharded import ShardedExecutor

__all__ = [
    "BatchReplica",
    "Gateway",
    "GatewayBatchRecord",
    "GatewayConfig",
    "Replica",
    "ShardedReplica",
]

#: Bound on a gateway's history.  Batch records keep the newest this
#: many (each holds its backend report and every answer bitmap); the
#: trace keeps its first this many events and counts the rest as
#: dropped.
HISTORY_LIMIT = 1024


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for admission, batching, and self-healing.

    Attributes:
        max_batch_size: most requests coalesced into one backend batch.
        max_batch_delay_s: how long an open micro-batch waits for more
            requests before flushing (the latency the gateway *spends*
            to buy batching throughput).
        max_queue_depth: admission bound — requests beyond this many
            queued are shed with :class:`~repro.errors.OverloadedError`
            (lowest priority class first).
        max_inflight_batches: backend batches allowed to run
            concurrently.  It sizes no thread pool: every attempt,
            health probe, canary and replica close runs on the event
            loop's default executor.
        default_deadline_s: deadline applied to requests that do not
            carry their own (``None`` = no deadline).
        priority_classes: admission classes from most to least
            important; under overload the *last* class sheds first.
        default_priority: class assigned to requests that do not name
            one (must be a member of ``priority_classes``).
        breaker_window: per-replica rolling window of per-query
            outcomes feeding the circuit breaker.
        breaker_failures: failures within ``breaker_window`` that open
            the breaker and suspect the replica.
        max_probe_attempts: re-admission probes before a suspected
            replica is declared ``DEAD``.  ``0`` disables the
            supervisor entirely — a failed replica is retired
            permanently (the pre-self-healing behavior).
        probe_backoff_base_s: delay before the first re-admission
            probe; doubles per failed probe.
        probe_backoff_max_s: cap on the un-jittered probe delay.
        probe_jitter: fractional jitter on probe delays, drawn from
            the seeded supervisor RNG (deterministic per seed).
        supervisor_interval_s: how often the supervisor scans replica
            health and checks for due probes.
        supervisor_seed: seed for the supervisor's backoff RNG.
        canary_query: query replayed to a probed replica before
            re-admission; its answer must be bit-identical to a
            healthy peer's.  ``None`` uses the most recent
            successfully-served query as the canary.
    """

    max_batch_size: int = 16
    max_batch_delay_s: float = 0.002
    max_queue_depth: int = 64
    max_inflight_batches: int = 2
    default_deadline_s: float | None = None
    priority_classes: tuple[str, ...] = ("high", "normal", "low")
    default_priority: str = "normal"
    breaker_window: int = 16
    breaker_failures: int = 4
    max_probe_attempts: int = 6
    probe_backoff_base_s: float = 0.05
    probe_backoff_max_s: float = 2.0
    probe_jitter: float = 0.1
    supervisor_interval_s: float = 0.05
    supervisor_seed: int = 0
    canary_query: RangeQuery | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_batch_delay_s < 0:
            raise ValueError(
                f"max_batch_delay_s must be >= 0, got "
                f"{self.max_batch_delay_s}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got "
                f"{self.max_queue_depth}"
            )
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got "
                f"{self.max_inflight_batches}"
            )
        if (
            self.default_deadline_s is not None
            and self.default_deadline_s <= 0
        ):
            raise ValueError(
                f"default_deadline_s must be > 0, got "
                f"{self.default_deadline_s}"
            )
        if not self.priority_classes:
            raise ValueError("need at least one priority class")
        if len(set(self.priority_classes)) != len(
            self.priority_classes
        ):
            raise ValueError(
                f"priority classes must be unique, got "
                f"{self.priority_classes}"
            )
        if self.default_priority not in self.priority_classes:
            raise ValueError(
                f"default_priority {self.default_priority!r} is not "
                f"one of {self.priority_classes}"
            )
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1, got "
                f"{self.breaker_window}"
            )
        if not 1 <= self.breaker_failures <= self.breaker_window:
            raise ValueError(
                f"breaker_failures must be in [1, "
                f"{self.breaker_window}], got {self.breaker_failures}"
            )
        if self.max_probe_attempts < 0:
            raise ValueError(
                f"max_probe_attempts must be >= 0, got "
                f"{self.max_probe_attempts}"
            )
        if self.probe_backoff_base_s <= 0:
            raise ValueError(
                f"probe_backoff_base_s must be > 0, got "
                f"{self.probe_backoff_base_s}"
            )
        if self.probe_backoff_max_s < self.probe_backoff_base_s:
            raise ValueError(
                f"probe_backoff_max_s must be >= "
                f"probe_backoff_base_s, got {self.probe_backoff_max_s}"
            )
        if self.probe_jitter < 0:
            raise ValueError(
                f"probe_jitter must be >= 0, got {self.probe_jitter}"
            )
        if self.supervisor_interval_s <= 0:
            raise ValueError(
                f"supervisor_interval_s must be > 0, got "
                f"{self.supervisor_interval_s}"
            )


class Replica:
    """One independently-serving fleet the gateway can route batches to.

    Subclasses adapt a concrete backend; the contract is small:
    :meth:`run_batch` executes a tuple of queries *synchronously*
    (the gateway calls it on the event loop's default executor, via
    :meth:`serve_batch`) and returns a report exposing ``outcomes`` —
    per-query :class:`~repro.serve.batch.QueryOutcome`\\ s in query
    order — and ``reconciles()``.  A raise (typically
    :class:`~repro.errors.ShardError`: "this fleet is gone") fails
    the attempt; the gateway suspects the replica, closes it, and
    tries the batch on a sibling.  The supervisor may later call
    :meth:`revive` and replay a canary query to re-admit it.

    :meth:`close` is idempotent and race-safe: the supervisor, a
    failover path, and :meth:`Gateway.aclose` may all reach for it
    concurrently and the backend is torn down exactly once.

    Args:
        replica_id: dense id used in metrics, traces, and reports.
    """

    #: Whether the gateway must serialize batches through this replica
    #: (backends that multiplex a single channel, like the sharded
    #: fleet's per-shard pipes, are not safe to call concurrently).
    serialize_batches = False

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self._closed = False
        self._close_lock = threading.Lock()
        self._batch_lock = threading.Lock()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (and no revive since)."""
        return self._closed

    def serve_batch(self, queries: tuple[RangeQuery, ...]):
        """Run one micro-batch, serializing when the backend needs it.

        The gateway's entry point; dispatch threads (and the
        supervisor's canary probe) call this instead of
        :meth:`run_batch` directly so backends that are not safe to
        call concurrently (``serialize_batches = True``) see one batch
        at a time.
        """
        if self.serialize_batches:
            with self._batch_lock:
                return self.run_batch(queries)
        return self.run_batch(queries)

    def run_batch(self, queries: tuple[RangeQuery, ...]):
        """Serve one micro-batch; return a report with ``outcomes``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent and race-safe).

        Concurrent callers race on a lock; exactly one runs
        :meth:`_do_close`, the rest return immediately.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._do_close()

    def _do_close(self) -> None:
        """Subclass hook releasing backend resources (called once per
        close/revive cycle)."""

    def is_healthy(self) -> bool:
        """Backend-level liveness (the gateway also tracks its own
        lifecycle view and stops routing to suspected replicas)."""
        return not self._closed

    def revive(self) -> bool:
        """Attempt to restore the backend after a failure.

        Called by the gateway supervisor (on a dispatch thread) before
        the canary check.  The base implementation just reopens intake
        — clears the closed flag and reports backend health;
        subclasses rebuild real backends.  Returns ``True`` when the
        replica is ready to probe.
        """
        with self._close_lock:
            self._closed = False
        return self.is_healthy()


class ShardedReplica(Replica):
    """A replica backed by a started, prepared
    :class:`~repro.serve.sharded.ShardedExecutor` fleet.

    The executor must already be ``start()``-ed and ``prepare()``-d;
    the gateway only sends read batches through it.  A
    :class:`~repro.errors.ShardFailedError` from the fleet (which has
    then torn itself down) triggers gateway failover; the supervisor
    later rebuilds the fleet via
    :meth:`~repro.serve.sharded.ShardedExecutor.restart`.
    """

    serialize_batches = True

    def __init__(self, replica_id: int, executor: "ShardedExecutor"):
        super().__init__(replica_id)
        self.executor = executor

    def run_batch(self, queries: tuple[RangeQuery, ...]):
        """Scatter-gather the batch across the fleet's shards."""
        return self.executor.run(queries)

    def _do_close(self) -> None:
        """Tear the fleet down and reap its worker processes."""
        self.executor.close()

    def is_healthy(self) -> bool:
        """Whether the fleet's worker processes are all alive."""
        return not self._closed and self.executor.healthy

    def revive(self) -> bool:
        """Rebuild the fleet from its on-disk shard stores.

        Respawns the worker processes and replays the last
        ``prepare()`` so the restarted fleet pins the same cut it
        served before; any failure reads as an unsuccessful revive
        (the supervisor will back off and retry).
        """
        try:
            self.executor.restart()
        except Exception:
            return False
        return super().revive()


class BatchReplica(Replica):
    """A replica backed by an in-process thread-pool
    :class:`~repro.serve.batch.BatchExecutor`.

    Useful on single-core hosts where process fleets buy nothing.
    Health is probed for real via
    :attr:`~repro.serve.batch.BatchExecutor.healthy` (cheap store
    metadata, not a query), so the supervisor can notice a store that
    went away underneath the executor; the inherited :meth:`revive`
    succeeds exactly when that store is readable again.

    Args:
        replica_id: dense replica id.
        batch_executor: the executor serving this replica's batches.
        cut_node_ids: cut members pinned for every batch.
    """

    def __init__(
        self,
        replica_id: int,
        batch_executor: "BatchExecutor",
        cut_node_ids: Sequence[int] = (),
    ):
        super().__init__(replica_id)
        self.batch_executor = batch_executor
        self.cut_node_ids = tuple(cut_node_ids)

    def run_batch(self, queries: tuple[RangeQuery, ...]):
        """Run the batch over the shared pool, pinning the cut."""
        return self.batch_executor.run(
            queries, self.cut_node_ids, pin=True
        )

    def is_healthy(self) -> bool:
        """Whether the executor's store still answers metadata reads."""
        return not self._closed and self.batch_executor.healthy


@dataclass(frozen=True)
class GatewayBatchRecord:
    """One dispatched micro-batch, as seen by the gateway.

    The ``explain_analyze``-style row stream for the serving tier:
    which replica answered, how many fleets had to be tried, and the
    backend report whose accounting the tests reconcile byte-exactly.

    Attributes:
        batch_id: dense dispatch counter.
        size: requests in the batch after queued-deadline filtering.
        replica_id: the replica that produced the answers.
        attempts: failed attempts before the answer plus the answering
            one (1 = no failover).
        failed_replica_ids: replicas whose attempt failed before the
            answer, in the order they were tried.
        report: the backend's batch report (``BatchReport`` or
            ``ShardedBatchReport``), carrying outcomes and IO.
    """

    batch_id: int
    size: int
    replica_id: int
    attempts: int
    failed_replica_ids: tuple[int, ...]
    report: Any

    @property
    def failed_over(self) -> bool:
        """Whether this batch needed at least one failover."""
        return bool(self.failed_replica_ids)

    @property
    def hedged(self) -> bool:
        """Always ``False``: the gateway no longer hedges.

        Kept because the repository benchmark (``hcsbench``) reads it
        when it checks and counts retries, and the benchmark does not
        change in the same commit as the code it measures.
        """
        return False


@dataclass
class _PendingRequest:
    """One admitted request waiting for (or riding) a micro-batch."""

    query: RangeQuery
    future: "asyncio.Future[ExecutionResult]"
    enqueued_at: float
    deadline_at: float | None
    deadline_s: float | None
    priority: str
    priority_index: int

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed at ``now``."""
        return self.deadline_at is not None and now >= self.deadline_at


class _PriorityIntake:
    """Per-priority-class FIFO intake with eviction for admission.

    One deque per priority class (most important first); the batcher
    drains the most important non-empty class, and admission may evict
    the *newest* member of the *least* important non-empty class
    strictly below an incoming request.  Runs entirely on the event
    loop — no internal locking needed.
    """

    def __init__(self, num_classes: int):
        self._queues = [deque() for _ in range(num_classes)]
        self._ready = asyncio.Event()

    def qsize(self) -> int:
        """Requests queued across every class."""
        return sum(len(queue) for queue in self._queues)

    def put_nowait(self, request: _PendingRequest) -> None:
        """Enqueue into the request's priority class."""
        self._queues[request.priority_index].append(request)
        self._ready.set()

    def _pop_nowait(self) -> _PendingRequest | None:
        for queue in self._queues:
            if queue:
                request = queue.popleft()
                if not any(self._queues):
                    self._ready.clear()
                return request
        return None

    async def get(self) -> _PendingRequest:
        """Await and return the most important queued request."""
        while True:
            request = self._pop_nowait()
            if request is not None:
                return request
            self._ready.clear()
            await self._ready.wait()

    def evict_lower(
        self, priority_index: int
    ) -> _PendingRequest | None:
        """Evict the newest request of the least important class
        strictly below ``priority_index`` (``None`` when no such
        request is queued)."""
        for cls in range(len(self._queues) - 1, priority_index, -1):
            queue = self._queues[cls]
            if queue:
                request = queue.pop()
                if not any(self._queues):
                    self._ready.clear()
                return request
        return None

    def drain(self) -> list[_PendingRequest]:
        """Remove and return every queued request (shutdown path)."""
        stranded = [
            request for queue in self._queues for request in queue
        ]
        for queue in self._queues:
            queue.clear()
        self._ready.clear()
        return stranded


class _MirroredMetrics(MetricsRegistry):
    """The gateway's own registry, mirrored to the ambient one.

    Every gateway event is recorded here once; each record is also
    forwarded to :func:`~repro.obs.get_metrics`, so a collector
    installed around the gateway sees the same series.
    """

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add to a counter here and in the ambient registry."""
        super().inc(name, value, **labels)
        ambient = get_metrics()
        if ambient is not self:
            ambient.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Fold into a histogram here and in the ambient registry."""
        super().observe(name, value, **labels)
        ambient = get_metrics()
        if ambient is not self:
            ambient.observe(name, value, **labels)


class Gateway:
    """Asyncio front-end coalescing requests into backend micro-batches.

    Lifecycle: construct over one or more :class:`Replica`\\ s, then
    ``async with gateway:`` (or :meth:`start` / :meth:`aclose`).
    Requests enter through :meth:`submit` (in-process) or the
    TCP/JSON-lines listener from :meth:`serve_tcp`; both go through
    the same admission control, batcher, and failover loop.  A
    background supervisor task (enabled whenever
    ``config.max_probe_attempts > 0``) probes suspected replicas and
    re-admits the ones that pass a canary check.

    Args:
        replicas: serving fleets, tried round-robin; at least one.
        config: admission/batching/self-healing knobs (defaults are
            sensible for tests; see ``docs/gateway.md`` for tuning
            guidance).
        close_replicas_on_exit: close every replica in :meth:`aclose`
            (set False when the caller manages replica lifecycle).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        config: GatewayConfig | None = None,
        close_replicas_on_exit: bool = True,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        self._replicas = list(replicas)
        self._config = config or GatewayConfig()
        self._close_replicas = close_replicas_on_exit
        self._intake: _PriorityIntake | None = None
        self._batcher_task: asyncio.Task | None = None
        self._supervisor_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._inflight: asyncio.Semaphore | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._started = False
        # Cross-thread state (dispatch threads mutate these).
        self._lock = threading.Lock()
        self._slots: dict[int, ReplicaSlot] = {
            replica.replica_id: ReplicaSlot(
                replica, deque(maxlen=self._config.breaker_window)
            )
            for replica in self._replicas
        }
        if len(self._slots) != len(self._replicas):
            raise ValueError("replica ids must be unique")
        self._rng = random.Random(self._config.supervisor_seed)
        self._next_replica = 0
        self._trace = TraceCollector(limit=HISTORY_LIMIT)
        self._metrics = _MirroredMetrics()
        self._batch_records: deque[GatewayBatchRecord] = deque(
            maxlen=HISTORY_LIMIT
        )
        self._batch_counter = 0
        self._canary_ref: tuple[RangeQuery, WahBitmap] | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> GatewayConfig:
        """The gateway's admission/batching configuration."""
        return self._config

    @property
    def replicas(self) -> tuple[Replica, ...]:
        """All replicas, whatever their state, in construction order."""
        return tuple(self._replicas)

    @property
    def healthy_replicas(self) -> tuple[Replica, ...]:
        """Replicas in ``ACTIVE`` rotation (batches route here)."""
        with self._lock:
            return tuple(
                slot.replica
                for slot in self._iter_slots()
                if slot.state is ReplicaState.ACTIVE
            )

    def replica_states(self) -> dict[int, str]:
        """Each replica's lifecycle state, keyed by replica id."""
        with self._lock:
            return {
                replica_id: slot.state.value
                for replica_id, slot in sorted(self._slots.items())
            }

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The gateway's deterministic trace stream (batches,
        failovers, sheds, state transitions, probes — no wall-clock
        data): the first :data:`HISTORY_LIMIT` events."""
        with self._lock:
            return tuple(self._trace.events)

    @property
    def batch_records(self) -> tuple[GatewayBatchRecord, ...]:
        """Per-batch dispatch records, in dispatch order (the newest
        :data:`HISTORY_LIMIT`)."""
        with self._lock:
            return tuple(self._batch_records)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a micro-batch slot."""
        return self._intake.qsize() if self._intake is not None else 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The gateway's own registry: every event it recorded,
        whatever ambient registry is installed (request outcomes,
        sheds, failovers, breaker opens, re-admissions, and
        the latency, batch-size and queue-depth histograms)."""
        return self._metrics

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running event loop and start the batcher (and
        the self-healing supervisor, unless re-admission is disabled).
        """
        if self._started:
            raise GatewayError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._intake = _PriorityIntake(
            len(self._config.priority_classes)
        )
        self._inflight = asyncio.Semaphore(
            self._config.max_inflight_batches
        )
        self._batcher_task = asyncio.create_task(
            self._batcher(), name="hcs-gateway-batcher"
        )
        if self._config.max_probe_attempts > 0:
            self._supervisor_task = asyncio.create_task(
                self._supervisor(), name="hcs-gateway-supervisor"
            )
        self._started = True
        self._closed = False

    async def aclose(self) -> None:
        """Stop intake, fail stranded requests, wait for every
        dispatched batch's attempts, and (by default) close every
        replica.  Idempotent.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        for task in (self._batcher_task, self._supervisor_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._batcher_task = None
        self._supervisor_task = None
        # In-flight batches finish (their clients get real answers);
        # requests still queued are stranded and must fail typed.
        if self._dispatch_tasks:
            await asyncio.gather(
                *tuple(self._dispatch_tasks), return_exceptions=True
            )
        assert self._intake is not None
        for request in self._intake.drain():
            if not request.future.done():
                request.future.set_exception(
                    GatewayClosedError(
                        "gateway closed before the request was served"
                    )
                )
        if self._close_replicas:
            for replica in self._replicas:
                try:
                    replica.close()
                except Exception:  # pragma: no cover - best effort
                    pass
        self._started = False

    async def __aenter__(self) -> "Gateway":
        """Start the gateway and return it."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Close the gateway."""
        await self.aclose()

    # ------------------------------------------------------------------
    async def submit(
        self,
        query: RangeQuery,
        deadline_s: float | None = None,
        priority: str | None = None,
    ) -> "ExecutionResult":
        """Submit one range query; await its full-width answer.

        Admission control happens *here*, synchronously: a full queue
        sheds a request with :class:`~repro.errors.OverloadedError`
        before it can touch any batch, preferring to evict queued
        traffic of a strictly lower priority class over refusing the
        incoming request.  The returned result is exactly what the
        backend executor produced (bit-identical to the serial oracle
        by the serving tier's contracts).

        Args:
            query: the range query to answer.
            deadline_s: per-request deadline in seconds (defaults to
                ``config.default_deadline_s``; ``None`` = no deadline).
            priority: priority class name (defaults to
                ``config.default_priority``).

        Raises:
            ValueError: ``priority`` is not a configured class.
            WorkloadError: ``deadline_s`` is not finite and positive.
            OverloadedError: shed at admission (queue full), either
                refused at the door or evicted by higher-priority
                traffic.
            DeadlineExceededError: the deadline expired while queued
                or in flight.
            QueryFailedError: the query itself failed on the backend.
            AllReplicasFailedError: every replica failed the batch.
            GatewayClosedError: the gateway is (or went) closed.
        """
        if not self._started or self._closed:
            raise GatewayClosedError()
        assert self._intake is not None and self._loop is not None
        if priority is None:
            priority = self._config.default_priority
        try:
            priority_index = self._config.priority_classes.index(
                priority
            )
        except ValueError:
            raise ValueError(
                f"unknown priority {priority!r}; configured classes: "
                f"{self._config.priority_classes}"
            ) from None
        if deadline_s is None:
            deadline_s = self._config.default_deadline_s
        elif not (math.isfinite(deadline_s) and deadline_s > 0):
            raise WorkloadError(
                f"deadline_s must be finite and > 0, got {deadline_s!r}"
            )
        depth = self._intake.qsize()
        if depth >= self._config.max_queue_depth:
            victim = self._intake.evict_lower(priority_index)
            if victim is None:
                self._note_shed(query, priority, depth, "refused")
                raise OverloadedError(
                    depth,
                    self._config.max_queue_depth,
                    priority=priority,
                    kind="refused",
                )
            self._note_shed(
                victim.query, victim.priority, depth, "evicted"
            )
            if not victim.future.done():
                victim.future.set_exception(
                    OverloadedError(
                        depth,
                        self._config.max_queue_depth,
                        priority=victim.priority,
                        kind="evicted",
                    )
                )
        now = self._loop.time()
        request = _PendingRequest(
            query=query,
            future=self._loop.create_future(),
            enqueued_at=now,
            deadline_at=(
                now + deadline_s if deadline_s is not None else None
            ),
            deadline_s=deadline_s,
            priority=priority,
            priority_index=priority_index,
        )
        self._intake.put_nowait(request)
        self._metrics.observe("gateway_queue_depth", self._intake.qsize())
        return await request.future

    def _event(self, kind: str, name: str, **attrs: Any) -> None:
        """Emit one trace event (no wall-clock data) under the lock."""
        with self._lock:
            self._trace.emit(kind, name, **attrs)

    def _note_shed(
        self, query: RangeQuery, priority: str, depth: int, kind: str
    ) -> None:
        """Record one shed (refusal or eviction)."""
        self._event(
            "gateway.shed",
            query.label or repr(query),
            queue_depth=depth,
            priority=priority,
            shed=kind,
        )
        self._metrics.inc("gateway_requests_total", status="shed")
        self._metrics.inc(
            "gateway_sheds_total", priority=priority, kind=kind
        )

    # ------------------------------------------------------------------
    async def _batcher(self) -> None:
        """Coalesce queued requests into bounded micro-batches."""
        assert self._intake is not None
        assert self._inflight is not None
        assert self._loop is not None
        config = self._config
        while True:
            batch: list[_PendingRequest] = []
            try:
                batch.append(await self._intake.get())
                flush_at = (
                    self._loop.time() + config.max_batch_delay_s
                )
                while len(batch) < config.max_batch_size:
                    timeout = flush_at - self._loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(
                                self._intake.get(), timeout
                            )
                        )
                    except asyncio.TimeoutError:
                        break
                await self._inflight.acquire()
            except asyncio.CancelledError:
                # aclose() cancelled us: requests already pulled off
                # the queue must fail typed, not hang forever.
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(
                            GatewayClosedError(
                                "gateway closed before the request "
                                "was served"
                            )
                        )
                raise
            live = self._expire_queued(batch)
            if not live:
                # Zero-length flush: every member expired while
                # queued; never bother a backend with it.
                self._inflight.release()
                self._event(
                    "gateway.empty_flush", "batch", expired=len(batch)
                )
                self._metrics.inc("gateway_empty_flushes_total")
                continue
            task = self._loop.create_task(self._serve_batch(live))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_done)

    def _dispatch_done(self, task: asyncio.Task) -> None:
        self._dispatch_tasks.discard(task)
        assert self._inflight is not None
        self._inflight.release()

    def _expire_queued(
        self, batch: list[_PendingRequest]
    ) -> list[_PendingRequest]:
        """Fail queued-expired members; return the live remainder."""
        assert self._loop is not None
        now = self._loop.time()
        live: list[_PendingRequest] = []
        for request in batch:
            if request.expired(now):
                self._event(
                    "gateway.deadline",
                    request.query.label or repr(request.query),
                    phase="queued",
                )
                self._metrics.inc(
                    "gateway_requests_total", status="deadline_queued"
                )
                if not request.future.done():
                    request.future.set_exception(
                        DeadlineExceededError(
                            request.deadline_s or 0.0, "queued"
                        )
                    )
            else:
                live.append(request)
        return live

    def _deliver(
        self,
        batch: list[_PendingRequest],
        report: Any = None,
        error: GatewayError | None = None,
    ) -> None:
        """Resolve a batch's requests from the winning ``report`` (or
        the batch-wide ``error``), enforcing in-flight deadlines."""
        assert self._loop is not None
        now = self._loop.time()
        if error is not None:
            for request in batch:
                self._finish(request, now, error=error)
            return
        for request, outcome in zip(batch, report.outcomes):
            if request.expired(now):
                self._finish(
                    request,
                    now,
                    error=DeadlineExceededError(
                        request.deadline_s or 0.0, "inflight"
                    ),
                )
            elif outcome.error is not None:
                self._finish(request, now, error=outcome.error)
            else:
                self._finish(request, now, result=outcome.result)

    def _finish(
        self,
        request: _PendingRequest,
        now: float,
        result: "ExecutionResult | None" = None,
        error: Exception | None = None,
    ) -> None:
        """Resolve one request's future and record its SLO numbers."""
        if error is None:
            status = "ok"
        elif isinstance(error, DeadlineExceededError):
            status = f"deadline_{error.phase}"
            self._event(
                "gateway.deadline",
                request.query.label or repr(request.query),
                phase=error.phase,
            )
        else:
            status = "failed"
        latency = now - request.enqueued_at
        metrics = self._metrics
        metrics.observe("gateway_request_seconds", latency)
        metrics.observe(
            "gateway_priority_request_seconds",
            latency,
            priority=request.priority,
        )
        metrics.inc("gateway_requests_total", status=status)
        metrics.inc(
            "gateway_priority_requests_total",
            status=status,
            priority=request.priority,
        )
        if request.future.done():  # pragma: no cover - defensive
            return
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(result)

    # ------------------------------------------------------------------
    def _iter_slots(self) -> list[ReplicaSlot]:
        """Slots in construction order (caller holds the lock)."""
        return [
            self._slots[replica.replica_id]
            for replica in self._replicas
        ]

    def _next_candidate(self, tried: Sequence[int]) -> Replica | None:
        """Round-robin pick of an ``ACTIVE`` replica not yet tried
        for the current batch (``None`` when none remain)."""
        with self._lock:
            active = [
                slot.replica
                for slot in self._iter_slots()
                if slot.state is ReplicaState.ACTIVE
                and slot.replica.replica_id not in tried
            ]
            if not active:
                return None
            start = self._next_replica % len(active)
            self._next_replica += 1
        return active[start]

    async def _serve_batch(self, batch: list[_PendingRequest]) -> None:
        """Serve one micro-batch, one replica at a time, and deliver it.

        Each attempt runs the whole batch on the next ``ACTIVE``
        candidate (round-robin among those not yet tried):

        * a raise is a failover: it is counted and traced, suspects its
          replica and joins the batch record, and the next candidate
          is tried;
        * the first report is recorded and delivered, and its replica
          is suspected afterwards if the report opened its breaker.

        When no candidate is left, every request gets
        :class:`~repro.errors.AllReplicasFailedError` listing the
        failed attempts in the order they were tried.
        """
        assert self._loop is not None
        queries = tuple(request.query for request in batch)
        self._metrics.inc("gateway_batches_total")
        self._metrics.observe("gateway_batch_size", len(batch))
        tried: list[int] = []
        failures: list[tuple[int, str, str]] = []
        while (replica := self._next_candidate(tried)) is not None:
            tried.append(replica.replica_id)
            try:
                report = await self._loop.run_in_executor(
                    None, replica.serve_batch, queries
                )
            except Exception as error:
                reason = type(error).__name__
                self._metrics.inc(
                    "gateway_failovers_total", replica=replica.replica_id
                )
                self._event(
                    "gateway.failover",
                    f"replica-{replica.replica_id}",
                    error=reason,
                )
                failures.append((replica.replica_id, reason, str(error)))
                await self._suspect(replica, reason)
                continue
            tripped = self._record_batch(queries, replica, report, failures)
            self._deliver(batch, report)
            if tripped:
                await self._suspect(replica, "breaker")
            return
        self._deliver(
            batch,
            error=AllReplicasFailedError(
                failures or [(-1, "GatewayError", "no healthy replicas")]
            ),
        )

    def _record_batch(
        self,
        queries: tuple[RangeQuery, ...],
        replica: Replica,
        report: Any,
        failures: list[tuple[int, str, str]],
    ) -> bool:
        """Record an answered batch and fold its per-query outcomes
        into the replica's breaker window; returns whether that
        breaker just opened."""
        config = self._config
        with self._lock:
            record = GatewayBatchRecord(
                batch_id=self._batch_counter,
                size=len(queries),
                replica_id=replica.replica_id,
                attempts=len(failures) + 1,
                failed_replica_ids=tuple(
                    replica_id for replica_id, _, _ in failures
                ),
                report=report,
            )
            self._batch_counter += 1
            self._batch_records.append(record)
            self._trace.emit(
                "gateway.batch",
                f"batch-{record.batch_id}",
                size=record.size,
                replica=record.replica_id,
                attempts=record.attempts,
            )
            slot = self._slots[replica.replica_id]
            for query, outcome in zip(queries, report.outcomes):
                ok = outcome.error is None
                slot.outcomes.append(ok)
                if (
                    ok
                    and outcome.result is not None
                    and self._canary_ref is None
                ):
                    self._canary_ref = (query, outcome.result.answer)
            failed = slot.outcomes.count(False)
            tripped = (
                slot.state is ReplicaState.ACTIVE
                and failed >= config.breaker_failures
            )
            if tripped:
                self._trace.emit(
                    "gateway.breaker_open",
                    f"replica-{replica.replica_id}",
                    failures=failed,
                    window=config.breaker_window,
                )
        if tripped:
            self._metrics.inc("gateway_breaker_opens_total")
        return tripped

    # ------------------------------------------------------------------
    def _set_state_locked(
        self, slot: ReplicaSlot, state: ReplicaState, reason: str
    ) -> None:
        """Transition one slot, clearing its breaker window (caller
        holds the gateway lock)."""
        slot.enter(state)
        self._trace.emit(
            "gateway.replica_state",
            f"replica-{slot.replica.replica_id}",
            to=state.value,
            reason=reason,
        )
        self._metrics.inc(
            "gateway_replica_transitions_total", to=state.value
        )

    async def _suspect(self, replica: Replica, reason: str) -> None:
        """Take a replica out of rotation (idempotent) and close its
        backend off the event loop."""
        assert self._loop is not None
        with self._lock:
            slot = self._slots[replica.replica_id]
            if slot.state is not ReplicaState.ACTIVE:
                return
            slot.last_error = reason
            self._set_state_locked(
                slot, ReplicaState.SUSPECTED, reason
            )
            slot.probe_attempts = 0
            if self._config.max_probe_attempts > 0:
                slot.next_probe_at = self._loop.time() + probe_backoff(
                    0,
                    self._config.probe_backoff_base_s,
                    self._config.probe_backoff_max_s,
                    self._config.probe_jitter,
                    self._rng,
                )
            else:
                self._set_state_locked(
                    slot, ReplicaState.DEAD, "re-admission disabled"
                )
        await self._loop.run_in_executor(
            None, self._close_replica, replica
        )

    @staticmethod
    def _close_replica(replica: Replica) -> None:
        try:
            replica.close()
        except Exception:  # pragma: no cover - best-effort reap
            pass

    # ------------------------------------------------------------------
    async def _supervisor(self) -> None:
        """Background self-healing loop: health-scan active replicas,
        probe suspected ones, re-admit canary passers."""
        interval = self._config.supervisor_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                await self._supervise_once()
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except Exception:  # pragma: no cover - must survive
                continue

    async def _supervise_once(self) -> None:
        """One supervisor tick: scan health, run due probes."""
        assert self._loop is not None
        with self._lock:
            active = [
                slot.replica
                for slot in self._iter_slots()
                if slot.state is ReplicaState.ACTIVE
            ]
        for replica in active:
            healthy = await self._loop.run_in_executor(
                None, self._probe_health, replica
            )
            if not healthy:
                await self._suspect(replica, "health-scan")
        now = self._loop.time()
        due: list[ReplicaSlot] = []
        with self._lock:
            for slot in self._iter_slots():
                if (
                    slot.state is ReplicaState.SUSPECTED
                    and now >= slot.next_probe_at
                ):
                    self._set_state_locked(
                        slot, ReplicaState.PROBATION, "probe"
                    )
                    due.append(slot)
        for slot in due:
            await self._probe_slot(slot)

    @staticmethod
    def _probe_health(replica: Replica) -> bool:
        try:
            return bool(replica.is_healthy())
        except Exception:
            return False

    async def _probe_slot(self, slot: ReplicaSlot) -> None:
        """Run one re-admission probe for a slot in ``PROBATION``."""
        assert self._loop is not None
        replica = slot.replica
        passed = await self._loop.run_in_executor(
            None, self._probe_replica_sync, replica
        )
        metrics = self._metrics
        dead = False
        with self._lock:
            if slot.state is not ReplicaState.PROBATION:
                return  # pragma: no cover - raced with shutdown
            if passed:
                attempt = slot.probe_attempts
                slot.probe_attempts = 0
                self._set_state_locked(
                    slot, ReplicaState.ACTIVE, "readmitted"
                )
                self._trace.emit(
                    "gateway.readmit",
                    f"replica-{replica.replica_id}",
                    attempt=attempt,
                )
            else:
                slot.probe_attempts += 1
                if (
                    slot.probe_attempts
                    >= self._config.max_probe_attempts
                ):
                    self._set_state_locked(
                        slot,
                        ReplicaState.DEAD,
                        "probe budget exhausted",
                    )
                    dead = True
                else:
                    self._set_state_locked(
                        slot, ReplicaState.SUSPECTED, "probe failed"
                    )
                    slot.next_probe_at = (
                        self._loop.time()
                        + probe_backoff(
                            slot.probe_attempts,
                            self._config.probe_backoff_base_s,
                            self._config.probe_backoff_max_s,
                            self._config.probe_jitter,
                            self._rng,
                        )
                    )
        if passed:
            metrics.inc("gateway_readmissions_total")
            metrics.inc("gateway_probes_total", outcome="readmitted")
        elif dead:
            metrics.inc("gateway_probes_total", outcome="dead")
            await self._loop.run_in_executor(
                None, self._close_replica, replica
            )
        else:
            metrics.inc("gateway_probes_total", outcome="retry")

    def _canary_expectation(
        self,
    ) -> tuple[RangeQuery, WahBitmap | None] | None:
        """The canary query and (when known) its expected answer.
        ``None`` when no canary is available yet."""
        with self._lock:
            configured = self._config.canary_query
            ref = self._canary_ref
        if configured is not None:
            if ref is not None and ref[0] == configured:
                return configured, ref[1]
            return configured, None
        if ref is not None:
            return ref
        return None

    def _active_peer(self, exclude: int) -> Replica | None:
        """An ``ACTIVE`` replica other than ``exclude`` (canary
        reference source), or ``None``."""
        with self._lock:
            for slot in self._iter_slots():
                if (
                    slot.state is ReplicaState.ACTIVE
                    and slot.replica.replica_id != exclude
                ):
                    return slot.replica
        return None

    def _probe_replica_sync(self, replica: Replica) -> bool:
        """Revive a replica's backend and canary-check it (runs on a
        dispatch thread).

        The canary answer must be bit-identical to the expected answer
        — recorded from live traffic, or replayed on a healthy peer.
        With no reference available (no traffic served yet and no
        peer), a clean canary run is accepted.
        """
        try:
            if not replica.revive():
                return False
            if not replica.is_healthy():
                return False
            canary = self._canary_expectation()
            if canary is None:
                return True
            query, expected = canary
            report = replica.serve_batch((query,))
            outcome = report.outcomes[0]
            if outcome.error is not None or outcome.result is None:
                return False
            if expected is None:
                peer = self._active_peer(exclude=replica.replica_id)
                if peer is None:
                    return True
                peer_report = peer.serve_batch((query,))
                peer_outcome = peer_report.outcomes[0]
                if (
                    peer_outcome.error is not None
                    or peer_outcome.result is None
                ):
                    # The peer's trouble is not the candidate's fault.
                    return True
                expected = peer_outcome.result.answer
            return outcome.result.answer == expected
        except Exception:
            return False

    # ------------------------------------------------------------------
    #: Per-line stream limit for the TCP endpoint.  Asyncio's default
    #: (64 KiB) is too small for a ``"positions": true`` response over
    #: a wide column; clients reading such responses need the same
    #: limit on their side of the socket.
    TCP_LINE_LIMIT = 16 * 1024 * 1024

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Listen for JSON-lines range queries on a TCP socket.

        One request per line::

            {"id": 7, "ranges": [[0, 3], [9, 12]],
             "deadline_s": 0.5, "priority": "high",
             "positions": false}

        One response line per request (requests on a connection are
        served concurrently; responses carry the request ``id``)::

            {"id": 7, "status": "ok", "count": 1234,
             "io_bytes": 5678}
            {"id": 8, "status": "error", "error": "OverloadedError",
             "message": "...",
             "detail": {"kind": "refused", "priority": "low",
                        "queue_depth": 64, "max_queue_depth": 64,
                        "retryable": true}}

        Error responses carry a typed ``detail`` object so clients can
        tell shed from failure: ``OverloadedError`` reports the queue
        state, shed ``kind``, and ``priority``;
        ``DeadlineExceededError`` reports the ``phase`` (queued vs
        inflight) and the deadline; ``AllReplicasFailedError`` lists
        every per-replica attempt; a ``WorkloadError`` (a malformed
        request line, rejected before admission) is not retryable; all
        carry a ``retryable`` hint.

        ``"positions": true`` adds the matching row positions to the
        response (omitted by default — answers over wide columns are
        large).  Request and response lines may be up to
        ``TCP_LINE_LIMIT`` bytes; clients expecting large responses
        should open their connection with the same ``limit``.  The
        returned server is started; callers close it via
        ``server.close()`` / ``await server.wait_closed()``.
        """
        if not self._started or self._closed:
            raise GatewayClosedError(
                "start the gateway before serving TCP"
            )
        return await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=self.TCP_LINE_LIMIT,
        )

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection, pipelining its requests.

        A line longer than ``TCP_LINE_LIMIT`` ends the connection: the
        requests already read are answered, then one typed
        ``WorkloadError`` line with ``"id": null``, because the rest of
        the oversized line cannot be re-framed.
        """
        self._metrics.inc("gateway_connections_total")
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        oversized: WorkloadError | None = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # asyncio's limit overrun ("chunk is longer than
                    # limit"), raised by readline as ValueError.
                    oversized = WorkloadError(
                        f"request line longer than {self.TCP_LINE_LIMIT} "
                        "bytes"
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                task = asyncio.ensure_future(
                    self._handle_request_line(
                        text, writer, write_lock
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if oversized is not None:
                await self._write_response(
                    writer, write_lock, self._error_response(None, oversized)
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    def _error_response(request_id: Any, exc: Exception) -> dict:
        """Build a typed JSON error response for the TCP endpoint."""
        response: dict[str, Any] = {
            "id": request_id,
            "status": "error",
            "error": type(exc).__name__,
            "message": str(exc),
        }
        detail: dict[str, Any] = {}
        if isinstance(exc, OverloadedError):
            detail = {
                "kind": exc.kind,
                "priority": exc.priority,
                "queue_depth": exc.queue_depth,
                "max_queue_depth": exc.max_queue_depth,
                "retryable": True,
            }
        elif isinstance(exc, DeadlineExceededError):
            detail = {
                "phase": exc.phase,
                "deadline_s": exc.deadline_s,
                "retryable": True,
            }
        elif isinstance(exc, AllReplicasFailedError):
            detail = {
                "attempts": [
                    [replica_id, error_type, message]
                    for replica_id, error_type, message in exc.attempts
                ],
                "retryable": False,
            }
        elif isinstance(exc, QueryFailedError):
            detail = {
                "query_index": exc.query_index,
                "error_type": exc.error_type,
                "shard_id": exc.shard_id,
                "retryable": False,
            }
        elif isinstance(exc, (GatewayClosedError, WorkloadError)):
            detail = {"retryable": False}
        if detail:
            response["detail"] = detail
        return response

    async def _handle_request_line(
        self,
        text: str,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Parse, serve, and answer one JSON-lines request."""
        request_id: Any = None
        try:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"request is not JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise WorkloadError("request must be a JSON object")
            request_id = payload.get("id")
            query, deadline_s, priority = self._parse_request(payload)
            result = await self.submit(
                query, deadline_s=deadline_s, priority=priority
            )
            response: dict[str, Any] = {
                "id": request_id,
                "status": "ok",
                "count": result.answer.count(),
                "io_bytes": result.io_bytes,
            }
            if payload.get("positions"):
                response["positions"] = [
                    int(position)
                    for position in result.answer.to_positions()
                ]
        except Exception as exc:
            response = self._error_response(request_id, exc)
        await self._write_response(writer, write_lock, response)

    def _parse_request(
        self, payload: dict
    ) -> tuple[RangeQuery, float | None, str | None]:
        """The query, deadline and priority of one TCP request.

        Raises :class:`~repro.errors.WorkloadError` unless ``ranges``
        is a list of ``[lo, hi]`` integer pairs, ``deadline_s`` (when
        given) is a number and ``priority`` (when given) is a
        configured class, so a malformed request is refused before
        admission.  :meth:`submit` checks that the deadline is finite
        and positive.
        """
        ranges = payload.get("ranges")
        if not isinstance(ranges, list) or not all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(type(bound) is int for bound in pair)
            for pair in ranges
        ):
            raise WorkloadError(
                "ranges must be a list of [lo, hi] integer pairs"
            )
        query = RangeQuery(
            [tuple(pair) for pair in ranges],
            label=str(payload.get("label", "")),
        )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and type(deadline_s) not in (int, float):
            raise WorkloadError(
                f"deadline_s must be a number, got {deadline_s!r}"
            )
        priority = payload.get("priority")
        if (
            priority is not None
            and priority not in self._config.priority_classes
        ):
            raise WorkloadError(
                f"unknown priority {priority!r}; configured classes: "
                f"{self._config.priority_classes}"
            )
        return query, deadline_s, priority

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict,
    ) -> None:
        """Write one JSON response line, whole, to the connection."""
        data = (
            json.dumps(response, sort_keys=True) + "\n"
        ).encode("utf-8")
        async with write_lock:
            writer.write(data)
            await writer.drain()

    def __repr__(self) -> str:
        healthy = len(self.healthy_replicas)
        return (
            f"Gateway(replicas={len(self._replicas)} "
            f"({healthy} healthy), started={self._started}, "
            f"closed={self._closed})"
        )
