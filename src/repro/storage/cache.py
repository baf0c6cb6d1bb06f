"""Memory-budgeted buffer pool over the bitmap file store.

Implements the caching semantics the paper's three cases assume:

* **Case 1/2 (no memory constraint)** — an unbounded pool: every bitmap
  is read from storage at most once and then served from memory (Eq. 3).
* **Case 3 (budget ``S_total``)** — the selected cut is *pinned* (read
  once, kept for the whole workload); everything else is streamed, i.e.
  read from storage on every access, because "the operation nodes that
  are not in the cut cannot be cached in memory for re-use" (§2.3.4).

A small LRU overflow area can optionally use whatever budget the pinned
set leaves free — disabled by default to match the paper's accounting.

The pool is **thread-safe** and built for the concurrent serving layer
(:mod:`repro.serve`):

* one lock protects the resident set, so the budget/eviction invariants
  (``resident_bytes <= budget_bytes``, atomic all-or-nothing pinning)
  hold under any interleaving of ``pin``/``get``/``invalidate``/
  ``reload``;
* concurrent misses on the same file are **single-flight deduplicated**:
  one thread performs (and is charged for) the storage read, every
  other requester waits and shares the payload — concurrent IO never
  exceeds what a serial run would have read;
* :meth:`attributing` charges the calling thread's fetches to an extra
  per-query accountant, which is how per-query IO stays exactly
  attributable when many queries share one pool (the sum of per-query
  accountants plus the pin phase reconciles with the shared accountant
  to the byte).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from ..errors import (
    BudgetExceededError,
    StorageError,
    TransientStorageError,
)
from ..obs import get_metrics, record
from .accounting import IOAccountant
from .faults import DEFAULT_RETRY_POLICY, RetryPolicy
from .filestore import BitmapFileStore

__all__ = ["BufferPool"]


def _node_group_key(name: str) -> int | None:
    """The hierarchy node a cached file name belongs to, if any.

    Base files (``node_<id>.wah``) and delta files
    (``delta_<seq>-node_<id>.wah``) of the same node form one
    *coherence group*: after a compaction folds deltas into a new
    base, a stale base payload and a stale delta payload are equally
    poisonous, so :meth:`BufferPool.invalidate` drops the whole group
    together.  Names outside both schemes group as ``None`` and are
    invalidated individually.
    """
    from .catalog import node_id_from_file_name
    from .manifest import parse_delta_file_name

    node_id = node_id_from_file_name(name)
    if node_id is not None:
        return node_id
    parsed = parse_delta_file_name(name)
    if parsed is not None:
        return parsed[1]
    return None


class _Flight:
    """One in-flight storage fetch, shared by concurrent requesters.

    The leader (the thread that created the flight) performs the fetch
    and publishes either ``payload`` or ``error`` before setting the
    event; waiters block on the event and take whichever was published.
    """

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: bytes | None = None
        self.error: Exception | None = None


class BufferPool:
    """Caches bitmap files read from a :class:`BitmapFileStore`.

    Safe for concurrent use by many query workers; see the module
    docstring for the locking, single-flight, and attribution design.

    Args:
        store: the backing file store.
        accountant: receives a record for every fetch that actually hits
            storage (cache hits are free).
        budget_bytes: total memory budget; ``None`` means unbounded
            (the no-memory-constraint cases).
        use_spare_budget_lru: when true, unpinned reads may occupy
            leftover budget in an LRU area instead of being streamed.
        retry_policy: how transient storage failures are retried before
            propagating; defaults to a few immediate retries
            (:data:`~repro.storage.faults.DEFAULT_RETRY_POLICY`).  Pass
            ``RetryPolicy(max_attempts=1)`` to disable.
    """

    def __init__(
        self,
        store: BitmapFileStore,
        accountant: IOAccountant | None = None,
        budget_bytes: int | None = None,
        use_spare_budget_lru: bool = False,
        retry_policy: RetryPolicy | None = None,
    ):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        self._store = store
        self._accountant = accountant or IOAccountant()
        self._budget = budget_bytes
        self._use_spare_lru = use_spare_budget_lru
        self._retry = retry_policy or DEFAULT_RETRY_POLICY
        self._pinned: dict[str, bytes] = {}
        self._pinned_bytes = 0
        self._lru: OrderedDict[str, bytes] = OrderedDict()
        self._lru_bytes = 0
        # Reentrant: clear() drops both tiers under one critical
        # section by calling unpin_all() with the lock already held.
        self._lock = threading.RLock()
        self._inflight: dict[str, _Flight] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    @property
    def accountant(self) -> IOAccountant:
        """The IO accountant recording storage fetches."""
        return self._accountant

    @property
    def budget_bytes(self) -> int | None:
        """Total memory budget (``None`` = unbounded)."""
        return self._budget

    @property
    def pinned_bytes(self) -> int:
        """Bytes currently held by pinned files."""
        return self._pinned_bytes

    @property
    def lru_bytes(self) -> int:
        """Bytes currently held by the LRU overflow area."""
        return self._lru_bytes

    @property
    def resident_bytes(self) -> int:
        """Total bytes resident in memory (pinned + LRU).

        Never exceeds ``budget_bytes`` when a budget is set (the
        Case-3 ``S_total`` constraint, §2.3.4).
        """
        with self._lock:
            return self._pinned_bytes + self._lru_bytes

    @property
    def cached_names(self) -> set[str]:
        """Names currently resident in memory (pinned or LRU)."""
        with self._lock:
            return set(self._pinned) | set(self._lru)

    @property
    def retry_policy(self) -> RetryPolicy:
        """How transient storage failures are retried."""
        return self._retry

    # ------------------------------------------------------------------
    # Per-thread IO attribution.
    def _attributed(self) -> tuple[IOAccountant, ...]:
        return tuple(getattr(self._local, "accountants", ()))

    @contextmanager
    def attributing(
        self, accountant: IOAccountant
    ) -> Iterator[IOAccountant]:
        """Also charge this thread's fetches to ``accountant``.

        Every storage read, retry, and discard performed by the calling
        thread inside the block is recorded to the shared pool
        accountant *and* to ``accountant`` — other threads' IO is not.
        This is how the batch executor attributes IO to individual
        queries running concurrently over one pool: a fetch performed
        on behalf of a single-flight *leader* is charged to that
        leader's query; waiters sharing the payload are charged
        nothing, exactly like a cache hit.

        Nests: an inner ``attributing`` block charges both accountants.
        """
        stack = getattr(self._local, "accountants", None)
        if stack is None:
            stack = []
            self._local.accountants = stack
        stack.append(accountant)
        try:
            yield accountant
        finally:
            stack.pop()

    def record_discard(self, name: str, nbytes: int) -> None:
        """Charge a discarded (checksum-failed) payload to the shared
        accountant and to the calling thread's attributed accountants.

        The executor reports discards through the pool rather than the
        shared accountant directly so wasted IO lands in the same
        per-query ledger as the read that produced it.
        """
        self._accountant.record_discard(name, nbytes)
        for local in self._attributed():
            local.record_discard(name, nbytes)

    # ------------------------------------------------------------------
    def _fetch(self, name: str) -> bytes:
        last_error: TransientStorageError | None = None
        metrics = get_metrics()
        locals_ = self._attributed()
        for _attempt in self._retry.attempts():
            try:
                payload = self._store.read(name)
            except TransientStorageError as err:
                last_error = err
                self._accountant.record_retry(name)
                for local in locals_:
                    local.record_retry(name)
                record("storage.retry", name, error=str(err))
                metrics.inc("storage_retries_total")
                continue
            self._accountant.record_read(name, len(payload))
            for local in locals_:
                local.record_read(name, len(payload))
            record("storage.read", name, nbytes=len(payload))
            metrics.inc("storage_reads_total")
            metrics.inc("storage_read_bytes_total", len(payload))
            return payload
        assert last_error is not None
        record("storage.error", name, error=str(last_error))
        metrics.inc("storage_errors_total")
        raise last_error

    def _join_or_fetch(self, name: str) -> bytes:
        """Fetch ``name`` with single-flight deduplication.

        The first thread to request a non-resident name becomes the
        *leader*: it performs the storage read (charged to its
        attributed accountants) and publishes the payload.  Concurrent
        requesters wait on the leader's flight and share the result
        without touching storage — so a burst of misses on one bitmap
        costs exactly one read.  A leader error propagates to every
        waiter (the pool already retried transients; re-asking storage
        immediately would fail the same way).
        """
        with self._lock:
            flight = self._inflight.get(name)
            if flight is None:
                flight = _Flight()
                self._inflight[name] = flight
                leader = True
            else:
                leader = False
        if not leader:
            record("cache.wait", name)
            get_metrics().inc("cache_singleflight_waits_total")
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.payload is not None
            return flight.payload
        try:
            payload = self._fetch(name)
        except Exception as err:
            flight.error = err
            self._retire_flight(name, flight)
            flight.event.set()
            raise
        flight.payload = payload
        self._retire_flight(name, flight)
        flight.event.set()
        return payload

    def _retire_flight(self, name: str, flight: _Flight) -> None:
        """Remove a completed flight — only if it is still the one
        registered.

        :meth:`invalidate` may have already dropped it (quarantine of
        the file mid-fetch) and a successor flight may have taken the
        slot; popping unconditionally would cancel that unrelated
        fetch's deduplication.
        """
        with self._lock:
            if self._inflight.get(name) is flight:
                del self._inflight[name]

    # ------------------------------------------------------------------
    def pin(self, names: Iterable[str]) -> None:
        """Read the given files once and keep them resident.

        This is how a selected cut is installed before running a
        workload.  Raises :class:`BudgetExceededError` if the pinned
        working set would not fit the budget; no partial pinning happens
        in that case.

        Duplicate names in ``names`` are deduplicated (first occurrence
        wins) so a repeated member costs one read, one budget charge,
        and one pin.  The budget is checked twice: against the store's
        reported sizes before any IO (fail fast without reading), and
        against the *actual* payload sizes before committing — so
        ``resident_bytes <= budget_bytes`` is an invariant even when a
        stored size disagrees with what the read returns (e.g. a torn
        read, or a backend whose ``size_bytes`` is an estimate).
        """
        with self._lock:
            to_pin = [
                name
                for name in dict.fromkeys(names)
                if name not in self._pinned
            ]
            if not to_pin:
                return
            if self._budget is not None:
                projected = sum(
                    len(self._lru[name])
                    if name in self._lru
                    else self._store.size_bytes(name)
                    for name in to_pin
                )
                if self._pinned_bytes + projected > self._budget:
                    raise BudgetExceededError(
                        self._pinned_bytes + projected, self._budget
                    )
        # Stage every payload before touching the resident set, so an
        # error (storage or budget) commits nothing.  Fetches go
        # through the single-flight path: a concurrent pin or get of
        # the same name shares one storage read.
        staged: dict[str, bytes] = {}
        for name in to_pin:
            with self._lock:
                if name in self._pinned:
                    continue  # a concurrent pin() won the race
                if name in self._lru:
                    staged[name] = self._lru[name]
                    continue
            staged[name] = self._join_or_fetch(name)
        with self._lock:
            fresh = {
                name: payload
                for name, payload in staged.items()
                if name not in self._pinned
            }
            if self._budget is not None:
                additional = sum(
                    len(payload) for payload in fresh.values()
                )
                if self._pinned_bytes + additional > self._budget:
                    raise BudgetExceededError(
                        self._pinned_bytes + additional, self._budget
                    )
            for name, payload in fresh.items():
                if name in self._lru:
                    dropped = self._lru.pop(name)
                    self._lru_bytes -= len(dropped)
                self._pinned[name] = payload
                self._pinned_bytes += len(payload)
                record("cache.pin", name, nbytes=len(payload))
            get_metrics().inc("cache_pins_total", len(fresh))
            # Pinning shrinks the spare budget the LRU area may occupy;
            # evict until pinned + LRU fits the budget again, or the
            # resident set would violate the Case-3 S_total constraint.
            self._shrink_lru_to_spare()

    def _shrink_lru_to_spare(self) -> None:
        # Caller holds the lock.
        if self._budget is None:
            return
        spare = self._budget - self._pinned_bytes
        while self._lru and self._lru_bytes > spare:
            evicted_name, evicted = self._lru.popitem(last=False)
            self._lru_bytes -= len(evicted)
            record("cache.evict", evicted_name, nbytes=len(evicted))
            get_metrics().inc("cache_evictions_total")

    def unpin_all(self) -> None:
        """Release every pinned file (contents are dropped)."""
        with self._lock:
            if self._pinned:
                record(
                    "cache.clear",
                    "pinned",
                    files=len(self._pinned),
                    nbytes=self._pinned_bytes,
                )
                get_metrics().inc(
                    "cache_invalidations_total",
                    len(self._pinned),
                    tier="pinned",
                )
            self._pinned.clear()
            self._pinned_bytes = 0

    def get(self, name: str) -> bytes:
        """Fetch a file through the pool.

        Pinned files and (if enabled) LRU-resident files are served from
        memory; everything else is fetched from storage and charged to
        the accountant.  Concurrent misses on the same name share one
        storage read (single-flight); only the thread that performs the
        read is charged.
        """
        metrics = get_metrics()
        with self._lock:
            if name in self._pinned:
                record("cache.hit", name, tier="pinned")
                metrics.inc("cache_hits_total", tier="pinned")
                return self._pinned[name]
            if name in self._lru:
                self._lru.move_to_end(name)
                record("cache.hit", name, tier="lru")
                metrics.inc("cache_hits_total", tier="lru")
                return self._lru[name]
        record("cache.miss", name)
        metrics.inc("cache_misses_total")
        payload = self._join_or_fetch(name)
        with self._lock:
            self._maybe_admit(name, payload)
        return payload

    def _maybe_admit(self, name: str, payload: bytes) -> None:
        # Caller holds the lock.
        if name in self._pinned:
            return
        if self._budget is None:
            # Unconstrained: cache everything (Case 1/2 semantics).
            if name in self._lru:
                return
            self._lru[name] = payload
            self._lru_bytes += len(payload)
            return
        if not self._use_spare_lru:
            return
        if name in self._lru:
            return
        spare = self._budget - self._pinned_bytes
        if len(payload) > spare:
            return
        while self._lru_bytes + len(payload) > spare and self._lru:
            evicted_name, evicted = self._lru.popitem(last=False)
            self._lru_bytes -= len(evicted)
            record("cache.evict", evicted_name, nbytes=len(evicted))
            get_metrics().inc("cache_evictions_total")
        if self._lru_bytes + len(payload) <= spare:
            self._lru[name] = payload
            self._lru_bytes += len(payload)

    def invalidate(self, name: str) -> bool:
        """Drop a cached copy (pinned or LRU); returns whether it was
        pinned.

        Used when a resident payload turns out to be corrupt — the next
        :meth:`get` re-fetches from storage.  Each actual drop counts
        toward ``cache_invalidations_total`` (labelled by tier) so
        EXPLAIN ANALYZE's warm/cold classification stays truthful after
        corruption recovery.

        Any in-flight single-flight fetch of the name is also
        forgotten: when a scrubber quarantines a file, a concurrent
        leader may be mid-read of the condemned bytes, and later
        requesters must not join that flight and inherit them.  The
        abandoned leader still completes (its waiters get its result),
        but it no longer publishes into the pool's dedup table.

        Invalidation is *node-coherent*: dropping a node's base
        payload also drops any resident delta payloads of the same
        node (and vice versa), along with their in-flight fetches.
        After a compaction replaces base + deltas with a new base in
        one atomic commit, there is no sequence of per-name
        invalidations that could otherwise prevent a reader from
        pairing the fresh base with a stale cached delta.  The return
        value reports the *named* entry's pinned status only.
        """
        metrics = get_metrics()
        with self._lock:
            targets = [name]
            group = _node_group_key(name)
            if group is not None:
                targets.extend(
                    other
                    for other in (
                        set(self._pinned)
                        | set(self._lru)
                        | set(self._inflight)
                    )
                    if other != name
                    and _node_group_key(other) == group
                )
            was_pinned = False
            for target in targets:
                self._inflight.pop(target, None)
                if target in self._pinned:
                    payload = self._pinned.pop(target)
                    self._pinned_bytes -= len(payload)
                    if target == name:
                        was_pinned = True
                    record(
                        "cache.invalidate", target, tier="pinned"
                    )
                    metrics.inc(
                        "cache_invalidations_total", tier="pinned"
                    )
                elif target in self._lru:
                    payload = self._lru.pop(target)
                    self._lru_bytes -= len(payload)
                    record("cache.invalidate", target, tier="lru")
                    metrics.inc(
                        "cache_invalidations_total", tier="lru"
                    )
            return was_pinned

    def reload(self, name: str) -> bytes:
        """Force a fresh fetch from storage, replacing any cached copy.

        A previously pinned file stays pinned with the new payload
        when that fits the budget (a compaction's folded base is
        larger than the copy it replaces); otherwise, and for an
        unpinned file, it is admitted under the normal policy.  The
        fetch is charged to the accountant like any storage read.
        Deliberately *not* single-flight deduplicated: a reload exists
        to replace a payload that just failed validation, so it must
        not be satisfied by an in-flight read that may be the same
        stale bytes.
        """
        was_pinned = self.invalidate(name)
        payload = self._fetch(name)
        with self._lock:
            if was_pinned and (
                self._budget is None
                or self._pinned_bytes + len(payload) <= self._budget
            ):
                self._pinned[name] = payload
                self._pinned_bytes += len(payload)
                self._shrink_lru_to_spare()
            else:
                self._maybe_admit(name, payload)
        return payload

    def contains(self, name: str) -> bool:
        """Whether a file is currently resident in memory."""
        with self._lock:
            return name in self._pinned or name in self._lru

    def clear(self) -> None:
        """Drop all cached content, pinned and unpinned."""
        with self._lock:
            self.unpin_all()
            if self._lru:
                record(
                    "cache.clear",
                    "lru",
                    files=len(self._lru),
                    nbytes=self._lru_bytes,
                )
                get_metrics().inc(
                    "cache_invalidations_total",
                    len(self._lru),
                    tier="lru",
                )
            self._lru.clear()
            self._lru_bytes = 0

    def verify_store_has(self, names: Iterable[str]) -> None:
        """Raise :class:`StorageError` unless every name exists."""
        missing = [
            name for name in names if not self._store.exists(name)
        ]
        if missing:
            raise StorageError(
                f"bitmap files missing from store: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )

    def __repr__(self) -> str:
        budget = (
            "unbounded" if self._budget is None else f"{self._budget}B"
        )
        return (
            f"BufferPool(budget={budget}, pinned={len(self._pinned)}, "
            f"lru={len(self._lru)})"
        )
