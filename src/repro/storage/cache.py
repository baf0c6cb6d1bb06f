"""Memory-budgeted buffer pool over the bitmap file store.

Implements the caching semantics the paper's three cases assume:

* **Case 1/2 (no memory constraint)** — an unbounded pool: every bitmap
  is read from storage at most once and then served from memory (Eq. 3).
* **Case 3 (budget ``S_total``)** — the selected cut is *pinned* (read
  once, kept for the whole workload); everything else is streamed, i.e.
  read from storage on every access, because "the operation nodes that
  are not in the cut cannot be cached in memory for re-use" (§2.3.4).
  So a budgeted pool's measured bytes equal the Case-3 prediction
  (Eq. 4).

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
* every resident copy is stamped with the store file it was read from
  (:meth:`~repro.storage.filestore.BitmapFileStore.physical_name`) and
  served only while that is still the store's current file.  A durable
  store commits every build under new file names, so a copy of a file
  it replaced (a folded base, a rebuilt index) is a miss: re-read,
  charged like any read, and replaced in place, keeping its pin when
  it fits the budget;
* :meth:`attributing` charges the calling thread's fetches to an extra
  per-query accountant, which is how per-query IO stays exactly
  attributable when many queries share one pool (the sum of per-query
  accountants plus the pin phase reconciles with the shared accountant
  to the byte).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import NamedTuple

from ..errors import BudgetExceededError, TransientStorageError
from ..obs import get_metrics, record
from .accounting import IOAccountant
from .faults import DEFAULT_RETRY_POLICY, RetryPolicy
from .filestore import BitmapFileStore

__all__ = ["BufferPool"]


class _Copy(NamedTuple):
    """One resident payload and the store file it was read from."""

    stamp: str
    payload: bytes


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
    docstring for the locking, single-flight, file-identity, and
    attribution design.

    Args:
        store: the backing file store.
        accountant: receives a record for every fetch that actually hits
            storage (cache hits are free).
        budget_bytes: total memory budget; ``None`` means unbounded
            (the no-memory-constraint cases, where every read is kept
            in the LRU area).  With a budget, only pinned files stay
            resident and every other read is streamed.
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
        retry_policy: RetryPolicy | None = None,
    ):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        self._store = store
        self._accountant = accountant or IOAccountant()
        self._budget = budget_bytes
        self._retry = retry_policy or DEFAULT_RETRY_POLICY
        self._pinned: dict[str, _Copy] = {}
        self._pinned_bytes = 0
        self._lru: dict[str, _Copy] = {}
        self._lru_bytes = 0
        # Reentrant: clear() drops both tiers under one critical
        # section by calling unpin_all() with the lock already held.
        self._lock = threading.RLock()
        # Keyed by (name, stamp): a fetch of a replaced file never
        # serves a requester of its successor.
        self._inflight: dict[tuple[str, str], _Flight] = {}
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
        """Bytes currently held by the LRU area (always 0 when a
        budget is set)."""
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

    def _join_or_fetch(self, name: str, stamp: str) -> bytes:
        """Fetch ``name`` with single-flight deduplication.

        The first thread to request a non-resident copy of the file
        ``stamp`` becomes the *leader*: it performs the storage read
        (charged to its attributed accountants) and publishes the
        payload.  Concurrent requesters of the same file wait on the
        leader's flight and share the result without touching storage
        — so a burst of misses on one bitmap costs exactly one read.
        A leader error propagates to every waiter (the pool already
        retried transients; re-asking storage immediately would fail
        the same way).
        """
        key = (name, stamp)
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
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
            self._retire_flight(key, flight)
            flight.event.set()
            raise
        flight.payload = payload
        self._retire_flight(key, flight)
        flight.event.set()
        return payload

    def _retire_flight(self, key: tuple[str, str], flight: _Flight) -> None:
        """Remove a completed flight — only if it is still the one
        registered.

        :meth:`invalidate` may have already dropped it (quarantine of
        the file mid-fetch) and a successor flight may have taken the
        slot; popping unconditionally would cancel that unrelated
        fetch's deduplication.
        """
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]

    def _drop_flights(self, name: str) -> None:
        """Forget every in-flight fetch of ``name`` (caller holds the
        lock); their leaders still complete for their own waiters."""
        for key in [key for key in self._inflight if key[0] == name]:
            del self._inflight[key]

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
        read, or a backend whose ``size_bytes`` is an estimate).  A
        name already pinned stays as it is: :meth:`get` re-reads it
        if the store has replaced its file since.
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
                    self._store.size_bytes(name) for name in to_pin
                )
                if self._pinned_bytes + projected > self._budget:
                    raise BudgetExceededError(
                        self._pinned_bytes + projected, self._budget
                    )
        # Stage every payload before touching the resident set, so an
        # error (storage or budget) commits nothing.  Fetches go
        # through the single-flight path: a concurrent pin or get of
        # the same file shares one storage read.
        staged: dict[str, _Copy] = {}
        for name in to_pin:
            stamp = self._store.physical_name(name)
            with self._lock:
                if name in self._pinned:
                    continue  # a concurrent pin() won the race
                copy = self._lru.get(name)
                if copy is not None and copy.stamp == stamp:
                    staged[name] = copy
                    continue
            staged[name] = _Copy(stamp, self._join_or_fetch(name, stamp))
        with self._lock:
            fresh = {
                name: copy
                for name, copy in staged.items()
                if name not in self._pinned
            }
            if self._budget is not None:
                additional = sum(
                    len(copy.payload) for copy in fresh.values()
                )
                if self._pinned_bytes + additional > self._budget:
                    raise BudgetExceededError(
                        self._pinned_bytes + additional, self._budget
                    )
            for name, copy in fresh.items():
                dropped = self._lru.pop(name, None)
                if dropped is not None:
                    self._lru_bytes -= len(dropped.payload)
                self._pinned[name] = copy
                self._pinned_bytes += len(copy.payload)
                record("cache.pin", name, nbytes=len(copy.payload))
            get_metrics().inc("cache_pins_total", len(fresh))

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

        A resident copy is served from memory while the store still
        maps ``name`` to the file it was read from; anything else is
        fetched from storage, charged to the accountant, and kept by
        :meth:`_install`.  Concurrent misses on the same file share
        one storage read (single-flight); only the thread that
        performs the read is charged.
        """
        metrics = get_metrics()
        stamp = self._store.physical_name(name)
        with self._lock:
            tier = "pinned"
            copy = self._pinned.get(name)
            if copy is None:
                tier = "lru"
                copy = self._lru.get(name)
            if copy is not None and copy.stamp == stamp:
                record("cache.hit", name, tier=tier)
                metrics.inc("cache_hits_total", tier=tier)
                return copy.payload
        record("cache.miss", name)
        metrics.inc("cache_misses_total")
        payload = self._join_or_fetch(name, stamp)
        with self._lock:
            self._install(name, stamp, payload)
        return payload

    def _install(self, name: str, stamp: str, payload: bytes) -> None:
        """Keep a payload just read from storage (caller holds the
        lock).

        A pinned name takes the new copy in place and stays pinned
        when it fits the budget (a compaction's folded base is larger
        than the copy it replaces); otherwise it is unpinned.  Any
        other read is kept in the LRU area only by an unbounded pool
        (Case 1/2); a budgeted one streams it (Case 3).
        """
        size = len(payload)
        budget = self._budget
        pinned = self._pinned.pop(name, None)
        if pinned is not None:
            self._pinned_bytes -= len(pinned.payload)
            if budget is None or self._pinned_bytes + size <= budget:
                self._pinned[name] = _Copy(stamp, payload)
                self._pinned_bytes += size
                return
            record("cache.invalidate", name, tier="pinned")
            get_metrics().inc("cache_invalidations_total", tier="pinned")
        if budget is None:
            dropped = self._lru.pop(name, None)
            if dropped is not None:
                self._lru_bytes -= len(dropped.payload)
            self._lru[name] = _Copy(stamp, payload)
            self._lru_bytes += size

    def invalidate(self, name: str) -> bool:
        """Drop a cached copy (pinned or LRU); returns whether it was
        pinned.

        Used when a resident payload turns out to be corrupt — the next
        :meth:`get` re-fetches from storage — and to release the files
        of a delta generation a compaction retired.  Each actual drop
        counts toward ``cache_invalidations_total`` (labelled by tier)
        so EXPLAIN ANALYZE's warm/cold classification stays truthful
        after corruption recovery.

        Any in-flight single-flight fetch of the name is also
        forgotten: when a scrubber quarantines a file, a concurrent
        leader may be mid-read of the condemned bytes, and later
        requesters must not join that flight and inherit them.  The
        abandoned leader still completes (its waiters get its result),
        but it no longer publishes into the pool's dedup table.
        """
        metrics = get_metrics()
        with self._lock:
            self._drop_flights(name)
            if name in self._pinned:
                self._pinned_bytes -= len(self._pinned.pop(name).payload)
                record("cache.invalidate", name, tier="pinned")
                metrics.inc("cache_invalidations_total", tier="pinned")
                return True
            if name in self._lru:
                self._lru_bytes -= len(self._lru.pop(name).payload)
                record("cache.invalidate", name, tier="lru")
                metrics.inc("cache_invalidations_total", tier="lru")
            return False

    def reload(self, name: str) -> bytes:
        """Force a fresh fetch from storage, replacing any cached copy.

        The new payload is kept under :meth:`_install`'s rules, so a
        pinned file stays pinned when it fits the budget.  The fetch
        is charged to the accountant like any storage read.
        Deliberately *not* single-flight deduplicated, and it forgets
        every in-flight fetch of the name: a reload exists to replace
        a payload that just failed validation, so it must not be
        satisfied by an in-flight read that may be the same bad bytes.
        """
        stamp = self._store.physical_name(name)
        with self._lock:
            self._drop_flights(name)
        payload = self._fetch(name)
        with self._lock:
            self._install(name, stamp, payload)
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

    def __repr__(self) -> str:
        budget = (
            "unbounded" if self._budget is None else f"{self._budget}B"
        )
        return (
            f"BufferPool(budget={budget}, pinned={len(self._pinned)}, "
            f"lru={len(self._lru)})"
        )
