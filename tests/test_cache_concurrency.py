"""Concurrency tests for the thread-safe buffer pool.

Three layers:

* deterministic single-flight tests using a store whose reads block on
  an event, so the test controls exactly when the in-flight window is
  open;
* a hypothesis property test interleaving ``pin`` / ``get`` /
  ``invalidate`` / ``reload`` / ``unpin_all`` / ``clear`` and checking
  the budget invariant after every operation;
* ``stress``-marked hammer tests that run real thread traffic under a
  1µs switch interval (see the autouse fixture in ``conftest.py``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, StorageReadError
from repro.obs import collecting_metrics
from repro.storage.accounting import IOAccountant
from repro.storage.cache import BufferPool
from repro.storage.filestore import BitmapFileStore

NAMES = [f"node_{index}.wah" for index in range(5)]
SIZES = {name: 100 * (index + 1) for index, name in enumerate(NAMES)}


def _fresh_store() -> BitmapFileStore:
    store = BitmapFileStore()
    for name, size in SIZES.items():
        store.write(name, bytes(size))
    return store


class _BlockingStore(BitmapFileStore):
    """A store whose reads block until the test releases them."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()
        self.read_calls = 0
        self._count_lock = threading.Lock()

    def read(self, name: str) -> bytes:
        with self._count_lock:
            self.read_calls += 1
        self.entered.set()
        assert self.release.wait(timeout=10), "test never released read"
        return super().read(name)


class _FailingOnceStore(BitmapFileStore):
    """First read of each name fails; later reads succeed."""

    def __init__(self):
        super().__init__()
        self._failed: set[str] = set()
        self._lock = threading.Lock()

    def read(self, name: str) -> bytes:
        with self._lock:
            first = name not in self._failed
            self._failed.add(name)
        if first:
            raise StorageReadError(name, 0, "injected first-read failure")
        return super().read(name)


class TestSingleFlight:
    def test_concurrent_misses_fetch_once(self):
        store = _BlockingStore()
        store.write("a.wah", bytes(100))
        pool = BufferPool(store)
        barrier = threading.Barrier(4)

        def fetch() -> bytes:
            barrier.wait()
            return pool.get("a.wah")

        with collecting_metrics() as metrics:
            with ThreadPoolExecutor(max_workers=4) as tpe:
                futures = [tpe.submit(fetch) for _ in range(4)]
                assert store.entered.wait(timeout=10)
                # Give the three non-leaders time to join the flight
                # (the leader is parked inside read() until released).
                threading.Event().wait(0.1)
                store.release.set()
                payloads = [future.result() for future in futures]
        assert store.read_calls == 1
        assert pool.accountant.read_count == 1
        assert pool.accountant.bytes_read == 100
        assert all(payload == bytes(100) for payload in payloads)
        assert metrics.counter("cache_singleflight_waits_total") >= 1

    def test_leader_failure_propagates_then_clears(self):
        store = _FailingOnceStore()
        store.write("a.wah", bytes(100))
        pool = BufferPool(store)
        with pytest.raises(StorageReadError):
            pool.get("a.wah")
        # The failed flight must not wedge the name: the next get
        # starts a fresh fetch and succeeds.
        assert pool.get("a.wah") == bytes(100)

    def test_reload_bypasses_inflight_payloads(self):
        """reload() must hit storage even when a get is in flight —
        joining the flight could return the stale pre-update bytes."""
        store = _fresh_store()
        pool = BufferPool(store)
        pool.get(NAMES[0])
        store.write(NAMES[0], bytes(7))
        assert pool.reload(NAMES[0]) == bytes(7)
        assert pool.get(NAMES[0]) == bytes(7)

    def test_invalidate_drops_inflight_entry(self):
        """invalidate() of a name mid-fetch abandons the flight.

        When a scrubber quarantines a file, a leader may be mid-read
        of the condemned bytes; requesters arriving after the
        invalidate must start a fresh fetch instead of joining the
        stale flight — and the abandoned leader's completion must not
        cancel the successor flight's deduplication.
        """
        store = _BlockingStore()
        store.write("a.wah", bytes(100))
        pool = BufferPool(store)
        with ThreadPoolExecutor(max_workers=2) as tpe:
            first = tpe.submit(pool.get, "a.wah")
            assert store.entered.wait(timeout=10)
            # The file is condemned while the leader is parked inside
            # the store read.
            pool.invalidate("a.wah")
            second = tpe.submit(pool.get, "a.wah")
            # The second get must be a fresh leader (read_calls -> 2),
            # not a waiter on the first flight.
            deadline = threading.Event()
            for _ in range(100):
                if store.read_calls == 2:
                    break
                deadline.wait(0.05)
            assert store.read_calls == 2
            store.release.set()
            assert first.result() == bytes(100)
            assert second.result() == bytes(100)
        # Both flights retired; the dedup table is empty again.
        assert pool._inflight == {}

    def test_invalidate_drops_one_name_and_its_flight(self):
        """invalidate() drops the named copy, from either tier, and
        any in-flight fetch of it — and nothing else: the pool serves
        only the store's current file, so a node's other copies need
        no group drop.
        """
        from repro.storage.manifest import delta_file_name

        base = "node_3.wah"
        delta_one = delta_file_name(1, 3)
        delta_two = delta_file_name(2, 3)
        bystander = "node_4.wah"
        store = _BlockingStore()
        for name, size in [
            (base, 100),
            (delta_one, 40),
            (delta_two, 60),
            (bystander, 80),
        ]:
            store.write(name, bytes(size))
        pool = BufferPool(store)  # unbounded -> gets are LRU-cached
        store.release.set()  # pre-population reads run unblocked
        pool.pin([base])  # pinned tier
        pool.get(delta_one)  # LRU tier
        pool.get(bystander)
        store.release.clear()

        with collecting_metrics() as metrics:
            with ThreadPoolExecutor(max_workers=2) as tpe:
                # A leader parked mid-read of the second delta.
                first = tpe.submit(pool.get, delta_two)
                assert store.entered.wait(timeout=10)
                calls_before = store.read_calls

                assert pool.invalidate(delta_two) is False
                assert pool.contains(base)
                assert pool.contains(delta_one)
                assert pool.invalidate(base) is True
                assert pool.invalidate(delta_one) is False

                assert not pool.contains(base)
                assert not pool.contains(delta_one)
                assert pool.contains(bystander)
                assert pool.pinned_bytes == 0
                # The parked flight was abandoned: a new requester
                # becomes a fresh leader instead of joining it.
                second = tpe.submit(pool.get, delta_two)
                for _ in range(100):
                    if store.read_calls > calls_before:
                        break
                    threading.Event().wait(0.05)
                assert store.read_calls == calls_before + 1
                store.release.set()
                assert first.result() == bytes(60)
                assert second.result() == bytes(60)
        assert pool._inflight == {}
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 1
        )
        assert (
            metrics.counter("cache_invalidations_total", tier="lru")
            == 1
        )

    def test_invalidating_a_delta_name_keeps_the_base(self):
        from repro.storage.manifest import delta_file_name

        base = "node_2.wah"
        delta = delta_file_name(5, 2)
        store = _fresh_store()
        store.write(base, bytes(50))
        store.write(delta, bytes(20))
        pool = BufferPool(store)
        pool.get(base)
        pool.get(delta)
        pool.invalidate(delta)
        assert pool.contains(base)
        assert not pool.contains(delta)
        assert pool.resident_bytes == 50


class TestBudgetInvariantProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "pin",
                        "get",
                        "invalidate",
                        "reload",
                        "unpin_all",
                        "clear",
                    ]
                ),
                st.sampled_from(NAMES),
            ),
            max_size=30,
        ),
        budget=st.integers(min_value=0, max_value=1200),
    )
    def test_budget_holds_under_any_interleaving(self, operations, budget):
        """``resident_bytes <= budget_bytes`` after every operation, no
        matter how pins, reads, invalidations, and reloads interleave,
        and residency always decomposes into pinned + LRU bytes."""
        pool = BufferPool(_fresh_store(), budget_bytes=budget)
        for operation, name in operations:
            try:
                if operation == "pin":
                    pool.pin([name])
                elif operation == "get":
                    pool.get(name)
                elif operation == "invalidate":
                    pool.invalidate(name)
                elif operation == "reload":
                    pool.reload(name)
                elif operation == "unpin_all":
                    pool.unpin_all()
                else:
                    pool.clear()
            except BudgetExceededError:
                pass
            assert pool.resident_bytes <= budget
            assert (
                pool.pinned_bytes + pool.lru_bytes
                == pool.resident_bytes
            )


@pytest.mark.stress
class TestHammer:
    """Thread hammers under a 1µs switch interval."""

    WORKERS = 8
    ROUNDS = 60

    def test_get_hammer_keeps_payloads_and_budget_correct(self):
        pool = BufferPool(_fresh_store())
        errors: list[Exception] = []

        def worker(worker_index: int) -> None:
            try:
                for round_index in range(self.ROUNDS):
                    name = NAMES[
                        (worker_index + round_index) % len(NAMES)
                    ]
                    payload = pool.get(name)
                    assert len(payload) == SIZES[name]
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Unbounded: every name read is admitted once, whatever the
        # interleaving of concurrent misses and admissions.
        assert pool.cached_names == set(NAMES)
        assert pool.lru_bytes == pool.resident_bytes == sum(SIZES.values())
        accountant = pool.accountant
        assert accountant.bytes_read == sum(
            SIZES[name] * count
            for name, count in accountant.reads_by_name.items()
        )

    def test_pin_invalidate_get_hammer_holds_invariants(self):
        pool = BufferPool(_fresh_store(), budget_bytes=800)
        errors: list[Exception] = []

        def worker(worker_index: int) -> None:
            try:
                for round_index in range(self.ROUNDS):
                    name = NAMES[
                        (worker_index * 3 + round_index) % len(NAMES)
                    ]
                    action = (worker_index + round_index) % 4
                    if action == 0:
                        try:
                            pool.pin([name])
                        except BudgetExceededError:
                            pass
                    elif action == 1:
                        pool.invalidate(name)
                    elif action == 2:
                        pool.unpin_all()
                    else:
                        payload = pool.get(name)
                        assert len(payload) == SIZES[name]
                    assert (
                        pool.resident_bytes <= pool.budget_bytes
                    )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.resident_bytes <= pool.budget_bytes

    def test_attribution_fanout_sums_exactly(self):
        """Per-thread attributed accountants must sum to the shared
        accountant's delta even when every read races (streamed pool:
        no LRU, so every get is real IO or a shared single-flight)."""
        pool = BufferPool(_fresh_store(), budget_bytes=0)
        locals_: list[IOAccountant] = [
            IOAccountant() for _ in range(self.WORKERS)
        ]
        errors: list[Exception] = []

        def worker(worker_index: int) -> None:
            try:
                with pool.attributing(locals_[worker_index]):
                    for round_index in range(self.ROUNDS):
                        name = NAMES[
                            (worker_index + round_index) % len(NAMES)
                        ]
                        pool.get(name)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        attributed = sum(local.bytes_read for local in locals_)
        assert attributed == pool.accountant.bytes_read
        assert (
            sum(local.read_count for local in locals_)
            == pool.accountant.read_count
        )
