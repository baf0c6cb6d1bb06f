"""Tests for the memory-budgeted buffer pool."""

from __future__ import annotations

import pytest

from repro.bitmap.serialization import serialize_wah
from repro.bitmap.wah import WahBitmap
from repro.errors import BudgetExceededError, StorageError
from repro.obs import collecting_metrics, recording
from repro.storage.accounting import IOAccountant
from repro.storage.cache import BufferPool
from repro.storage.filestore import BitmapFileStore


@pytest.fixture
def store() -> BitmapFileStore:
    store = BitmapFileStore()
    for index in range(5):
        store.write(f"node_{index}.wah", bytes(100 * (index + 1)))
    return store


class TestUnboundedPool:
    def test_reads_charged_once_then_cached(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 1
        assert pool.accountant.bytes_read == 100

    def test_distinct_files_each_charged(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.get("node_1.wah")
        assert pool.accountant.bytes_read == 300

    def test_pin_promotes_lru_entry_without_rereading(self, store):
        pool = BufferPool(store)
        pool.get("node_1.wah")  # 200 in the LRU area
        pool.get("node_2.wah")  # 300 in the LRU area
        pool.pin(["node_1.wah"])  # promoted out of the LRU, no re-read
        assert pool.accountant.reads_by_name["node_1.wah"] == 1
        assert pool.pinned_bytes == 200
        assert pool.lru_bytes == 300
        assert pool.resident_bytes == 500


class TestPinning:
    def test_pin_reads_each_file_once(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah", "node_1.wah"])
        assert pool.accountant.bytes_read == 300
        pool.get("node_0.wah")
        pool.get("node_1.wah")
        assert pool.accountant.bytes_read == 300
        assert pool.pinned_bytes == 300

    def test_pin_over_budget_raises_without_partial_pin(self, store):
        pool = BufferPool(store, budget_bytes=250)
        with pytest.raises(BudgetExceededError):
            pool.pin(["node_0.wah", "node_1.wah"])
        assert pool.pinned_bytes == 0

    def test_repinning_is_idempotent(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        pool.pin(["node_0.wah"])
        assert pool.accountant.read_count == 1

    def test_unpin_all(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        pool.unpin_all()
        assert pool.pinned_bytes == 0
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 2


class TestBudgetedStreaming:
    def test_unpinned_reads_are_streamed_by_default(self, store):
        """Case-3 semantics: non-cut bitmaps re-read on every access."""
        pool = BufferPool(store, budget_bytes=1000)
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 2

    def test_oversized_file_never_admitted(self, store):
        pool = BufferPool(store, budget_bytes=100)
        pool.get("node_4.wah")  # 500 bytes > budget
        pool.get("node_4.wah")
        assert pool.accountant.read_count == 2


class TestPinDuplicates:
    """Regression tests for the pin() double-counting bug.

    ``pin(["a", "a"])`` used to fetch the file twice, charge the
    accountant twice, and record ``pinned_bytes`` at twice the real
    residency — which then tripped ``BudgetExceededError`` on budgets
    the cut actually fits.
    """

    def test_duplicate_names_read_once(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store, budget_bytes=1000)
            pool.pin(["node_0.wah", "node_0.wah", "node_0.wah"])
        assert pool.accountant.read_count == 1
        assert pool.accountant.bytes_read == 100
        assert pool.pinned_bytes == 100
        assert metrics.counter("cache_pins_total") == 1

    def test_duplicates_fit_a_budget_the_file_fits(self, store):
        # 100-byte file, 150-byte budget: duplicates used to demand 300.
        pool = BufferPool(store, budget_bytes=150)
        pool.pin(["node_0.wah"] * 3)
        assert pool.pinned_bytes == 100
        assert pool.resident_bytes <= pool.budget_bytes

    def test_duplicates_mixed_with_new_names(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(
            ["node_0.wah", "node_1.wah", "node_0.wah", "node_1.wah"]
        )
        assert pool.accountant.read_count == 2
        assert pool.pinned_bytes == 300
        assert pool.accountant.reads_by_name["node_0.wah"] == 1
        assert pool.accountant.reads_by_name["node_1.wah"] == 1


class _LyingStore(BitmapFileStore):
    """A store whose ``size_bytes`` underreports the payload length."""

    def size_bytes(self, name: str) -> int:
        return super().size_bytes(name) // 10


class TestAdmissionReconciliation:
    """pin() budgets with ``size_bytes`` estimates but must commit
    against actual payload lengths, keeping ``resident_bytes <=
    budget_bytes`` a real invariant even when the estimate lies."""

    def test_size_bytes_agrees_with_payload_for_every_codec(self):
        """WAH frames (the one codec) of sparse, dense, all-zero and
        all-one bitmaps, and an unframed payload."""
        store = BitmapFileStore()
        payloads = {
            "sparse": serialize_wah(
                WahBitmap.from_positions([1, 5, 900], 2048)
            ),
            "dense": serialize_wah(
                WahBitmap.from_positions(range(0, 2048, 3), 2048)
            ),
            "zeros": serialize_wah(WahBitmap.zeros(2048)),
            "ones": serialize_wah(WahBitmap.ones(2048)),
            "raw": bytes(range(200)),
        }
        for name, payload in payloads.items():
            store.write(f"{name}.bin", payload)
            assert store.size_bytes(f"{name}.bin") == len(payload)
            assert len(store.read(f"{name}.bin")) == len(payload)

    def test_lying_size_estimate_cannot_break_the_budget(self):
        store = _LyingStore()
        store.write("a.wah", bytes(100))
        store.write("b.wah", bytes(200))
        pool = BufferPool(store, budget_bytes=150)
        # Estimates (10 + 20 bytes) pass the pre-check; the actual
        # payloads (300 bytes) must still be rejected at commit.
        with pytest.raises(BudgetExceededError):
            pool.pin(["a.wah", "b.wah"])
        assert pool.pinned_bytes == 0
        assert pool.resident_bytes <= pool.budget_bytes
        assert not pool.contains("a.wah")
        assert not pool.contains("b.wah")

    def test_lying_estimate_within_budget_pins_at_true_size(self):
        store = _LyingStore()
        store.write("a.wah", bytes(100))
        pool = BufferPool(store, budget_bytes=150)
        pool.pin(["a.wah"])
        assert pool.pinned_bytes == 100  # true bytes, not the estimate
        assert pool.resident_bytes <= pool.budget_bytes


class TestInvalidationObservability:
    def test_invalidate_counts_by_tier(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store, budget_bytes=1000)
            pool.pin(["node_0.wah"])
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 1
        )

    def test_invalidate_lru_entry_counts_lru_tier(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store)  # unbounded -> LRU caches
            pool.get("node_0.wah")
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="lru")
            == 1
        )

    def test_invalidate_absent_name_counts_nothing(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store)
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="lru")
            == 0
        )
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 0
        )

    def test_unpin_all_emits_clear_event_and_metric(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah", "node_1.wah"])
        with collecting_metrics() as metrics, recording() as collector:
            pool.unpin_all()
        clears = [
            event
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert len(clears) == 1
        assert clears[0].name == "pinned"
        assert clears[0].attrs["files"] == 2
        assert clears[0].attrs["nbytes"] == 300
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 2
        )

    def test_clear_emits_events_for_both_tiers(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        unbounded = BufferPool(store)
        unbounded.get("node_1.wah")
        with recording() as collector:
            pool.clear()
            unbounded.clear()
        kinds = [
            (event.kind, event.name)
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert ("cache.clear", "pinned") in kinds
        assert ("cache.clear", "lru") in kinds

    def test_empty_clear_is_silent(self, store):
        pool = BufferPool(store)
        with collecting_metrics() as metrics, recording() as collector:
            pool.clear()
            pool.unpin_all()
        assert not [
            event
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert metrics.counter("cache_invalidations_total") == 0


class TestFileIdentity:
    """A copy is served only while its file is the store's current
    one; a durable store commits every write under a new file."""

    def test_pinned_file_replaced_is_reread_once_and_stays_pinned(
        self, tmp_path
    ):
        from repro.storage.manifest import DurableBitmapStore

        store = DurableBitmapStore(tmp_path / "store")
        store.write("f", b"x" * 10)
        pool = BufferPool(store, budget_bytes=16)
        pool.pin(["f"])
        old_file = store.manifest.entry("f").physical
        store.write("f", b"y" * 12)
        assert store.manifest.entry("f").physical != old_file

        assert pool.get("f") == b"y" * 12
        assert pool.get("f") == b"y" * 12
        assert pool.accountant.reads_by_name["f"] == 2  # pin + re-read
        assert pool.cached_names == {"f"}
        assert pool.pinned_bytes == 12
        assert pool.lru_bytes == 0

    def test_pinned_file_replaced_too_large_is_unpinned_and_streamed(
        self, tmp_path
    ):
        from repro.storage.manifest import DurableBitmapStore

        store = DurableBitmapStore(tmp_path / "store")
        store.write("f", b"x" * 10)
        pool = BufferPool(store, budget_bytes=16)
        pool.pin(["f"])
        store.write("f", b"z" * 20)

        with collecting_metrics() as metrics:
            assert pool.get("f") == b"z" * 20
            assert pool.get("f") == b"z" * 20
        assert pool.accountant.reads_by_name["f"] == 3  # streamed twice
        assert not pool.contains("f")
        assert pool.resident_bytes == 0
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 1
        )

    def test_lru_copy_of_a_replaced_file_is_replaced_in_place(
        self, tmp_path
    ):
        from repro.storage.manifest import DurableBitmapStore

        store = DurableBitmapStore(tmp_path / "store")
        store.write("f", b"x" * 10)
        pool = BufferPool(store)
        pool.get("f")
        store.write("f", b"y" * 7)

        assert pool.get("f") == b"y" * 7
        assert pool.lru_bytes == pool.resident_bytes == 7
        pool.pin(["f"])  # the current copy is promoted, not re-read
        assert pool.accountant.reads_by_name["f"] == 2
        assert pool.pinned_bytes == 7


class TestMisc:
    def test_custom_accountant(self, store):
        accountant = IOAccountant()
        pool = BufferPool(store, accountant=accountant)
        pool.get("node_0.wah")
        assert accountant.bytes_read == 100

    def test_negative_budget_rejected(self, store):
        with pytest.raises(ValueError):
            BufferPool(store, budget_bytes=-1)

    def test_contains_and_cached_names(self, store):
        pool = BufferPool(store)
        assert not pool.contains("node_0.wah")
        pool.get("node_0.wah")
        assert pool.contains("node_0.wah")
        assert "node_0.wah" in pool.cached_names

    def test_clear(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.clear()
        assert not pool.cached_names

    def test_missing_file_propagates(self, store):
        pool = BufferPool(store)
        with pytest.raises(StorageError):
            pool.get("ghost.wah")

    def test_repr(self, store):
        assert "unbounded" in repr(BufferPool(store))
        assert "100B" in repr(BufferPool(store, budget_bytes=100))
