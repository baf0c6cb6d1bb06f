"""Unit tests for deterministic fault injection, typed storage errors,
pool retry, and executor-level degradation."""

from __future__ import annotations

import pytest

from repro.bitmap.serialization import serialize_wah
from repro.bitmap.wah import WahBitmap
from repro.core.executor import QueryExecutor, scan_answer
from repro.errors import (
    BitmapDecodeError,
    FileMissingError,
    StorageError,
    StorageReadError,
    TransientStorageError,
    UnrecoverableReadError,
)
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.faults import (
    FaultKind,
    FaultPolicy,
    RetryPolicy,
    get_default_fault_policy,
    set_default_fault_policy,
)
from repro.storage.filestore import BitmapFileStore
from repro.workload.query import RangeQuery


class TestFaultPolicy:
    def test_zero_rates_never_fault(self):
        policy = FaultPolicy(seed=7)
        payload = b"hello world"
        for _ in range(100):
            assert policy.filter_read("f", payload) == payload
        assert policy.total_injected == 0

    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            policy = FaultPolicy(
                seed=seed, transient_rate=0.2, bitflip_rate=0.2
            )
            outcomes = []
            for _ in range(50):
                try:
                    outcomes.append(policy.filter_read("f", b"abcdef"))
                except TransientStorageError:
                    outcomes.append("transient")
            return outcomes

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_transient_raises_typed_error(self):
        policy = FaultPolicy(seed=0, transient_rate=1.0)
        with pytest.raises(TransientStorageError) as excinfo:
            policy.filter_read("node_3.wah", b"data")
        assert excinfo.value.file_name == "node_3.wah"

    def test_torn_read_truncates(self):
        policy = FaultPolicy(seed=1, torn_rate=1.0)
        payload = b"x" * 64
        torn = policy.filter_read("f", payload)
        assert len(torn) < len(payload)
        assert payload.startswith(torn)

    def test_bitflip_changes_exactly_one_bit(self):
        policy = FaultPolicy(seed=2, bitflip_rate=1.0)
        payload = bytes(range(32))
        flipped = policy.filter_read("f", payload)
        assert len(flipped) == len(payload)
        diff = [
            a ^ b for a, b in zip(payload, flipped) if a != b
        ]
        assert len(diff) == 1
        assert diff[0].bit_count() == 1

    def test_slow_read_sleeps_and_returns_payload(self):
        delays = []
        policy = FaultPolicy(
            seed=3,
            slow_rate=1.0,
            slow_delay_s=0.25,
            sleep=delays.append,
        )
        assert policy.filter_read("f", b"ok") == b"ok"
        assert delays == [0.25]
        assert policy.injected[FaultKind.SLOW] == 1

    def test_consecutive_cap_forces_clean_read(self):
        policy = FaultPolicy(
            seed=4, transient_rate=1.0, max_consecutive_per_name=2
        )
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                policy.filter_read("f", b"data")
        # Third read of the same name is forced clean.
        assert policy.filter_read("f", b"data") == b"data"

    def test_sticky_corruption_is_identical_every_read(self):
        policy = FaultPolicy(seed=5, sticky_corrupt_names={"bad"})
        payload = b"q" * 100
        first = policy.filter_read("bad", payload)
        assert first != payload
        for _ in range(5):
            assert policy.filter_read("bad", payload) == first
        assert policy.filter_read("good", payload) == payload

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(transient_rate=0.6, torn_rate=0.6)
        with pytest.raises(ValueError):
            FaultPolicy.uniform(-0.1)

    def test_uniform_splits_rate(self):
        policy = FaultPolicy.uniform(0.3, seed=9)
        hits = 0
        for _ in range(2000):
            try:
                if policy.filter_read("f", b"p" * 16) != b"p" * 16:
                    hits += 1
            except TransientStorageError:
                hits += 1
        # ~0.3 overall, generously bracketed (the consecutive cap
        # slightly depresses the realized rate).
        assert 0.15 < hits / 2000 < 0.45


class TestTypedStoreErrors:
    @pytest.fixture(params=["memory", "directory"])
    def store(self, request, tmp_path) -> BitmapFileStore:
        if request.param == "memory":
            return BitmapFileStore()
        return BitmapFileStore(tmp_path / "bitmaps")

    def test_read_missing_raises_file_missing(self, store):
        with pytest.raises(FileMissingError) as excinfo:
            store.read("ghost")
        assert excinfo.value.file_name == "ghost"
        assert excinfo.value.offset == 0
        assert isinstance(excinfo.value, StorageReadError)
        assert isinstance(excinfo.value, StorageError)

    def test_size_bytes_missing_raises_file_missing(self, store):
        with pytest.raises(FileMissingError) as excinfo:
            store.size_bytes("ghost")
        assert excinfo.value.file_name == "ghost"

    def test_fault_policy_attaches_and_clears(self, store):
        store.write("f", b"data")
        policy = FaultPolicy(seed=0, transient_rate=1.0)
        store.set_fault_policy(policy)
        assert store.fault_policy is policy
        with pytest.raises(TransientStorageError):
            store.read("f")
        store.set_fault_policy(None)
        assert store.read("f") == b"data"

    def test_default_policy_adopted_by_new_stores(self):
        policy = FaultPolicy(seed=0, transient_rate=1.0)
        set_default_fault_policy(policy)
        try:
            store = BitmapFileStore()
            assert store.fault_policy is policy
        finally:
            set_default_fault_policy(None)
        assert get_default_fault_policy() is None
        assert BitmapFileStore().fault_policy is None


class TestPoolRetry:
    def test_transient_faults_absorbed_by_retry(self):
        store = BitmapFileStore(
            fault_policy=FaultPolicy(
                seed=1, transient_rate=0.5, max_consecutive_per_name=2
            )
        )
        store.write("f", b"payload")
        pool = BufferPool(
            store, retry_policy=RetryPolicy(max_attempts=4)
        )
        for _ in range(20):
            pool.clear()
            assert pool.get("f") == b"payload"
        assert pool.accountant.retry_count > 0

    def test_retry_exhaustion_propagates_transient(self):
        store = BitmapFileStore(
            fault_policy=FaultPolicy(
                seed=1,
                transient_rate=1.0,
                max_consecutive_per_name=50,
            )
        )
        store.write("f", b"payload")
        pool = BufferPool(
            store, retry_policy=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientStorageError):
            pool.get("f")
        assert pool.accountant.retry_count == 3
        assert pool.accountant.bytes_read == 0

    def test_retry_backoff_sleeps_growing_delays(self):
        delays = []
        store = BitmapFileStore(
            fault_policy=FaultPolicy(
                seed=1,
                transient_rate=1.0,
                max_consecutive_per_name=50,
            )
        )
        store.write("f", b"payload")
        pool = BufferPool(
            store,
            retry_policy=RetryPolicy(
                max_attempts=3,
                backoff_s=0.1,
                backoff_multiplier=2.0,
                sleep=delays.append,
            ),
        )
        with pytest.raises(TransientStorageError):
            pool.get("f")
        assert delays == [0.1, 0.2]

    def test_reload_replaces_pinned_payload(self):
        store = BitmapFileStore()
        store.write("f", b"version-one")
        pool = BufferPool(store)
        pool.pin(["f"])
        store.write("f", b"version-two!")
        assert pool.get("f") == b"version-one"
        assert pool.reload("f") == b"version-two!"
        # Still pinned, with the new bytes accounted.
        assert pool.contains("f")
        assert pool.pinned_bytes == len(b"version-two!")

    def test_reload_repins_only_within_budget(self):
        store = BitmapFileStore()
        store.write("f", b"x" * 10)
        pool = BufferPool(store, budget_bytes=12)
        pool.pin(["f"])
        store.write("f", b"y" * 20)
        assert pool.reload("f") == b"y" * 20
        # Too large to stay pinned: streamed, budget intact.
        assert not pool.contains("f")
        assert pool.resident_bytes <= pool.budget_bytes

    def test_invalidate_unpinned_then_get_refetches(self):
        store = BitmapFileStore()
        store.write("f", b"abc")
        pool = BufferPool(store)
        pool.get("f")
        assert pool.accountant.read_count == 1
        assert pool.invalidate("f") is False
        pool.get("f")
        assert pool.accountant.read_count == 2


@pytest.fixture
def tiny_executor_setup(materialized_setup):
    hierarchy, column, catalog = materialized_setup
    return hierarchy, column, catalog


class TestExecutorDegradation:
    def test_sticky_internal_node_recovers_from_children(
        self, tiny_executor_setup
    ):
        hierarchy, column, catalog = tiny_executor_setup
        victim = hierarchy.internal_children(hierarchy.root_id)[0]
        policy = FaultPolicy(
            seed=0,
            sticky_corrupt_names={node_file_name(victim)},
        )
        catalog.store.set_fault_policy(policy)
        try:
            executor = QueryExecutor(catalog)
            query = RangeQuery([(0, hierarchy.num_leaves - 1)])
            result = executor.execute_query(query, [victim])
            assert result.answer == scan_answer(column, query)
            assert result.degraded
            event = result.degraded_reads[-1]
            assert event.node_id == victim
            assert event.recovered_from == tuple(
                hierarchy.node(victim).children
            )
            assert executor.pool.accountant.discard_count > 0
        finally:
            catalog.store.set_fault_policy(None)

    def test_sticky_leaf_is_unrecoverable(self, tiny_executor_setup):
        hierarchy, _column, catalog = tiny_executor_setup
        leaf = hierarchy.leaf_node_id(0)
        policy = FaultPolicy(
            seed=0, sticky_corrupt_names={node_file_name(leaf)}
        )
        catalog.store.set_fault_policy(policy)
        try:
            executor = QueryExecutor(catalog)
            with pytest.raises(UnrecoverableReadError):
                executor.execute_query(RangeQuery([(0, 0)]))
        finally:
            catalog.store.set_fault_policy(None)

    def test_allow_degraded_false_raises(self, tiny_executor_setup):
        hierarchy, _column, catalog = tiny_executor_setup
        victim = hierarchy.internal_children(hierarchy.root_id)[0]
        policy = FaultPolicy(
            seed=0, sticky_corrupt_names={node_file_name(victim)}
        )
        catalog.store.set_fault_policy(policy)
        try:
            executor = QueryExecutor(catalog, allow_degraded=False)
            query = RangeQuery([(0, hierarchy.num_leaves - 1)])
            with pytest.raises(BitmapDecodeError):
                executor.execute_query(query, [victim])
        finally:
            catalog.store.set_fault_policy(None)

    def test_missing_internal_file_degrades(self, tmp_path):
        # A deleted internal-node file (not just a corrupt one) also
        # recovers via the descendant union.
        from repro.hierarchy.tree import Hierarchy
        from repro.workload import (
            sample_column,
            tpch_acctbal_leaf_probabilities,
        )

        hierarchy = Hierarchy.from_nested([[2, 2], [3]])
        probabilities = tpch_acctbal_leaf_probabilities(
            hierarchy.num_leaves, seed=1
        )
        column = sample_column(
            probabilities, num_rows=5_000, seed=2
        )
        catalog = MaterializedNodeCatalog(hierarchy, column)
        victim = hierarchy.internal_children(hierarchy.root_id)[0]
        name = node_file_name(victim)
        # Simulate at-rest loss of the node's file.
        catalog.store.delete(name)
        executor = QueryExecutor(catalog)
        query = RangeQuery([(0, hierarchy.num_leaves - 1)])
        result = executor.execute_query(query, [victim])
        assert result.answer == scan_answer(column, query)
        assert result.degraded
        assert "FileMissingError" in result.degraded_reads[-1].error


def test_wah_roundtrip_survives_pool(tmp_path):
    """Framed WAH payloads written/read through a real directory."""
    store = BitmapFileStore(tmp_path)
    bitmap = WahBitmap.from_positions([1, 5, 77, 1000], 2048)
    store.write("x.wah", serialize_wah(bitmap))
    pool = BufferPool(store)
    from repro.bitmap.serialization import deserialize_wah

    assert deserialize_wah(pool.get("x.wah")) == bitmap
