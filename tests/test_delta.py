"""DeltaAppender / begin_delta: LSM-style ingest into a durable store.

Covers the write path of the delta lifecycle: append batches commit as
delta generations through the atomic manifest-swap protocol, readers
merge them on read bit-identically to a from-scratch rebuild, and the
manifest round-trips deltas losslessly.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.bitmap.serialization import deserialize_wah
from repro.core.executor import QueryExecutor, scan_answer
from repro.core.opnodes import build_query_plan
from repro.errors import StorageError, WorkloadError
from repro.hierarchy.tree import Hierarchy, paper_hierarchy
from repro.obs import TraceCollector, collecting_metrics, recording
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.delta import DeltaAppender
from repro.storage.faults import FaultPolicy
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import (
    DurableBitmapStore,
    Manifest,
    delta_file_name,
    parse_delta_file_name,
)
from repro.workload.query import RangeQuery

from .builder_reference import reference_payloads


@pytest.fixture
def hierarchy() -> Hierarchy:
    return Hierarchy.from_nested([[2, 2], [3, 2], [3]])


def _build(tmp_path, hierarchy, rows=500, seed=7):
    rng = np.random.default_rng(seed)
    column = rng.integers(
        0, hierarchy.num_leaves, size=rows, dtype=np.int64
    )
    store = DurableBitmapStore(tmp_path / "store")
    MaterializedNodeCatalog(hierarchy, column, store)
    return store, column


# ----------------------------------------------------------------------
# Naming
# ----------------------------------------------------------------------
def test_delta_file_name_round_trip():
    assert parse_delta_file_name(delta_file_name(3, 17)) == (3, 17)
    assert parse_delta_file_name("node_3.wah") is None
    assert parse_delta_file_name("delta_0001-node_2.bin") is None
    assert parse_delta_file_name("delta_x-node_2.wah") is None
    assert parse_delta_file_name("MANIFEST") is None


# ----------------------------------------------------------------------
# Commit path
# ----------------------------------------------------------------------
def test_append_commits_one_delta_generation(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    base_rows = store.manifest.num_rows
    appender = DeltaAppender(store, hierarchy)
    batch = np.array([0, 3, 3, 11], dtype=np.int64)

    result = appender.append(batch)

    assert result.committed
    assert result.seq == 1
    assert result.num_rows == batch.size
    assert result.files_written == hierarchy.num_nodes
    assert len(store.delta_manifests) == 1
    delta = store.delta_manifests[0]
    assert delta.seq == 1
    assert delta.num_rows == batch.size
    assert store.manifest.num_rows == base_rows  # base untouched
    assert store.total_num_rows == base_rows + batch.size


def test_appends_get_monotonic_seqs(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    appender = DeltaAppender(store, hierarchy)
    seqs = [
        appender.append(np.array([i], dtype=np.int64)).seq
        for i in range(4)
    ]
    assert seqs == [1, 2, 3, 4]
    assert store.manifest.delta_seq == 4


def test_empty_append_is_a_no_op(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    generation = store.generation
    result = DeltaAppender(store, hierarchy).append(
        np.array([], dtype=np.int64)
    )
    assert not result.committed
    assert result.seq == 0
    assert store.generation == generation
    assert store.delta_manifests == ()


def test_delta_entries_are_readable_and_named(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    DeltaAppender(store, hierarchy).append(
        np.array([5, 6], dtype=np.int64)
    )
    for node in hierarchy:
        name = delta_file_name(1, node.node_id)
        assert store.exists(name)
        payload = store.read(name)
        assert payload  # CRC-framed WAH bytes
        assert name in store.names()


def test_delta_survives_reopen_without_gc(tmp_path, hierarchy):
    """Satellite: delta physicals are referenced by the manifest, so
    reopen-time orphan GC must not reclaim them."""
    store, _ = _build(tmp_path, hierarchy)
    DeltaAppender(store, hierarchy).append(
        np.array([1, 2, 3], dtype=np.int64)
    )
    before = {name: store.read(name) for name in store.names()}

    reopened = DurableBitmapStore(tmp_path / "store")

    assert len(reopened.delta_manifests) == 1
    assert reopened.total_num_rows == store.total_num_rows
    assert {
        name: reopened.read(name) for name in reopened.names()
    } == before


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_appender_rejects_non_durable_store(hierarchy):
    with pytest.raises(StorageError, match="DurableBitmapStore"):
        DeltaAppender(BitmapFileStore(), hierarchy)


def test_appender_rejects_empty_store(tmp_path, hierarchy):
    store = DurableBitmapStore(tmp_path)
    with pytest.raises(StorageError, match="empty store"):
        DeltaAppender(store, hierarchy)


def test_appender_rejects_wrong_hierarchy(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    other = Hierarchy.from_nested([[3, 3], [2]])
    with pytest.raises(StorageError):
        DeltaAppender(store, other)


@pytest.mark.parametrize(
    "values,match",
    [
        (np.zeros((2, 2), dtype=np.int64), "1-D"),
        (np.array([0.5, 1.5]), "integral"),
        (np.array([-1], dtype=np.int64), "lie in"),
        (np.array([10**6], dtype=np.int64), "lie in"),
    ],
)
def test_append_rejects_bad_batches(tmp_path, hierarchy, values, match):
    store, _ = _build(tmp_path, hierarchy)
    appender = DeltaAppender(store, hierarchy)
    with pytest.raises(WorkloadError, match=match):
        appender.append(values)
    assert store.delta_manifests == ()


@pytest.mark.parametrize("rows", [1, 31, 257])
def test_tail_payloads_equal_the_reference_encoding(
    tmp_path, hierarchy, rows
):
    """Each delta file holds the bytes the per-word oracle encodes
    from the mask scan of the batch alone."""
    store, _ = _build(tmp_path, hierarchy)
    batch = np.random.default_rng(rows).integers(
        0, hierarchy.num_leaves, size=rows
    )
    seq = DeltaAppender(store, hierarchy).append(batch).seq
    for node_id, payload in reference_payloads(hierarchy, batch).items():
        assert store.read(delta_file_name(seq, node_id)) == payload


def test_tail_of_a_node_the_batch_misses_is_one_word(tmp_path, hierarchy):
    """A node none of the batch's rows fall under gets a single zero
    fill word, however long the batch."""
    store, _ = _build(tmp_path, hierarchy)
    seq = DeltaAppender(store, hierarchy).append(
        np.zeros(10_000, dtype=np.int64)
    ).seq
    missed = [node for node in hierarchy if node.leaf_lo > 0]
    assert missed
    for node in missed:
        tail = deserialize_wah(
            store.read(delta_file_name(seq, node.node_id))
        )
        assert tail.num_bits == 10_000
        assert tail.count() == 0
        assert tail.num_words == 1, node.node_id


def test_stale_delta_build_commit_is_rejected(tmp_path, hierarchy):
    """Two builds racing the same seq: the loser's commit raises
    instead of silently aliasing delta file names, and its abort
    leaves the winner's files alone."""
    store, _ = _build(tmp_path, hierarchy)
    first = store.begin_delta(2)
    second = store.begin_delta(3)
    assert first.seq == second.seq  # both claimed seq 1
    from repro.bitmap.serialization import serialize_wah
    from repro.bitmap.wah import WahBitmap

    payload2 = serialize_wah(WahBitmap.from_positions([0], 2))
    payload3 = serialize_wah(WahBitmap.from_positions([1], 3))
    for node in hierarchy:
        first.add(delta_file_name(first.seq, node.node_id), payload2)
        second.add(delta_file_name(second.seq, node.node_id), payload3)
    first.commit()
    with pytest.raises(StorageError, match="serialize appends"):
        second.commit()
    second.abort()
    assert [d.seq for d in store.delta_manifests] == [1]
    for node in hierarchy:
        assert store.read(delta_file_name(1, node.node_id)) == payload2
    reopened = DurableBitmapStore(tmp_path / "store")
    assert [d.seq for d in reopened.delta_manifests] == [1]


# ----------------------------------------------------------------------
# Manifest round-trip
# ----------------------------------------------------------------------
def test_manifest_round_trips_deltas(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    appender = DeltaAppender(store, hierarchy)
    appender.append(np.array([0, 1], dtype=np.int64))
    appender.append(np.array([2], dtype=np.int64))
    manifest = store.manifest
    restored = Manifest.from_bytes(manifest.to_bytes())
    assert restored.deltas == manifest.deltas
    assert restored.delta_seq == manifest.delta_seq
    assert restored.total_rows == manifest.total_rows


def test_manifest_without_deltas_serializes_compactly():
    """Pre-delta byte compatibility: trivial delta fields are omitted."""
    manifest = Manifest(generation=1, entries={}, num_rows=0)
    assert b"delta" not in manifest.to_bytes()
    restored = Manifest.from_bytes(manifest.to_bytes())
    assert restored.deltas == ()
    assert restored.delta_seq == 0


# ----------------------------------------------------------------------
# Merge-on-read
# ----------------------------------------------------------------------
def _queries(hierarchy):
    last = hierarchy.num_leaves - 1
    return [
        RangeQuery([(0, 2)]),
        RangeQuery([(1, last - 1)]),
        RangeQuery([(0, last)]),
        RangeQuery([(0, 1), (4, last)]),
    ]


def test_merge_on_read_matches_full_rebuild(tmp_path, hierarchy):
    store, column = _build(tmp_path, hierarchy)
    rng = np.random.default_rng(11)
    batches = [
        rng.integers(0, hierarchy.num_leaves, size=size, dtype=np.int64)
        for size in (17, 1, 40)
    ]
    appender = DeltaAppender(store, hierarchy)
    for batch in batches:
        appender.append(batch)
    full = np.concatenate([column, *batches])

    oracle_store = DurableBitmapStore(tmp_path / "oracle")
    oracle_catalog = MaterializedNodeCatalog(
        hierarchy, full, oracle_store
    )
    oracle = QueryExecutor(oracle_catalog, BufferPool(oracle_store))

    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    internal_cut = hierarchy.node(hierarchy.root_id).children
    for query in _queries(hierarchy):
        expected = scan_answer(full, query)
        for cut in ((), internal_cut):
            answer = executor.execute_query(
                query, cut_node_ids=cut
            ).answer
            # Word-identical canonical WAH, not just same positions.
            assert answer == oracle.execute_query(
                query, cut_node_ids=cut
            ).answer
            assert (
                answer.to_positions().tolist()
                == expected.to_positions().tolist()
            )


def test_aggregate_over_live_deltas_matches_numpy(tmp_path, hierarchy):
    """A measure spanning the base and three delta generations
    aggregates to what numpy computes over the scan's rows."""
    store, column = _build(tmp_path, hierarchy)
    base_rows = column.size
    rng = np.random.default_rng(17)
    appender = DeltaAppender(store, hierarchy)
    for size in (23, 1, 64):
        batch = rng.integers(
            0, hierarchy.num_leaves, size=size, dtype=np.int64
        )
        appender.append(batch)
        column = np.concatenate([column, batch])
    measure = rng.gamma(2.0, 25.0, size=column.size)
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    query = RangeQuery([(1, 6)])
    plan = build_query_plan(
        catalog, query, hierarchy.node(hierarchy.root_id).children
    )
    selected = measure[scan_answer(column, query).to_positions()]
    expected = {
        "count": selected.size,
        "sum": selected.sum(),
        "avg": selected.mean(),
        "min": selected.min(),
        "max": selected.max(),
    }
    for agg, value in expected.items():
        got, result = executor.aggregate(plan, measure, agg)
        assert result.answer.num_bits == column.size
        assert got == value, agg
    with pytest.raises(ValueError, match="one value per row"):
        executor.aggregate(plan, measure[:base_rows], "sum")


def test_merge_on_read_emits_delta_merge_trace(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    appender = DeltaAppender(store, hierarchy)
    for batch in ([0, 1, 2], [7]):
        appender.append(np.array(batch, dtype=np.int64))
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    collector = TraceCollector()
    with recording(collector), collecting_metrics() as metrics:
        executor.execute_query(RangeQuery([(0, 2)]))
    # One event per query that read deltas, not one per node read.
    [merge] = collector.filter("delta.merge")
    assert merge.attrs["seqs"] == [1, 2]
    assert merge.attrs["num_bits"] == store.total_num_rows
    assert metrics.counter("delta_merges_total") == 1


def test_lost_base_recovers_within_its_segment(tmp_path, hierarchy):
    """A lost base file is the union of its children's base files, and
    the node's own delta files are still read, each in its own
    segment; the children's delta files are not."""
    store, column = _build(tmp_path, hierarchy)
    appender = DeltaAppender(store, hierarchy)
    rng = np.random.default_rng(13)
    for size in (17, 40):
        batch = rng.integers(
            0, hierarchy.num_leaves, size=size, dtype=np.int64
        )
        appender.append(batch)
        column = np.concatenate([column, batch])
    victim = hierarchy.node(
        hierarchy.internal_children(hierarchy.root_id)[0]
    )
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    # The injector sees physical (generation-prefixed) names.
    physical = store.manifest.entry(node_file_name(victim.node_id)).physical
    store.set_fault_policy(
        FaultPolicy(seed=0, sticky_corrupt_names={physical})
    )
    query = RangeQuery([(victim.leaf_lo, victim.leaf_hi)])

    result = executor.execute_query(query, [victim.node_id])

    assert result.answer == scan_answer(column, query)
    [degraded] = result.degraded_reads
    assert degraded.node_id == victim.node_id
    assert degraded.recovered_from == tuple(victim.children)
    io = executor.pool.accountant.snapshot()
    assert set(io.reads_by_name) == {
        node_file_name(victim.node_id),
        *(node_file_name(child) for child in victim.children),
        delta_file_name(1, victim.node_id),
        delta_file_name(2, victim.node_id),
    }
    assert result.io_bytes == io.bytes_read


# ----------------------------------------------------------------------
# Queries racing commits: one manifest snapshot per query
# ----------------------------------------------------------------------
def _run_before_get(pool, at, action):
    """Run ``action`` once, just before the pool's ``at``-th get: a
    commit that lands between two node reads of one query."""
    original = pool.get
    calls = itertools.count(1)

    def get(name):
        if next(calls) == at:
            action()
        return original(name)

    pool.get = get


def _racing_setup(tmp_path, batches=()):
    hierarchy = paper_hierarchy(20)
    store, column = _build(tmp_path, hierarchy, rows=5_000)
    appender = DeltaAppender(store, hierarchy)
    rng = np.random.default_rng(5)
    for size in batches:
        batch = rng.integers(0, 20, size=size, dtype=np.int64)
        appender.append(batch)
        column = np.concatenate([column, batch])
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    pool = BufferPool(store)
    return store, appender, column, QueryExecutor(catalog, pool)


def test_append_between_node_reads_answers_one_snapshot(tmp_path):
    """The query answers the rows of the snapshot it started from; it
    used to mix 5,000- and 5,037-bit operands and raise
    BitmapLengthMismatchError."""
    store, appender, column, executor = _racing_setup(tmp_path)
    batch = np.random.default_rng(6).integers(0, 20, size=37)
    _run_before_get(executor.pool, 2, lambda: appender.append(batch))
    query = RangeQuery([(0, 7)])

    assert executor.execute_query(query).answer == scan_answer(
        column, query
    )
    assert store.total_num_rows == 5_037
    assert executor.execute_query(query).answer == scan_answer(
        np.concatenate([column, batch]), query
    )


def test_fold_mid_query_restarts_against_a_fresh_snapshot(tmp_path):
    """A fold that commits at the query's third read makes its
    snapshot stale: the query restarts once and answers the folded
    store."""
    from repro.storage.compactor import Compactor

    store, _appender, column, executor = _racing_setup(
        tmp_path, batches=(37, 41)
    )
    _run_before_get(executor.pool, 3, Compactor(store).run)
    query = RangeQuery([(0, 7)])
    collector = TraceCollector()
    with recording(collector), collecting_metrics() as metrics:
        answer = executor.execute_query(query).answer

    assert store.delta_manifests == ()
    assert answer == scan_answer(column, query)
    assert collector.counts_by_kind().get("executor.snapshot-retry") == 1
    assert metrics.counter("snapshot_retries_total") == 1


def test_append_emits_events_and_metrics(tmp_path, hierarchy):
    store, _ = _build(tmp_path, hierarchy)
    collector = TraceCollector()
    with recording(collector), collecting_metrics() as metrics:
        DeltaAppender(store, hierarchy).append(
            np.array([4, 4, 9], dtype=np.int64)
        )
    assert collector.counts_by_kind().get("delta.append") == 1
    assert metrics.counter("delta_rows_appended_total") == 3


# ----------------------------------------------------------------------
# Concurrent writers: one store.write thread, one appender thread and a
# background compactor committing into the same store.
# ----------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.ingest
def test_concurrent_writers_leave_a_consistent_store(
    tmp_path, hierarchy, chaos_seed
):
    import threading

    from repro.storage.compactor import BackgroundCompactor
    from repro.storage.scrub import Scrubber

    store, column = _build(tmp_path, hierarchy, seed=chaos_seed % 1000)
    rng = np.random.default_rng(chaos_seed)
    batches = [
        rng.integers(0, hierarchy.num_leaves, size=50, dtype=np.int64)
        for _ in range(15)
    ]
    written: dict[str, bytes] = {}
    refused: list[StorageError] = []
    appended = []
    failures: list[BaseException] = []

    def writer():
        for i in range(30):
            name, payload = f"meta_{i}.bin", f"payload {i}".encode()
            try:
                store.write(name, payload)
            except StorageError as err:
                refused.append(err)
                continue
            assert store.read(name) == payload
            written[name] = payload

    def appender():
        delta = DeltaAppender(store, hierarchy)
        for batch in batches:
            appended.append(delta.append(batch))

    def guarded(target):
        def run():
            try:
                target()
            except Exception as err:  # surfaced below
                failures.append(err)

        return threading.Thread(target=run)

    with BackgroundCompactor(
        store, min_deltas=1, interval_seconds=0.001
    ) as compactor:
        threads = [guarded(writer), guarded(appender)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(written) + len(refused) == 30
    assert [result.committed for result in appended] == [True] * 15
    assert compactor.errors == []

    reopened = DurableBitmapStore(tmp_path / "store")
    assert Scrubber(reopened, hierarchy).verify().is_clean
    for name, payload in written.items():
        assert reopened.read(name) == payload
    assert reopened.total_num_rows == column.size + 15 * 50
    full = np.concatenate([column, *batches])
    catalog = MaterializedNodeCatalog.from_store(hierarchy, reopened)
    executor = QueryExecutor(catalog, BufferPool(reopened))
    for query in _queries(hierarchy):
        assert executor.execute_query(query).answer == scan_answer(
            full, query
        )


@pytest.mark.stress
@pytest.mark.ingest
def test_queries_racing_appends_and_folds_answer_committed_rows(
    tmp_path, chaos_seed
):
    """One thread appends 20 batches of 37 rows while a background
    compactor folds them; another thread queries through one executor
    and pool.  Every answer is the scan of the column cut at some
    batch boundary, and every byte the pool read is charged to some
    query."""
    import threading

    from repro.storage.compactor import BackgroundCompactor

    hierarchy = paper_hierarchy(20)
    store, column = _build(
        tmp_path, hierarchy, rows=5_000, seed=chaos_seed % 1000
    )
    rng = np.random.default_rng(chaos_seed)
    batches = [
        rng.integers(0, 20, size=37, dtype=np.int64) for _ in range(20)
    ]
    full = np.concatenate([column, *batches])
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    pool = BufferPool(store)
    executor = QueryExecutor(catalog, pool)
    cut = hierarchy.node(hierarchy.root_id).children
    executor.pin_cut(cut)
    before = pool.accountant.snapshot()
    queries = [RangeQuery([(0, 7)]), RangeQuery([(3, 18)])]
    appended = threading.Event()
    results = []
    failures: list[BaseException] = []

    def append():
        try:
            appender = DeltaAppender(store, hierarchy)
            for batch in batches:
                appender.append(batch)
        finally:
            appended.set()

    def query():
        # Until a whole round has run over the final store.
        done = False
        while not done:
            done = appended.is_set()
            for index, q in enumerate(queries):
                pinned = index % 2 == 0
                results.append(
                    executor.execute_query(
                        q, cut if pinned else (), node_is_cached=pinned
                    )
                )

    def guarded(target):
        def run():
            try:
                target()
            except Exception as err:  # surfaced below
                failures.append(err)

        return threading.Thread(target=run)

    with BackgroundCompactor(
        store, min_deltas=2, interval_seconds=0.001
    ) as compactor:
        threads = [guarded(append), guarded(query)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert compactor.errors == []
    assert store.total_num_rows == full.size
    for result in results:
        rows = result.answer.num_bits
        assert (rows - column.size) % 37 == 0, rows
        assert result.answer == scan_answer(full[:rows], result.query)
    assert pool.accountant.diff_since(before).bytes_read == sum(
        result.io_bytes for result in results
    )
