"""Compactor / BackgroundCompactor: folding deltas into a new base.

The contract: folding is purely physical — queries answer identically
before and after, the folded store is byte-identical to a from-scratch
rebuild over the full column, superseded files are GC'd, and a bounded
run folds only the oldest generations.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.executor import QueryExecutor, scan_answer
from repro.errors import StorageError
from repro.hierarchy.tree import Hierarchy, paper_hierarchy
from repro.storage.accounting import IOAccountant
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.compactor import BackgroundCompactor, Compactor
from repro.storage.delta import DeltaAppender
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import DurableBitmapStore
from repro.storage.scrub import Scrubber
from repro.workload.query import RangeQuery


@pytest.fixture
def hierarchy() -> Hierarchy:
    return Hierarchy.from_nested([[2, 2], [3, 2], [3]])


def _build_with_deltas(
    tmp_path, hierarchy, base_rows=400, batches=(13, 27, 8), seed=3
):
    rng = np.random.default_rng(seed)
    column = rng.integers(
        0, hierarchy.num_leaves, size=base_rows, dtype=np.int64
    )
    store = DurableBitmapStore(tmp_path / "store")
    MaterializedNodeCatalog(hierarchy, column, store)
    appender = DeltaAppender(store, hierarchy)
    parts = [column]
    for size in batches:
        batch = rng.integers(
            0, hierarchy.num_leaves, size=size, dtype=np.int64
        )
        appender.append(batch)
        parts.append(batch)
    return store, np.concatenate(parts)


def _fingerprint(store):
    """Logical store content: {name: (size, crc32 of payload)}."""
    return {
        name: (len(store.read(name)), zlib.crc32(store.read(name)))
        for name in store.names()
    }


def test_full_fold_matches_from_scratch_rebuild(tmp_path, hierarchy):
    store, full = _build_with_deltas(tmp_path, hierarchy)
    report = Compactor(store).run()

    assert report.did_work
    assert report.folded_seqs == (1, 2, 3)
    assert report.folded_rows == full.size - 400
    assert store.delta_manifests == ()
    assert store.manifest.num_rows == full.size
    # seq counter survives the fold: later appends can never reuse a
    # folded generation's file names.
    assert store.manifest.delta_seq == 3

    oracle_store = DurableBitmapStore(tmp_path / "oracle")
    MaterializedNodeCatalog(hierarchy, full, oracle_store)
    assert _fingerprint(store) == _fingerprint(oracle_store)


def test_fold_gcs_superseded_files(tmp_path, hierarchy):
    store, _ = _build_with_deltas(tmp_path, hierarchy)
    directory = tmp_path / "store"
    before = {p.name for p in directory.iterdir() if p.is_file()}
    assert any("delta_" in name for name in before)

    Compactor(store).run()

    live = {
        store.manifest.entry(name).physical
        for name in store.names()
    } | {"MANIFEST"}
    on_disk = {p.name for p in directory.iterdir() if p.is_file()}
    assert on_disk == live
    assert not any("delta_" in name for name in on_disk)


def test_bounded_fold_takes_oldest_generations(tmp_path, hierarchy):
    store, full = _build_with_deltas(tmp_path, hierarchy)
    report = Compactor(store, max_deltas_per_run=2).run()
    assert report.folded_seqs == (1, 2)
    assert [d.seq for d in store.delta_manifests] == [3]
    assert store.total_num_rows == full.size

    # the second bounded run drains the rest
    report = Compactor(store, max_deltas_per_run=2).run()
    assert report.folded_seqs == (3,)
    assert store.delta_manifests == ()


def test_noop_when_no_deltas(tmp_path, hierarchy):
    store, _ = _build_with_deltas(tmp_path, hierarchy, batches=())
    generation = store.generation
    report = Compactor(store).run()
    assert not report.did_work
    assert report.generation_after == generation
    assert store.generation == generation


def test_queries_identical_across_the_fold(tmp_path, hierarchy):
    store, full = _build_with_deltas(tmp_path, hierarchy)
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    last = hierarchy.num_leaves - 1
    queries = [RangeQuery([(0, 3)]), RangeQuery([(2, last)])]
    before = [executor.execute_query(q).answer for q in queries]

    Compactor(store).run()

    # Same executor, same pool: each cached pre-fold base is a copy of
    # a file the fold replaced, so the pool re-reads it.
    after = [executor.execute_query(q).answer for q in queries]
    assert all(a == b for a, b in zip(after, before))


def test_fold_keeps_a_budgeted_cut_pinned(tmp_path):
    """A cut member made stale by a fold is re-read in place and stays
    pinned.  It used to be unpinned, and a budgeted pool with no spare
    LRU then streamed it on every later query while plans still
    counted it as cached."""
    hierarchy = paper_hierarchy(20)
    rng = np.random.default_rng(3)
    store = DurableBitmapStore(tmp_path / "store")
    MaterializedNodeCatalog(
        hierarchy, rng.integers(0, 20, size=5_000), store
    )
    cut = hierarchy.node(hierarchy.root_id).children
    budget = 3 * sum(
        store.size_bytes(node_file_name(node_id)) for node_id in cut
    )

    def pinned_executor():
        catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
        executor = QueryExecutor(
            catalog, BufferPool(store, budget_bytes=budget)
        )
        executor.pin_cut(cut)
        return executor

    # One query under each cut member.
    queries = [RangeQuery([(0, 7)]), RangeQuery([(9, 18)])]
    executor = pinned_executor()
    DeltaAppender(store, hierarchy).append(rng.integers(0, 20, size=300))
    for query in queries:
        executor.execute_query(query, cut, node_is_cached=True)
    Compactor(store).run()
    for query in queries:
        executor.execute_query(query, cut, node_is_cached=True)

    fresh = pinned_executor()
    assert executor.pool.pinned_bytes == fresh.pool.pinned_bytes
    for query in queries:
        expected = fresh.execute_query(query, cut, node_is_cached=True)
        result = executor.execute_query(query, cut, node_is_cached=True)
        assert result.io_bytes == expected.io_bytes
        assert result.answer == expected.answer


def _warm_paper_store(tmp_path, appends=0):
    """A 5,000-row durable store on ``paper_hierarchy(20)`` with
    ``appends`` 100-row delta generations, and a warm unbounded
    executor over it (one query has read every file it needs)."""
    hierarchy = paper_hierarchy(20)
    rng = np.random.default_rng(8)
    store = DurableBitmapStore(tmp_path / "store")
    column = rng.integers(0, 20, size=5_000)
    MaterializedNodeCatalog(hierarchy, column, store)
    for _ in range(appends):
        batch = rng.integers(0, 20, size=100)
        DeltaAppender(store, hierarchy).append(batch)
        column = np.concatenate([column, batch])
    catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
    executor = QueryExecutor(catalog, BufferPool(store))
    query = RangeQuery([(0, 7)])
    assert executor.execute_query(query).answer == scan_answer(
        column, query
    )
    return store, column, executor, query


@pytest.mark.ingest
def test_warm_executor_answers_a_same_size_rebuild(tmp_path):
    """A rebuild in place with as many rows commits new base files, so
    the warm pool re-reads them; it used to answer from the old
    index, whose widths still matched the manifest."""
    store, column, executor, query = _warm_paper_store(tmp_path)
    other = np.random.default_rng(9).integers(0, 20, size=column.size)
    MaterializedNodeCatalog(paper_hierarchy(20), other, store)

    result = executor.execute_query(query)

    assert result.answer == scan_answer(other, query)
    assert result.answer != scan_answer(column, query)


@pytest.mark.ingest
def test_bounded_fold_rereads_only_the_folded_bases(tmp_path):
    """After a fold of the oldest delta, the next query reads the
    folded base files and nothing else: the live deltas it holds are
    still the store's files.  It used to re-read them too (24 reads
    where 8 are needed)."""
    store, column, executor, query = _warm_paper_store(
        tmp_path, appends=3
    )
    first_reads = executor.pool.accountant.snapshot().reads_by_name
    bases = {name for name in first_reads if name.startswith("node_")}
    Compactor(store, max_deltas_per_run=1).run()
    assert [delta.seq for delta in store.delta_manifests] == [2, 3]
    before = executor.pool.accountant.snapshot()

    result = executor.execute_query(query)

    reads = executor.pool.accountant.diff_since(before).reads_by_name
    assert result.answer == scan_answer(column, query)
    assert reads == {name: 1 for name in bases}
    assert len(reads) == 8


@pytest.mark.ingest
def test_fold_releases_retired_delta_payloads(tmp_path):
    """An unbounded pool drops the payloads of the delta generations a
    fold retired once a query sees the fold; it used to keep them
    until a query re-read the same node's base."""
    store, column, executor, _query = _warm_paper_store(
        tmp_path, appends=3
    )
    assert any(
        name.startswith("delta_") for name in executor.pool.cached_names
    )
    Compactor(store).run()
    # Other nodes than the warm query's: none of its bases is re-read.
    query = RangeQuery([(12, 19)])

    result = executor.execute_query(query)

    assert result.answer == scan_answer(column, query)
    assert executor.pool.cached_names <= set(store.names())


def test_non_node_entries_are_carried_forward(tmp_path, hierarchy):
    store, _ = _build_with_deltas(tmp_path, hierarchy)
    store.write("meta.bin", b"sidecar payload")
    physical_before = store.manifest.entry("meta.bin").physical

    Compactor(store).run()

    assert store.read("meta.bin") == b"sidecar payload"
    # carried forward untouched: same physical file, not rewritten
    assert store.manifest.entry("meta.bin").physical == (
        physical_before
    )


def test_compaction_bytes_are_charged_to_accountant(
    tmp_path, hierarchy
):
    store, _ = _build_with_deltas(tmp_path, hierarchy)
    accountant = IOAccountant()
    report = Compactor(store, accountant=accountant).run()
    assert report.bytes_read > 0
    assert accountant.bytes_read == report.bytes_read


def test_fold_refuses_corrupt_payloads(tmp_path, hierarchy):
    store, _ = _build_with_deltas(tmp_path, hierarchy)
    name = sorted(store.manifest.entries)[0]
    path = tmp_path / "store" / store.manifest.entry(name).physical
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))

    generation = store.generation
    with pytest.raises(StorageError, match="run scrub first"):
        Compactor(store).run()
    # nothing committed; deltas still live
    assert store.generation == generation
    assert len(store.delta_manifests) == 3


def test_scrub_clean_after_fold(tmp_path, hierarchy):
    store, _ = _build_with_deltas(tmp_path, hierarchy)
    Compactor(store).run()
    report = Scrubber(store, hierarchy).verify()
    assert report.is_clean


def test_compactor_rejects_non_durable_store():
    with pytest.raises(StorageError, match="DurableBitmapStore"):
        Compactor(BitmapFileStore())


def test_compactor_rejects_non_positive_bound(tmp_path, hierarchy):
    store, _ = _build_with_deltas(
        tmp_path, hierarchy, batches=(5,)
    )
    with pytest.raises(ValueError, match="positive"):
        Compactor(store, max_deltas_per_run=0)


def test_background_compactor_folds_at_threshold(tmp_path, hierarchy):
    store, full = _build_with_deltas(
        tmp_path, hierarchy, batches=(5, 7, 9)
    )
    with BackgroundCompactor(
        store, min_deltas=3, interval_seconds=0.05
    ) as compactor:
        compactor.trigger()
        deadline = 50
        while store.delta_manifests and deadline:
            import time

            time.sleep(0.05)
            deadline -= 1
    assert store.delta_manifests == ()
    assert store.manifest.num_rows == full.size
    assert compactor.errors == []
    assert len(compactor.reports) == 1
    assert compactor.reports[0].folded_seqs == (1, 2, 3)


def test_background_compactor_waits_below_threshold(
    tmp_path, hierarchy
):
    store, _ = _build_with_deltas(tmp_path, hierarchy, batches=(5,))
    with BackgroundCompactor(
        store, min_deltas=4, interval_seconds=0.01
    ) as compactor:
        compactor.trigger()
        import time

        time.sleep(0.2)
    assert len(store.delta_manifests) == 1  # not due yet
    assert compactor.reports == []


def test_background_compactor_records_errors_and_survives(
    tmp_path, hierarchy
):
    store, _ = _build_with_deltas(tmp_path, hierarchy, batches=(5,))
    name = sorted(store.manifest.entries)[0]
    path = tmp_path / "store" / store.manifest.entry(name).physical
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))

    with BackgroundCompactor(
        store, min_deltas=1, interval_seconds=0.02
    ) as compactor:
        compactor.trigger()
        import time

        deadline = 100
        while not compactor.errors and deadline:
            time.sleep(0.02)
            deadline -= 1
    assert compactor.errors  # recorded, thread not killed
    assert len(store.delta_manifests) == 1  # nothing committed
