"""Durable index lifecycle: manifest format, atomic builds, recovery.

The invariants under test:

* a serialized :class:`Manifest` survives a byte-exact round trip and
  any corruption of it is detected by the self-checksum;
* a :class:`DurableBitmapStore` commits builds atomically (logical
  names resolve only through the manifest), garbage-collects orphans,
  refuses unmanifested directories, and heals the quarantine crash
  window on reopen;
* the plain :class:`BitmapFileStore` write path is atomic (tmp sibling
  + rename) and raises typed errors, never raw ``OSError``.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.errors import (
    FileMissingError,
    ManifestError,
    StorageError,
    StorageWriteError,
)
from repro.hierarchy.tree import Hierarchy
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.faults import FaultPolicy
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    DurableBitmapStore,
    Manifest,
    ManifestEntry,
    hierarchy_fingerprint,
    physical_file_name,
)


# ----------------------------------------------------------------------
# Manifest serialization
# ----------------------------------------------------------------------
def _sample_manifest() -> Manifest:
    entries = {
        "node_0.wah": ManifestEntry.for_payload(
            "node_0.wah", physical_file_name(3, "node_0.wah"), b"abc"
        ),
        "node_1.wah": ManifestEntry.for_payload(
            "node_1.wah", physical_file_name(3, "node_1.wah"), b"defg"
        ),
    }
    return Manifest(
        generation=3,
        entries=entries,
        hierarchy_fingerprint="f" * 64,
        num_rows=123,
    )


def test_manifest_round_trip():
    manifest = _sample_manifest()
    parsed = Manifest.from_bytes(manifest.to_bytes())
    assert parsed == manifest
    assert parsed.entries["node_1.wah"].size == 4
    assert parsed.entries["node_1.wah"].crc32 == zlib.crc32(b"defg")


def test_manifest_every_corrupted_byte_is_detected():
    data = bytearray(_sample_manifest().to_bytes())
    for offset in range(len(data)):
        corrupted = bytearray(data)
        corrupted[offset] ^= 0x01
        with pytest.raises(ManifestError):
            Manifest.from_bytes(bytes(corrupted))


def test_manifest_truncation_detected():
    data = _sample_manifest().to_bytes()
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        with pytest.raises(ManifestError):
            Manifest.from_bytes(data[:cut])


def test_manifest_rejects_unknown_format_version():
    manifest = _sample_manifest()
    bumped = Manifest(
        generation=manifest.generation,
        entries=manifest.entries,
        format_version=MANIFEST_FORMAT_VERSION + 1,
    )
    with pytest.raises(ManifestError, match="format version"):
        Manifest.from_bytes(bumped.to_bytes())


def test_manifest_entry_matches_is_exact():
    entry = ManifestEntry.for_payload("a", "g00000001-a", b"payload")
    assert entry.matches(b"payload")
    assert not entry.matches(b"payloae")
    assert not entry.matches(b"payload!")
    assert not entry.matches(b"")


def test_manifest_entry_from_dict_validates():
    with pytest.raises(ManifestError):
        ManifestEntry.from_dict("a", {"physical": "x"})
    with pytest.raises(ManifestError):
        ManifestEntry.from_dict(
            "a",
            {"physical": "x", "size": -1, "crc32": 0, "codec": "wah"},
        )


def test_entry_records_wah_codec():
    from repro.bitmap.serialization import serialize_wah
    from repro.bitmap.wah import WahBitmap

    payload = serialize_wah(WahBitmap.from_positions([1, 5], 100))
    entry = ManifestEntry.for_payload("n", "g-n", payload)
    assert entry.codec == "wah"
    raw = ManifestEntry.for_payload("n", "g-n", b"not a frame")
    assert raw.codec == "raw"


# ----------------------------------------------------------------------
# DurableBitmapStore lifecycle
# ----------------------------------------------------------------------
def test_empty_directory_initializes_generation_zero(tmp_path):
    store = DurableBitmapStore(tmp_path)
    assert store.generation == 0
    assert list(store.names()) == []
    assert (tmp_path / MANIFEST_NAME).exists()


def test_reopen_empty_store(tmp_path):
    DurableBitmapStore(tmp_path)
    store = DurableBitmapStore(tmp_path)
    assert store.generation == 0


def test_requires_directory():
    with pytest.raises(ValueError):
        DurableBitmapStore(None)  # type: ignore[arg-type]


def test_refuses_unmanifested_directory(tmp_path):
    (tmp_path / "stray.wah").write_bytes(b"who wrote this?")
    with pytest.raises(ManifestError, match="unmanifested"):
        DurableBitmapStore(tmp_path)


def test_build_commit_reopen_round_trip(tmp_path):
    store = DurableBitmapStore(tmp_path)
    with store.begin_build(num_rows=10) as build:
        build.add("node_0.wah", b"alpha")
        build.add("node_1.wah", b"beta")
    assert store.generation == 1
    reopened = DurableBitmapStore(tmp_path)
    assert reopened.generation == 1
    assert list(reopened.names()) == ["node_0.wah", "node_1.wah"]
    assert reopened.read("node_0.wah") == b"alpha"
    assert reopened.size_bytes("node_1.wah") == 4
    assert reopened.manifest.num_rows == 10


def test_rebuild_replaces_and_gcs_old_generation(tmp_path):
    store = DurableBitmapStore(tmp_path)
    with store.begin_build() as build:
        build.add("node_0.wah", b"old")
    old_physical = store.manifest.entry("node_0.wah").physical
    with store.begin_build() as build:
        build.add("node_0.wah", b"new")
    assert store.read("node_0.wah") == b"new"
    assert not (tmp_path / old_physical).exists()


def test_aborted_build_is_invisible(tmp_path):
    store = DurableBitmapStore(tmp_path)
    with pytest.raises(RuntimeError):
        with store.begin_build() as build:
            build.add("node_0.wah", b"doomed")
            raise RuntimeError("boom")
    assert store.generation == 0
    assert not store.exists("node_0.wah")
    reopened = DurableBitmapStore(tmp_path)
    assert list(reopened.names()) == []


def test_single_write_is_a_one_file_generation(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"one")
    store.write("b.wah", b"two")
    assert store.generation == 2
    assert store.read("a.wah") == b"one"  # carried forward
    assert store.read("b.wah") == b"two"


def test_delete_commits_generation_without_entry(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"one")
    store.delete("a.wah")
    assert not store.exists("a.wah")
    with pytest.raises(FileMissingError):
        store.read("a.wah")
    reopened = DurableBitmapStore(tmp_path)
    assert not reopened.exists("a.wah")


def test_stray_file_is_not_served_and_is_gcd(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"real")
    (tmp_path / "ghost.wah").write_bytes(b"ghost")
    assert not store.exists("ghost.wah")
    with pytest.raises(FileMissingError):
        store.read("ghost.wah")
    DurableBitmapStore(tmp_path)  # reopen GCs the orphan
    assert not (tmp_path / "ghost.wah").exists()


def test_open_detects_missing_physical_file(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"data")
    physical = store.manifest.entry("a.wah").physical
    (tmp_path / physical).unlink()
    with pytest.raises(ManifestError, match="missing"):
        DurableBitmapStore(tmp_path)
    # verify_files=False opens for scrub/repair
    damaged = DurableBitmapStore(tmp_path, verify_files=False)
    assert damaged.exists("a.wah")


def test_open_detects_size_mismatch(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"data")
    physical = store.manifest.entry("a.wah").physical
    (tmp_path / physical).write_bytes(b"data plus junk")
    with pytest.raises(ManifestError, match="bytes on disk"):
        DurableBitmapStore(tmp_path)


def test_quarantine_drops_entry_and_parks_file(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"bad bytes")
    physical = store.quarantine("a.wah")
    assert not store.exists("a.wah")
    assert store.quarantined_names() == [physical]
    assert (tmp_path / ".quarantine" / physical).exists()
    reopened = DurableBitmapStore(tmp_path)
    assert not reopened.exists("a.wah")
    assert reopened.quarantined_names() == [physical]


def test_quarantine_crash_window_heals_on_reopen(tmp_path):
    # Simulate a crash after the file moved to .quarantine/ but
    # before the manifest commit: entry present, physical parked.
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"bad")
    entry = store.manifest.entry("a.wah")
    qdir = tmp_path / ".quarantine"
    qdir.mkdir()
    os.replace(tmp_path / entry.physical, qdir / entry.physical)
    healed = DurableBitmapStore(tmp_path)
    assert not healed.exists("a.wah")
    assert healed.quarantined_names() == [entry.physical]


def test_hierarchy_fingerprint_stable_and_sensitive():
    h1 = Hierarchy.from_nested([[2, 2], [2]])
    h2 = Hierarchy.from_nested([[2, 2], [2]])
    h3 = Hierarchy.from_nested([[3, 2], [2]])
    assert hierarchy_fingerprint(h1) == hierarchy_fingerprint(h2)
    assert hierarchy_fingerprint(h1) != hierarchy_fingerprint(h3)


def test_verify_hierarchy_mismatch(tmp_path):
    h = Hierarchy.from_nested([[2, 2], [2]])
    other = Hierarchy.from_nested([[3, 2], [2]])
    store = DurableBitmapStore(tmp_path)
    with store.begin_build(
        hierarchy_fingerprint=hierarchy_fingerprint(h)
    ) as build:
        build.add("node_0.wah", b"x")
    store.verify_hierarchy(h)  # matching: fine
    with pytest.raises(ManifestError, match="different hierarchy"):
        store.verify_hierarchy(other)


def test_catalog_build_commits_one_generation_with_fingerprint(
    tmp_path,
):
    rng = np.random.default_rng(11)
    h = Hierarchy.from_nested([[2, 2], [3, 2], [3]])
    column = rng.integers(0, h.num_leaves, size=2000)
    store = DurableBitmapStore(tmp_path)
    MaterializedNodeCatalog(h, column, store)
    assert store.generation == 1  # one commit for the whole build
    assert store.manifest.hierarchy_fingerprint == (
        hierarchy_fingerprint(h)
    )
    assert store.manifest.num_rows == 2000
    assert len(store.manifest.entries) == h.num_nodes


def test_catalog_from_store_reopens_without_rebuilding(tmp_path):
    rng = np.random.default_rng(12)
    h = Hierarchy.from_nested([[2, 2], [3, 2], [3]])
    column = rng.integers(0, h.num_leaves, size=2000)
    store = DurableBitmapStore(tmp_path)
    built = MaterializedNodeCatalog(h, column, store)
    generation = store.generation

    reopened_store = DurableBitmapStore(tmp_path)
    reopened = MaterializedNodeCatalog.from_store(h, reopened_store)
    assert reopened_store.generation == generation  # no writes
    assert reopened.num_rows == built.num_rows
    for node in h:
        assert reopened.density(node.node_id) == pytest.approx(
            built.density(node.node_id)
        )
        assert reopened.size_mb(node.node_id) == pytest.approx(
            built.size_mb(node.node_id)
        )


def test_catalog_from_store_reads_committed_bytes(tmp_path):
    """A reopen reads a durable store's files as committed, as scrub
    and compaction do: every read through the store's fault injector
    would fail here, and none is made."""
    rng = np.random.default_rng(15)
    h = Hierarchy.from_nested([[2, 2], [2]])
    built = MaterializedNodeCatalog(
        h,
        rng.integers(0, h.num_leaves, size=500),
        DurableBitmapStore(tmp_path),
    )
    policy = FaultPolicy(
        seed=0, transient_rate=1.0, max_consecutive_per_name=10
    )

    reopened = MaterializedNodeCatalog.from_store(
        h, DurableBitmapStore(tmp_path, fault_policy=policy)
    )

    assert policy.total_injected == 0
    for node in h:
        assert reopened.density(node.node_id) == built.density(node.node_id)
        assert reopened.size_mb(node.node_id) == built.size_mb(node.node_id)


def test_catalog_from_store_rejects_wrong_hierarchy(tmp_path):
    rng = np.random.default_rng(13)
    h = Hierarchy.from_nested([[2, 2], [2]])
    other = Hierarchy.from_nested([[3, 3], [2]])
    store = DurableBitmapStore(tmp_path)
    MaterializedNodeCatalog(
        h, rng.integers(0, h.num_leaves, size=500), store
    )
    with pytest.raises(ManifestError):
        MaterializedNodeCatalog.from_store(other, store)


def test_catalog_from_store_requires_every_node(tmp_path):
    rng = np.random.default_rng(14)
    h = Hierarchy.from_nested([[2, 2], [2]])
    store = DurableBitmapStore(tmp_path)
    MaterializedNodeCatalog(
        h, rng.integers(0, h.num_leaves, size=500), store
    )
    store.delete(node_file_name(h.root_id))
    with pytest.raises(StorageError, match="no bitmap"):
        MaterializedNodeCatalog.from_store(h, store)


# ----------------------------------------------------------------------
# One commit path: generation reservation and stale refusal
# ----------------------------------------------------------------------
def _balanced_store(tmp_path, rows=600, seed=21):
    """A built store over the balanced 8-leaf tree."""
    from repro.storage.delta import DeltaAppender

    h = Hierarchy.balanced(8, height=4)
    column = np.random.default_rng(seed).integers(
        0, h.num_leaves, size=rows, dtype=np.int64
    )
    store = DurableBitmapStore(tmp_path / "store")
    MaterializedNodeCatalog(h, column, store)
    return h, store, DeltaAppender(store, h)


def _contents(store):
    return {name: store.read(name) for name in store.names()}


def test_build_across_an_append_is_refused(tmp_path):
    h, store, appender = _balanced_store(tmp_path)
    name = node_file_name(h.root_id)
    build = store.begin_build(replace_all=False)
    build.add(name, store.read(name))
    appender.append(np.array([0, 5, 7], dtype=np.int64))
    committed = _contents(store)

    with pytest.raises(StorageError, match="serialize appends"):
        build.commit()
    build.abort()

    assert _contents(store) == committed
    assert _contents(DurableBitmapStore(tmp_path / "store")) == committed


def test_build_across_a_compaction_is_refused(tmp_path):
    from repro.storage.compactor import Compactor

    h, store, appender = _balanced_store(tmp_path)
    leaf = node_file_name(h.leaf_node_id(0))
    appender.append(np.zeros(40, dtype=np.int64))
    base_size = store.size_bytes(leaf)
    build = store.begin_build(replace_all=False)
    build.add(leaf, store.read_physical(leaf))
    Compactor(store).run()
    # The fold rewrote the staged leaf with more rows and other bytes.
    assert store.size_bytes(leaf) != base_size
    committed = _contents(store)

    with pytest.raises(StorageError):
        build.commit()
    build.abort()

    assert _contents(store) == committed
    assert _contents(DurableBitmapStore(tmp_path / "store")) == committed


def test_two_open_builds_reserve_distinct_generations(tmp_path):
    store = DurableBitmapStore(tmp_path)
    store.write("a.wah", b"one")
    first = store.begin_build(replace_all=False)
    second = store.begin_build(replace_all=False)
    assert 1 < first.generation < second.generation
    first.add("b.wah", b"first")
    second.add("b.wah", b"second")

    first.commit()
    with pytest.raises(StorageError):
        second.commit()
    second.abort()
    store.write("c.wah", b"three")

    assert store.generation > second.generation  # never reused
    reopened = DurableBitmapStore(tmp_path)
    assert reopened.read("b.wah") == b"first"
    assert sorted(reopened.names()) == ["a.wah", "b.wah", "c.wah"]


def test_refused_build_in_a_with_block_aborts(tmp_path):
    store = DurableBitmapStore(tmp_path)
    with pytest.raises(StorageError):
        with store.begin_build(replace_all=False) as build:
            build.add("a.wah", b"stale")
            store.write("b.wah", b"lands first")
    with pytest.raises(StorageError, match="already committed"):
        build.commit()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        MANIFEST_NAME,
        store.manifest.entry("b.wah").physical,
    ]


def test_one_commit_event_and_counter_per_manifest_swap(tmp_path):
    from repro.obs import TraceCollector, collecting_metrics, recording
    from repro.storage.compactor import Compactor

    collector = TraceCollector()
    with recording(collector), collecting_metrics() as metrics:
        h, store, appender = _balanced_store(tmp_path)
        appender.append(np.array([1, 2, 3], dtype=np.int64))
        Compactor(store).run()
        store.write("meta.bin", b"sidecar")
        store.delete("meta.bin")

    commits = collector.filter("manifest.commit")
    assert store.generation == 5
    assert metrics.counter("manifest_commits_total") == 5
    assert [event.attrs["generation"] for event in commits] == [
        1, 2, 3, 4, 5
    ]
    assert metrics.counter("delta_commits_total") == 1
    (delta_commit,) = [e for e in commits if "seq" in e.attrs]
    assert delta_commit.attrs["seq"] == 1
    assert delta_commit.attrs["rows"] == 3


# ----------------------------------------------------------------------
# Plain-filestore atomic write path (satellite bugfix)
# ----------------------------------------------------------------------
def test_filestore_write_leaves_no_tmp_sibling(tmp_path):
    store = BitmapFileStore(tmp_path)
    store.write("a.wah", b"payload")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wah"]


def test_filestore_names_hides_staging_files(tmp_path):
    store = BitmapFileStore(tmp_path)
    store.write("a.wah", b"payload")
    (tmp_path / ".b.wah.tmp").write_bytes(b"torn leftovers")
    assert list(store.names()) == ["a.wah"]


def test_filestore_write_error_is_typed(tmp_path):
    # A directory squatting on the target name makes the commit
    # rename fail with an OSError (works even when running as root,
    # unlike a read-only directory).
    store = BitmapFileStore(tmp_path)
    (tmp_path / "a.wah").mkdir()
    with pytest.raises(StorageWriteError):
        store.write("a.wah", b"payload")


def test_filestore_delete_error_is_typed(tmp_path):
    store = BitmapFileStore(tmp_path)
    (tmp_path / "a.wah").mkdir()
    with pytest.raises(StorageWriteError):
        store.delete("a.wah")


def test_filestore_delete_missing_still_filemissing(tmp_path):
    store = BitmapFileStore(tmp_path)
    with pytest.raises(FileMissingError):
        store.delete("ghost.wah")
