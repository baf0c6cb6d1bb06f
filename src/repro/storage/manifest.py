"""Durable index lifecycle: manifested, atomically committed stores.

A directory of bitmap files is only an *index* if something vouches for
which files belong to it and what their bytes should be.  This module
adds that something: a checksummed ``MANIFEST`` at the root of the
store directory listing every logical bitmap file with its physical
(generation-prefixed) file name, size, CRC32, and codec, plus a
fingerprint of the hierarchy the index was built for.

The lifecycle guarantees:

* **Atomic builds** — every manifest change (a rebuild, a single
  write, a delta append, a compaction, a delete, a repair) is one
  :class:`IndexBuild`: it reserves a generation number no other build
  of the store has used, stages its bitmaps under ``g<generation>-``
  physical names that nothing references yet, then commits by
  atomically replacing the ``MANIFEST`` (tmp + fsync + rename +
  directory fsync).  A crash at *any* byte of the build or commit
  leaves the directory describing exactly the old generation or
  exactly the new one — never a mixture — because readers resolve
  logical names only through the manifest.  A build that something
  else committed ahead of is refused, never merged.
* **Startup recovery** — opening a directory validates the manifest
  (self-checksum, format version, referenced files present with the
  recorded sizes), garbage-collects orphaned staging files left by
  crashed builds, and refuses to serve unmanifested state with a typed
  :class:`~repro.errors.ManifestError`.
* **Scrub and repair** — :mod:`repro.storage.scrub` walks the manifest,
  verifies every file's CRC against it, and heals internal-node rot
  from the hierarchy's natural redundancy (PAPER §2.1: an internal
  bitmap is exactly the OR of its children's).

Crash-safety is not assumed; it is *tested*: every protocol step calls
:meth:`~repro.storage.faults.FaultPolicy.crash_point`, and the crash
matrix in ``tests/chaos/test_crash_matrix.py`` injects a simulated
crash at each one, reopens, and asserts bit-identical old-or-new state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from types import TracebackType

from ..errors import (
    BitmapDecodeError,
    FileMissingError,
    ManifestError,
    SimulatedCrashError,
    StorageError,
)
from ..obs import get_metrics, record
from .faults import FaultPolicy
from .filestore import BitmapFileStore

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT_VERSION",
    "QUARANTINE_DIR_NAME",
    "ManifestEntry",
    "Manifest",
    "DeltaManifest",
    "IndexBuild",
    "DurableBitmapStore",
    "hierarchy_fingerprint",
    "physical_file_name",
    "delta_file_name",
    "parse_delta_file_name",
]

#: File name of the manifest at the root of a store directory.
MANIFEST_NAME = "MANIFEST"

#: On-disk manifest format version; bumped on incompatible changes.
MANIFEST_FORMAT_VERSION = 1

#: Directory (inside the store) holding quarantined corrupt files.
QUARANTINE_DIR_NAME = ".quarantine"

_CRC_PREFIX = b"crc32:"


def physical_file_name(generation: int, name: str) -> str:
    """Physical on-disk file name for a logical name in a generation.

    Generations never share physical names, so a staged build can
    coexist with the live generation and commit by manifest swap alone.
    """
    return f"g{generation:08d}-{name}"


def delta_file_name(seq: int, node_id: int) -> str:
    """Logical file name of one node's bitmap in delta generation
    ``seq``.

    Delta names are disjoint from base names
    (:func:`~repro.storage.catalog.node_file_name`), so base and delta
    payloads for the same node coexist in one manifest, one buffer
    pool, and one IO ledger without aliasing.
    """
    return f"delta_{seq:06d}-node_{node_id}.wah"


def parse_delta_file_name(name: str) -> tuple[int, int] | None:
    """Inverse of :func:`delta_file_name`.

    Returns ``(seq, node_id)``, or ``None`` when the name is not a
    delta file name (e.g. a base ``node_<id>.wah``).
    """
    if not (name.startswith("delta_") and name.endswith(".wah")):
        return None
    stem = name[len("delta_"):-len(".wah")]
    seq_part, sep, node_part = stem.partition("-node_")
    if not sep or not seq_part.isdigit() or not node_part.isdigit():
        return None
    return int(seq_part), int(node_part)


def hierarchy_fingerprint(hierarchy) -> str:
    """Stable SHA-256 fingerprint of a hierarchy's structure.

    Computed over the canonical JSON of
    :func:`repro.hierarchy.serialization.hierarchy_to_dict`, so two
    structurally identical hierarchies fingerprint identically across
    processes and platforms.  Stored in the manifest and checked on
    open, catching the "index built for a different hierarchy" class
    of operator error before any query runs.
    """
    from ..hierarchy.serialization import hierarchy_to_dict

    canonical = json.dumps(
        hierarchy_to_dict(hierarchy),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _payload_codec_name(payload: bytes) -> str:
    """Codec label for a manifest entry (``"raw"`` when unframed)."""
    from ..bitmap.serialization import codec_name, payload_codec

    try:
        return codec_name(payload_codec(payload))
    except BitmapDecodeError:
        return "raw"


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    """One logical bitmap file as recorded by the manifest.

    Attributes:
        name: logical file name queries use (``node_<id>.wah``).
        physical: generation-prefixed on-disk file name.
        size: exact payload size in bytes.
        crc32: CRC32 of the full payload (detects at-rest rot).
        codec: serialization codec label (``wah``/``plwah``/
            ``roaring``/``plain``/``raw``).
    """

    name: str
    physical: str
    size: int
    crc32: int
    codec: str

    @classmethod
    def for_payload(
        cls, name: str, physical: str, payload: bytes
    ) -> "ManifestEntry":
        """Build an entry describing ``payload`` exactly."""
        return cls(
            name=name,
            physical=physical,
            size=len(payload),
            crc32=zlib.crc32(payload),
            codec=_payload_codec_name(payload),
        )

    def matches(self, payload: bytes) -> bool:
        """Whether a payload is byte-exactly what was committed."""
        return (
            len(payload) == self.size
            and zlib.crc32(payload) == self.crc32
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "physical": self.physical,
            "size": self.size,
            "crc32": self.crc32,
            "codec": self.codec,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "ManifestEntry":
        """Parse an entry; raises :class:`ManifestError` if malformed."""
        try:
            physical = payload["physical"]
            size = payload["size"]
            crc32 = payload["crc32"]
            codec = payload["codec"]
        except (KeyError, TypeError) as err:
            raise ManifestError(
                f"manifest entry for {name!r} is malformed: {err}"
            ) from None
        if (
            not isinstance(physical, str)
            or not isinstance(size, int)
            or not isinstance(crc32, int)
            or not isinstance(codec, str)
            or size < 0
        ):
            raise ManifestError(
                f"manifest entry for {name!r} has invalid field types"
            )
        return cls(
            name=name,
            physical=physical,
            size=size,
            crc32=crc32,
            codec=codec,
        )


@dataclass(frozen=True)
class DeltaManifest:
    """One committed delta generation: a batch of appended rows.

    A delta generation records ``num_rows`` appended rows as one
    per-node tail bitmap each (logical names from
    :func:`delta_file_name`).  Deltas are immutable once committed;
    they are retired only by compaction, which folds them into a new
    base generation and drops them from the manifest in the same
    atomic commit.  ``seq`` numbers are assigned monotonically by the
    store and never reused, so a cached delta payload can never alias
    a later generation's.
    """

    seq: int
    num_rows: int
    entries: dict[str, ManifestEntry] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "seq": self.seq,
            "num_rows": self.num_rows,
            "entries": {
                name: entry.to_dict()
                for name, entry in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeltaManifest":
        """Parse a delta generation; raises
        :class:`~repro.errors.ManifestError` if malformed."""
        if not isinstance(payload, dict):
            raise ManifestError(
                "manifest delta generation must be an object"
            )
        seq = payload.get("seq")
        num_rows = payload.get("num_rows")
        raw_entries = payload.get("entries")
        if (
            not isinstance(seq, int)
            or seq <= 0
            or not isinstance(num_rows, int)
            or num_rows <= 0
            or not isinstance(raw_entries, dict)
        ):
            raise ManifestError(
                f"manifest delta generation is malformed: "
                f"seq={seq!r}, num_rows={num_rows!r}"
            )
        return cls(
            seq=seq,
            num_rows=num_rows,
            entries={
                name: ManifestEntry.from_dict(name, value)
                for name, value in raw_entries.items()
            },
        )


@dataclass(frozen=True)
class Manifest:
    """A committed index generation: the file list plus provenance.

    Immutable; commits replace the whole manifest.  The serialized form
    is canonical JSON followed by its own CRC32 line, so a torn or
    bit-flipped manifest is detected before a single entry is trusted.

    ``entries`` lists the base generation; ``deltas`` lists the live
    delta generations (appended row batches) in seq order.  A manifest
    without deltas serializes byte-identically to the pre-delta format
    (the ``deltas`` / ``delta_seq`` keys are omitted when trivial), so
    existing stores stay readable and re-writable in place.
    """

    generation: int
    entries: dict[str, ManifestEntry] = field(default_factory=dict)
    hierarchy_fingerprint: str = ""
    num_rows: int = 0
    format_version: int = MANIFEST_FORMAT_VERSION
    deltas: tuple[DeltaManifest, ...] = ()
    delta_seq: int = 0

    def entry(self, name: str) -> ManifestEntry:
        """The entry for a logical name — base or delta (raises
        :class:`~repro.errors.FileMissingError` when absent)."""
        found = self.entries.get(name)
        if found is not None:
            return found
        for delta in self.deltas:
            found = delta.entries.get(name)
            if found is not None:
                return found
        raise FileMissingError(name)

    def has(self, name: str) -> bool:
        """Whether any generation (base or delta) lists this name."""
        return name in self.entries or any(
            name in delta.entries for delta in self.deltas
        )

    def all_entries(self) -> dict[str, ManifestEntry]:
        """Every live entry, base and delta, in one mapping.

        Base and delta name spaces are disjoint by construction, so
        the merge cannot shadow anything.
        """
        merged = dict(self.entries)
        for delta in self.deltas:
            merged.update(delta.entries)
        return merged

    def physical_names(self) -> set[str]:
        """The physical file names this generation references — base
        *and* delta entries, so GC and orphan sweeps never reap a
        live delta file."""
        referenced = {
            entry.physical for entry in self.entries.values()
        }
        for delta in self.deltas:
            referenced.update(
                entry.physical for entry in delta.entries.values()
            )
        return referenced

    @property
    def total_rows(self) -> int:
        """Base rows plus every live delta generation's rows — the
        row count merge-on-read answers describe."""
        return self.num_rows + sum(
            delta.num_rows for delta in self.deltas
        )

    def without(self, *names: str) -> "Manifest":
        """This manifest with the named entries (base or delta)
        dropped and everything else carried forward."""
        drop = set(names)
        return replace(
            self,
            entries={
                name: entry
                for name, entry in self.entries.items()
                if name not in drop
            },
            deltas=tuple(
                replace(
                    delta,
                    entries={
                        name: entry
                        for name, entry in delta.entries.items()
                        if name not in drop
                    },
                )
                for delta in self.deltas
            ),
        )

    def replacing(
        self, staged: dict[str, "ManifestEntry"]
    ) -> "Manifest":
        """This manifest with each staged entry replacing the entry of
        the same name.

        A staged name that belongs to a live delta generation (a
        repaired delta file) goes back into that generation's entry
        set; every other name goes into the base.
        """
        live = {delta.seq for delta in self.deltas}
        entries = dict(self.entries)
        into_delta: dict[int, dict[str, ManifestEntry]] = {}
        for name, entry in staged.items():
            parsed = parse_delta_file_name(name)
            if parsed is not None and parsed[0] in live:
                into_delta.setdefault(parsed[0], {})[name] = entry
            else:
                entries[name] = entry
        return replace(
            self,
            entries=entries,
            deltas=tuple(
                replace(
                    delta,
                    entries={
                        **delta.entries,
                        **into_delta.get(delta.seq, {}),
                    },
                )
                for delta in self.deltas
            ),
        )

    def to_bytes(self) -> bytes:
        """Serialize to the self-checksummed on-disk representation."""
        doc = {
            "format_version": self.format_version,
            "generation": self.generation,
            "hierarchy_fingerprint": self.hierarchy_fingerprint,
            "num_rows": self.num_rows,
            "entries": {
                name: entry.to_dict()
                for name, entry in sorted(self.entries.items())
            },
        }
        if self.deltas:
            doc["deltas"] = [
                delta.to_dict() for delta in self.deltas
            ]
        if self.delta_seq:
            doc["delta_seq"] = self.delta_seq
        body = json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        crc = zlib.crc32(body)
        return body + b"\n" + _CRC_PREFIX + f"{crc:08x}".encode() + b"\n"

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        """Parse and validate a serialized manifest.

        Raises :class:`~repro.errors.ManifestError` on a bad
        self-checksum, unsupported format version, or malformed
        structure — a manifest is trusted in full or not at all.
        """
        try:
            body, crc_line, trailer = data.rsplit(b"\n", 2)
        except ValueError:
            raise ManifestError(
                "manifest is truncated (missing checksum line)"
            ) from None
        if trailer != b"" or not crc_line.startswith(_CRC_PREFIX):
            raise ManifestError("manifest checksum line is malformed")
        try:
            stored_crc = int(crc_line[len(_CRC_PREFIX):], 16)
        except ValueError:
            raise ManifestError(
                "manifest checksum line is malformed"
            ) from None
        actual_crc = zlib.crc32(body)
        if stored_crc != actual_crc:
            raise ManifestError(
                f"manifest failed its self-checksum: stored "
                f"0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
            )
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise ManifestError(
                f"manifest body is not valid JSON: {err}"
            ) from None
        if not isinstance(doc, dict):
            raise ManifestError("manifest body must be a JSON object")
        version = doc.get("format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ManifestError(
                f"unsupported manifest format version {version!r}, "
                f"expected {MANIFEST_FORMAT_VERSION}"
            )
        generation = doc.get("generation")
        if not isinstance(generation, int) or generation < 0:
            raise ManifestError(
                f"manifest generation must be a non-negative int, "
                f"got {generation!r}"
            )
        raw_entries = doc.get("entries")
        if not isinstance(raw_entries, dict):
            raise ManifestError("manifest entries must be an object")
        entries = {
            name: ManifestEntry.from_dict(name, value)
            for name, value in raw_entries.items()
        }
        raw_deltas = doc.get("deltas", [])
        if not isinstance(raw_deltas, list):
            raise ManifestError("manifest deltas must be a list")
        deltas = tuple(
            DeltaManifest.from_dict(item) for item in raw_deltas
        )
        seqs = [delta.seq for delta in deltas]
        if seqs != sorted(set(seqs)):
            raise ManifestError(
                "manifest delta generations must have strictly "
                f"increasing seq numbers, got {seqs!r}"
            )
        last_seq = seqs[-1] if seqs else 0
        delta_seq = doc.get("delta_seq", last_seq)
        if not isinstance(delta_seq, int) or delta_seq < last_seq:
            raise ManifestError(
                f"manifest delta_seq {delta_seq!r} is behind the "
                f"newest live delta generation {last_seq}"
            )
        return cls(
            generation=generation,
            entries=entries,
            hierarchy_fingerprint=str(
                doc.get("hierarchy_fingerprint", "")
            ),
            num_rows=int(doc.get("num_rows", 0)),
            format_version=version,
            deltas=deltas,
            delta_seq=delta_seq,
        )


#: How a build turns the manifest it began from plus the entries it
#: staged into the manifest it commits.  The build stamps its reserved
#: generation on the result.
ManifestTransform = Callable[[Manifest, dict[str, ManifestEntry]], Manifest]


class IndexBuild:
    """One staged change to a store's manifest.

    Every manifest change outside open-time recovery is one build: a
    rebuild or partial update (:meth:`DurableBitmapStore.begin_build`),
    a delta generation (:meth:`DurableBitmapStore.begin_delta`), a
    compaction fold, a delete and a quarantine.  They differ only in the
    ``transform`` applied at :meth:`commit`.

    Creating a build reserves a generation number no other build of
    the store has used; staged files live under that generation's
    physical names, which nothing references until :meth:`commit`
    atomically replaces the manifest.  So an aborted or crashed build
    is invisible to readers, its leftovers are swept at the next
    commit or open, and no two builds ever share a physical name.
    :meth:`commit` refuses a build that anything committed ahead of.

    Usable as a context manager: commit on clean exit, abort on error
    or refusal.  A :class:`~repro.errors.SimulatedCrashError` escaping
    the ``with`` block deliberately skips the abort cleanup: the
    injected crash must leave the directory exactly as a real process
    death would.
    """

    def __init__(
        self, store: "DurableBitmapStore", transform: ManifestTransform
    ):
        self._store = store
        self._transform = transform
        self._base, self._generation = store._reserve_generation()
        self._staged: dict[str, ManifestEntry] = {}
        self._closed = False

    @property
    def generation(self) -> int:
        """The generation this build stages under and commits as."""
        return self._generation

    @property
    def seq(self) -> int:
        """The delta seq a generation appended by this build commits
        as: the store's next delta seq when the build began."""
        return self._base.delta_seq + 1

    @property
    def staged_names(self) -> tuple[str, ...]:
        """Logical names staged so far, in insertion order."""
        return tuple(self._staged)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                "index build already committed or aborted"
            )

    def add(self, name: str, payload: bytes) -> None:
        """Stage one bitmap file under this build's generation.

        The payload is written (atomically, fsynced) under the build's
        physical name; the live generation is untouched.  Re-adding a
        name replaces its staged payload.
        """
        self._check_open()
        payload = bytes(payload)
        physical = physical_file_name(self._generation, name)
        self._store._write_physical(physical, payload)
        self._staged[name] = ManifestEntry.for_payload(
            name, physical, payload
        )

    def commit(self) -> Manifest:
        """Atomically publish the staged generation.

        Replaces the manifest via tmp + fsync + rename + directory
        fsync — the rename is the commit point — then sweeps every
        file the new manifest does not reference.  A crash before the
        rename leaves the old generation fully live; a crash after it
        leaves the new generation fully live (the sweep re-runs at the
        next open).

        Raises :class:`~repro.errors.StorageError` (and leaves the
        build open for :meth:`abort`) when any other build committed
        since this one began: its staged files were computed against a
        manifest that is no longer live.
        """
        self._check_open()
        store = self._store
        with store._reorg_lock:
            previous = store.manifest
            if previous.generation != self._base.generation:
                raise StorageError(
                    f"refusing stale build of generation "
                    f"{self._generation}: it began at generation "
                    f"{self._base.generation}, but generation "
                    f"{previous.generation} committed since; "
                    f"serialize appends through one DeltaAppender "
                    f"and retry the build"
                )
            manifest = replace(
                self._transform(previous, dict(self._staged)),
                generation=self._generation,
            )
            store._commit_manifest(manifest)
            self._closed = True
        metrics = get_metrics()
        delta_attrs = {}
        if manifest.delta_seq != previous.delta_seq:
            delta_attrs = {
                "seq": manifest.delta_seq,
                "rows": manifest.deltas[-1].num_rows,
            }
            metrics.inc("delta_commits_total")
        record(
            "manifest.commit",
            MANIFEST_NAME,
            generation=self._generation,
            files=len(self._staged),
            **delta_attrs,
        )
        metrics.inc("manifest_commits_total")
        return manifest

    def abort(self) -> None:
        """Discard the staged files (best effort) without committing."""
        self._check_open()
        self._closed = True
        for entry in self._staged.values():
            try:
                self._store._delete_physical(entry.physical)
            except StorageError:
                pass  # swept at the next commit or open

    def __enter__(self) -> "IndexBuild":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._closed:
            return
        if exc_type is None:
            try:
                self.commit()
            except StorageError:
                self.abort()
                raise
            return
        if isinstance(exc, SimulatedCrashError):
            # A real crash runs no cleanup; neither does an injected
            # one — recovery at the next open is what's under test.
            self._closed = True
            return
        self.abort()


class DurableBitmapStore(BitmapFileStore):
    """A directory-backed bitmap store with a manifest-committed
    lifecycle.

    Logical names (what catalogs, pools, and executors use) resolve
    through the current :class:`Manifest` to generation-prefixed
    physical files, so builds stage invisibly and commit atomically.
    Opening the directory runs startup recovery: the manifest is
    validated (self-checksum, format version, referenced files present
    at their recorded sizes), orphaned staging files from crashed
    builds are garbage-collected, and unmanifested state is refused
    with a typed :class:`~repro.errors.ManifestError`.

    Args:
        directory: the store directory (required — the durable
            lifecycle is meaningless without real files).
        fault_policy: read/write fault injector, as for
            :class:`~repro.storage.filestore.BitmapFileStore`.
        verify_files: validate at open that every manifest entry's
            physical file exists with the recorded size.  Pass
            ``False`` when opening for scrub/repair of a store known
            to be damaged.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fault_policy: FaultPolicy | None = None,
        verify_files: bool = True,
    ):
        if directory is None:
            raise ValueError(
                "DurableBitmapStore requires a directory; use "
                "BitmapFileStore for in-memory stores"
            )
        super().__init__(directory, fault_policy)
        assert self._directory is not None
        self._manifest_path = self._directory / MANIFEST_NAME
        # Serializes generation reservations and commits (and the
        # whole run of a DeltaAppender or Compactor) against each
        # other.  Readers never take it.
        self._reorg_lock = threading.RLock()
        self._recover(verify_files)
        self._reserved = self._manifest.generation

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, verify_files: bool) -> None:
        """Load (or initialize) the manifest, heal the quarantine
        crash window, check the referenced files and sweep the rest."""
        assert self._directory is not None
        if not self._manifest_path.exists():
            unmanifested = [
                path.name
                for path in self._directory.iterdir()
                if path.is_file() and not path.name.startswith(".")
            ]
            if unmanifested:
                raise ManifestError(
                    f"directory {str(self._directory)!r} holds "
                    f"{len(unmanifested)} bitmap files but no "
                    f"{MANIFEST_NAME}; refusing to serve unmanifested "
                    f"state (first: {sorted(unmanifested)[:3]})"
                )
            self._manifest = Manifest(generation=0)
            self._write_manifest(self._manifest)
            record(
                "manifest.init", MANIFEST_NAME, generation=0
            )
            return
        try:
            data = self._manifest_path.read_bytes()
        except OSError as err:
            raise ManifestError(
                f"cannot read {MANIFEST_NAME}: {err}"
            ) from err
        manifest = Manifest.from_bytes(data)
        manifest = self._heal_quarantined(manifest)
        if verify_files:
            self._verify_manifest_files(manifest)
        self._manifest = manifest
        self._sweep()
        record(
            "manifest.open",
            MANIFEST_NAME,
            generation=manifest.generation,
            files=len(manifest.entries),
        )

    def _heal_quarantined(self, manifest: Manifest) -> Manifest:
        """Drop entries whose physical file sits in quarantine.

        Covers the crash window between moving a corrupt file into
        ``.quarantine/`` and committing the manifest without its entry:
        on reopen the move is completed logically by rewriting the
        manifest, instead of refusing to serve a file that was already
        condemned.
        """
        assert self._directory is not None
        quarantine = self._directory / QUARANTINE_DIR_NAME
        if not quarantine.is_dir():
            return manifest
        stranded = {
            name
            for name, entry in manifest.all_entries().items()
            if not (self._directory / entry.physical).exists()
            and (quarantine / entry.physical).exists()
        }
        if not stranded:
            return manifest
        healed = replace(
            manifest.without(*stranded),
            generation=manifest.generation + 1,
        )
        self._write_manifest(healed)
        for name in sorted(stranded):
            record("manifest.heal-quarantined", name)
        return healed

    def _verify_manifest_files(self, manifest: Manifest) -> None:
        assert self._directory is not None
        for name, entry in sorted(manifest.all_entries().items()):
            path = self._directory / entry.physical
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                raise ManifestError(
                    f"manifest references {entry.physical!r} (for "
                    f"{name!r}) but the file is missing; run scrub "
                    f"to repair or quarantine"
                ) from None
            except OSError as err:
                raise ManifestError(
                    f"cannot stat {entry.physical!r}: {err}"
                ) from err
            if size != entry.size:
                raise ManifestError(
                    f"{entry.physical!r} (for {name!r}) is "
                    f"{size} bytes on disk but the manifest records "
                    f"{entry.size}; run scrub to repair or quarantine"
                )

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Manifest:
        """The currently committed manifest."""
        return self._manifest

    @property
    def generation(self) -> int:
        """The committed generation number (0 = empty store)."""
        return self._manifest.generation

    @property
    def delta_manifests(self) -> tuple[DeltaManifest, ...]:
        """The live delta generations, oldest first."""
        return self._manifest.deltas

    @property
    def total_num_rows(self) -> int:
        """Base rows plus every live delta's appended rows."""
        return self._manifest.total_rows

    def _reserve_generation(self) -> tuple[Manifest, int]:
        """The committed manifest plus a generation number no build
        of this store has used (see :class:`IndexBuild`).

        Taken under the reorg lock, so a build never begins between a
        commit and its sweep: every file a sweep removes belongs to a
        build that began before that commit and will be refused.
        """
        with self._reorg_lock:
            # Every commit stamps a reserved number, so the counter
            # never trails the committed generation.
            self._reserved += 1
            return self._manifest, self._reserved

    def _write_manifest(
        self, manifest: Manifest, label_prefix: str | None = None
    ) -> None:
        """Atomically replace the MANIFEST file with ``manifest``.

        The commit path passes ``label_prefix="commit.manifest"`` to
        consult the ``.begin`` / ``.torn`` / ``.rename`` crash points;
        open-time writes consult none.
        """
        try:
            with self._lock:
                self._atomic_replace(
                    self._manifest_path,
                    manifest.to_bytes(),
                    label_prefix=label_prefix,
                )
                self._fsync_directory()
        except OSError as err:
            raise self._wrap_write_error(MANIFEST_NAME, err) from err

    def _fsync_directory(self) -> None:
        assert self._directory is not None
        try:
            fd = os.open(self._directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _commit_manifest(self, manifest: Manifest) -> None:
        """The commit protocol: manifest swap, then sweep.

        Crash points (consulted via the fault policy):
        ``commit.manifest.begin`` / ``commit.manifest.torn`` /
        ``commit.manifest.rename`` around the atomic manifest replace
        (the rename *is* the commit point), then ``commit.gc`` before
        each unlink of a now-unreferenced file.  Called by
        :meth:`IndexBuild.commit` under the reorg lock.
        """
        self._write_manifest(manifest, label_prefix="commit.manifest")
        self._manifest = manifest
        self._sweep(crash_point="commit.gc")

    def _sweep(self, crash_point: str | None = None) -> None:
        """Unlink every file the committed manifest does not reference.

        Runs after each commit (consulting ``crash_point`` before each
        unlink) and at open, where it finishes a sweep a crash cut
        short and removes a dead build's staged and tmp files.  A
        commit's sweep also removes the files of builds still staging;
        each of those began before the commit, so its own commit will
        be refused.  Unlinks are best effort: a failure is retried by
        the next sweep.
        """
        assert self._directory is not None
        policy = self._fault_policy if crash_point else None
        referenced = self._manifest.physical_names() | {MANIFEST_NAME}
        removed = 0
        for path in sorted(self._directory.iterdir()):
            if not path.is_file() or path.name in referenced:
                continue
            if policy is not None:
                policy.crash_point(crash_point)
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            record("manifest.gc", path.name)
        if removed:
            get_metrics().inc("manifest_gc_files_total", removed)

    def _write_physical(self, physical: str, payload: bytes) -> None:
        """Atomically write a physical file (:meth:`IndexBuild.add`)."""
        assert self._directory is not None
        path = self._directory / physical
        try:
            with self._lock:
                self._atomic_replace(path, payload)
        except OSError as err:
            raise self._wrap_write_error(physical, err) from err

    def _delete_physical(self, physical: str) -> None:
        assert self._directory is not None
        try:
            (self._directory / physical).unlink()
        except FileNotFoundError:
            raise FileMissingError(physical) from None
        except OSError as err:
            raise self._wrap_write_error(physical, err) from err

    def read_physical(self, name: str) -> bytes:
        """Read an entry's bytes straight from its physical file.

        Bypasses the read-fault policy — this is the scrubber's view
        of what is *actually on disk*, as opposed to what a faulty
        read path would deliver.
        """
        entry = self._manifest.entry(name)
        assert self._directory is not None
        try:
            return (self._directory / entry.physical).read_bytes()
        except FileNotFoundError:
            raise FileMissingError(name) from None
        except OSError as err:
            raise self._wrap_os_error(name, err) from err

    # ------------------------------------------------------------------
    # Builds
    # ------------------------------------------------------------------
    def begin_build(
        self,
        hierarchy_fingerprint: str = "",
        num_rows: int = 0,
        replace_all: bool = True,
    ) -> IndexBuild:
        """Start a staged build of base files.

        Use as a context manager::

            with store.begin_build(fingerprint, num_rows) as build:
                build.add("node_0.wah", payload)
            # committed atomically here (aborted on exception)

        ``replace_all=True`` (an index rebuild) commits exactly the
        staged file set and supersedes the live delta generations —
        the rebuild was computed from the full current column.
        ``replace_all=False`` (a partial update such as a scrub repair)
        replaces staged names and carries everything else forward
        (:meth:`Manifest.replacing`).  An empty fingerprint or zero
        ``num_rows`` keeps the committed value.
        """

        def transform(
            base: Manifest, staged: dict[str, ManifestEntry]
        ) -> Manifest:
            updated = (
                replace(base, entries=staged, deltas=())
                if replace_all
                else base.replacing(staged)
            )
            return replace(
                updated,
                hierarchy_fingerprint=(
                    hierarchy_fingerprint or base.hierarchy_fingerprint
                ),
                num_rows=num_rows or base.num_rows,
            )

        return IndexBuild(self, transform)

    def begin_delta(self, num_rows: int) -> IndexBuild:
        """Start a staged delta generation for ``num_rows`` appended
        rows.

        Use as a context manager::

            with store.begin_delta(len(batch)) as delta:
                delta.add(delta_file_name(delta.seq, node_id), payload)
            # committed atomically here (aborted on exception)

        The commit appends one :class:`DeltaManifest` of the staged
        files as seq :attr:`IndexBuild.seq` and leaves the base and
        older deltas untouched.  Higher-level callers should prefer
        :class:`~repro.storage.delta.DeltaAppender`, which computes
        the per-node tail bitmaps and holds the reorg lock across
        staging and commit.
        """
        if num_rows <= 0:
            raise ValueError(
                f"a delta generation must append at least one row, "
                f"got num_rows={num_rows}"
            )

        def transform(
            base: Manifest, staged: dict[str, ManifestEntry]
        ) -> Manifest:
            seq = base.delta_seq + 1
            return replace(
                base,
                deltas=base.deltas
                + (DeltaManifest(seq, num_rows, staged),),
                delta_seq=seq,
            )

        return IndexBuild(self, transform)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, name: str) -> str:
        """Condemn an entry: park its file, drop it from the manifest.

        The physical file (when still present) is moved into
        ``.quarantine/`` — preserved as evidence, invisible to readers
        and to GC — and a new generation is committed without the
        entry.  Returns the quarantined physical file name.  Readers
        of the logical name subsequently get
        :class:`~repro.errors.FileMissingError`, which the executor's
        degraded-read path turns into a child-union recovery for
        internal nodes.
        """
        with self._reorg_lock:
            entry = self._manifest.entry(name)
            assert self._directory is not None
            quarantine_dir = self._directory / QUARANTINE_DIR_NAME
            source = self._directory / entry.physical
            try:
                quarantine_dir.mkdir(exist_ok=True)
                if source.exists():
                    os.replace(
                        source, quarantine_dir / entry.physical
                    )
            except OSError as err:
                raise self._wrap_write_error(
                    entry.physical, err
                ) from err
            IndexBuild(self, lambda base, _: base.without(name)).commit()
        record("manifest.quarantine", name, physical=entry.physical)
        get_metrics().inc("scrub_quarantined_total")
        return entry.physical

    def quarantined_names(self) -> list[str]:
        """Physical file names currently parked in quarantine."""
        assert self._directory is not None
        quarantine_dir = self._directory / QUARANTINE_DIR_NAME
        if not quarantine_dir.is_dir():
            return []
        return sorted(
            path.name
            for path in quarantine_dir.iterdir()
            if path.is_file()
        )

    # ------------------------------------------------------------------
    # Logical-name file API (what pools/catalogs/executors use)
    # ------------------------------------------------------------------
    def write(self, name: str, payload: bytes) -> None:
        """Write one file as a single-entry committed generation.

        A one-file ``begin_build(replace_all=False)``: it stages the
        payload under a reserved generation, then commits a manifest
        carrying every other entry forward.  Like any build it raises
        :class:`~repro.errors.StorageError` when another commit lands
        while it stages.  Bulk writers should prefer
        :meth:`begin_build`, which commits once for the whole set.
        """
        with self.begin_build(replace_all=False) as build:
            build.add(name, payload)

    def read(self, name: str) -> bytes:
        """Fetch a logical file's content through the manifest.

        Unmanifested names raise :class:`~repro.errors.
        FileMissingError` even if a stray file with that name exists
        on disk — the manifest is the only source of truth.
        """
        entry = self._manifest.entry(name)
        return super().read(entry.physical)

    def physical_name(self, name: str) -> str:
        """The generation-prefixed file the manifest maps a logical
        name to; no two builds share one (raises
        :class:`~repro.errors.FileMissingError` when absent)."""
        return self._manifest.entry(name).physical

    def size_bytes(self, name: str) -> int:
        """Size of a logical file, as recorded by the manifest."""
        return self._manifest.entry(name).size

    def delete(self, name: str) -> None:
        """Remove a logical file by committing a generation without it."""
        with self._reorg_lock:
            entry = self._manifest.entry(name)
            IndexBuild(self, lambda base, _: base.without(name)).commit()
        record("manifest.delete", name, physical=entry.physical)

    def exists(self, name: str) -> bool:
        """Whether the manifest lists a logical file with this name
        (in the base generation or any live delta)."""
        return self._manifest.has(name)

    def names(self) -> Iterator[str]:
        """Iterate the manifest's logical file names (base and
        delta), sorted."""
        yield from sorted(self._manifest.all_entries())

    def verify_hierarchy(self, hierarchy) -> None:
        """Check the manifest was built for this hierarchy.

        Raises :class:`~repro.errors.ManifestError` on a fingerprint
        mismatch; an empty stored fingerprint (pre-durability data or
        ad-hoc writes) is accepted.
        """
        stored = self._manifest.hierarchy_fingerprint
        if not stored:
            return
        expected = hierarchy_fingerprint(hierarchy)
        if stored != expected:
            raise ManifestError(
                f"index was built for a different hierarchy: "
                f"manifest fingerprint {stored[:12]}..., expected "
                f"{expected[:12]}..."
            )

    def __repr__(self) -> str:
        return (
            f"DurableBitmapStore(directory="
            f"{str(self._directory)!r}, "
            f"generation={self._manifest.generation}, "
            f"files={len(self._manifest.entries)}, "
            f"deltas={len(self._manifest.deltas)})"
        )
