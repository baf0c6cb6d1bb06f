"""Simulated secondary storage for bitmap files.

Each hierarchy node's bitmap lives in one named file; the paper's IO
metric — "amount of data read" — is the total size of the files fetched.
The store can be backed by a real directory (so file sizes are genuinely
what the OS reports) or kept in memory for fast tests.

All failure modes surface as typed :class:`~repro.errors.StorageError`
subclasses carrying the file name and offset — raw ``OSError`` /
``KeyError`` never leak (reads raise :class:`~repro.errors.
StorageReadError` subclasses, writes and deletes raise
:class:`~repro.errors.StorageWriteError`).  An optional
:class:`~repro.storage.faults.FaultPolicy` lets tests and experiments
deterministically inject transient errors, torn reads, bit flips, and
slow reads on the read path, plus planned crashes and torn writes on
the write path.

Directory-backed writes are **atomic**: the payload lands in a hidden
``.<name>.tmp`` sibling, is fsynced, and is then ``os.replace``d over
the target — a crash at any byte leaves either the old file intact or
the new file complete, never a torn target.  Mutations (write, delete)
and the memory backend's map are serialized under one lock so a
concurrent scrubber observes ``exists``/``delete`` transitions
atomically.
"""

from __future__ import annotations

import errno
import os
import threading
from collections.abc import Iterator
from pathlib import Path

from ..errors import (
    FileMissingError,
    SimulatedCrashError,
    StorageError,
    StorageReadError,
    StorageWriteError,
    TransientStorageError,
)
from .faults import FaultPolicy, get_default_fault_policy

__all__ = ["BitmapFileStore"]

#: OS error codes that typically clear on retry.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.EBUSY}
)


class BitmapFileStore:
    """A flat namespace of immutable bitmap files.

    Args:
        directory: when given, files are written beneath this directory
            (created if missing); when ``None``, the store is in-memory.
        fault_policy: read-fault injector; falls back to the module
            default installed via :func:`~repro.storage.faults.
            set_default_fault_policy` (``None`` = healthy storage).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        fault_policy: FaultPolicy | None = None,
    ):
        self._directory: Path | None = None
        self._blobs: dict[str, bytes] = {}
        # Serializes mutations (write/delete) and the memory backend's
        # blob map, so a concurrent scrubber sees exists/delete flips
        # atomically — the same discipline BufferPool applies to its
        # resident set.
        self._lock = threading.RLock()
        self._fault_policy = (
            fault_policy
            if fault_policy is not None
            else get_default_fault_policy()
        )
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path_for(self, name: str) -> Path:
        if "/" in name or "\\" in name or name in ("", ".", ".."):
            raise StorageError(f"invalid bitmap file name {name!r}")
        assert self._directory is not None
        return self._directory / name

    @property
    def is_persistent(self) -> bool:
        """Whether files are backed by a real directory."""
        return self._directory is not None

    @property
    def fault_policy(self) -> FaultPolicy | None:
        """The active read-fault injector (``None`` = healthy)."""
        return self._fault_policy

    def set_fault_policy(self, policy: FaultPolicy | None) -> None:
        """Install (or clear) the read-fault injector."""
        self._fault_policy = policy

    @staticmethod
    def _wrap_os_error(name: str, err: OSError) -> StorageReadError:
        if err.errno in _TRANSIENT_ERRNOS:
            return TransientStorageError(name, 0, err.strerror or str(err))
        return StorageReadError(name, 0, err.strerror or str(err))

    @staticmethod
    def _wrap_write_error(name: str, err: OSError) -> StorageWriteError:
        return StorageWriteError(name, err.strerror or str(err))

    def write(self, name: str, payload: bytes) -> None:
        """Store a bitmap file atomically (overwriting any previous
        content).

        On the directory backend the payload is written to a hidden
        ``.<name>.tmp`` sibling, fsynced, and ``os.replace``d over the
        target, so a crash mid-write never leaves a torn target: the
        old content survives until the rename commits the new one.
        Write-path ``OSError``s surface as typed
        :class:`~repro.errors.StorageWriteError`; an installed
        :class:`~repro.storage.faults.FaultPolicy` may inject planned
        crashes (``"write.begin"`` / ``"write.rename"`` crash points)
        and torn writes.
        """
        payload = bytes(payload)
        policy = self._fault_policy
        if self._directory is None:
            with self._lock:
                if policy is not None:
                    policy.crash_point("write.begin")
                self._blobs[name] = payload
            return
        path = self._path_for(name)
        try:
            with self._lock:
                self._atomic_replace(path, payload)
        except OSError as err:
            raise self._wrap_write_error(name, err) from err

    def _atomic_replace(
        self,
        path: Path,
        payload: bytes,
        label_prefix: str | None = "write",
    ) -> None:
        """Write ``payload`` to ``path`` via tmp + fsync + rename.

        The shared atomic-write primitive: used for bitmap files (label
        prefix ``write``) and by the manifest commit protocol (label
        prefix ``commit.manifest``), with crash points
        ``<prefix>.begin`` / ``<prefix>.torn`` / ``<prefix>.rename``
        consulted between steps; ``None`` consults none.  The caller
        wraps ``OSError``.
        """
        policy = self._fault_policy if label_prefix else None
        tmp = path.with_name(f".{path.name}.tmp")
        prefix: int | None = None
        if policy is not None:
            policy.crash_point(f"{label_prefix}.begin")
            prefix = policy.torn_write_prefix(
                f"{label_prefix}.torn", len(payload)
            )
        with open(tmp, "wb") as handle:
            if prefix is not None:
                handle.write(payload[:prefix])
                handle.flush()
                os.fsync(handle.fileno())
                raise SimulatedCrashError(
                    f"torn write of {path.name!r} after "
                    f"{prefix} bytes"
                )
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if policy is not None:
            policy.crash_point(f"{label_prefix}.rename")
        os.replace(tmp, path)

    def read(self, name: str) -> bytes:
        """Fetch a bitmap file's full content.

        Raises :class:`FileMissingError` for unknown names,
        :class:`TransientStorageError` for retryable failures (real or
        injected), and :class:`StorageReadError` for everything else.
        """
        if self._directory is None:
            try:
                with self._lock:
                    payload = self._blobs[name]
            except KeyError:
                raise FileMissingError(name) from None
        else:
            path = self._path_for(name)
            try:
                payload = path.read_bytes()
            except FileNotFoundError:
                raise FileMissingError(name) from None
            except OSError as err:
                raise self._wrap_os_error(name, err) from err
        if self._fault_policy is not None:
            payload = self._fault_policy.filter_read(name, payload)
        return payload

    def physical_name(self, name: str) -> str:
        """The file a read of ``name`` returns now: here the name itself
        (a write over a name keeps its identity)."""
        return name

    def size_bytes(self, name: str) -> int:
        """Size of a bitmap file, in bytes.

        Missing names raise :class:`FileMissingError` on both backends.
        """
        if self._directory is None:
            try:
                with self._lock:
                    return len(self._blobs[name])
            except KeyError:
                raise FileMissingError(name) from None
        path = self._path_for(name)
        try:
            return path.stat().st_size
        except FileNotFoundError:
            raise FileMissingError(name) from None
        except OSError as err:
            raise self._wrap_os_error(name, err) from err

    def delete(self, name: str) -> None:
        """Remove a bitmap file (missing names raise
        :class:`FileMissingError`).

        Environmental write-path failures surface as typed
        :class:`~repro.errors.StorageWriteError`.  The deletion holds
        the store lock, so a concurrent ``exists`` never observes a
        half-applied removal.
        """
        with self._lock:
            if self._directory is None:
                try:
                    del self._blobs[name]
                except KeyError:
                    raise FileMissingError(name) from None
                return
            path = self._path_for(name)
            try:
                path.unlink()
            except FileNotFoundError:
                raise FileMissingError(name) from None
            except OSError as err:
                raise self._wrap_write_error(name, err) from err

    def exists(self, name: str) -> bool:
        """Whether a bitmap file with this name exists.

        Taken under the store lock, so the answer is consistent with
        any concurrent ``write``/``delete`` (no torn observations).
        """
        with self._lock:
            if self._directory is None:
                return name in self._blobs
            return self._path_for(name).exists()

    def names(self) -> Iterator[str]:
        """Iterate the names of all stored bitmap files.

        Hidden files (leading ``.``) are skipped: the atomic write
        protocol stages payloads in ``.<name>.tmp`` siblings, and a
        crashed write's leftover staging file must not masquerade as a
        stored bitmap.
        """
        if self._directory is None:
            with self._lock:
                names = sorted(self._blobs)
            yield from names
        else:
            for path in sorted(self._directory.iterdir()):
                if path.is_file() and not path.name.startswith("."):
                    yield path.name

    def total_bytes(self) -> int:
        """Total size of every stored file."""
        return sum(self.size_bytes(name) for name in self.names())

    def __contains__(self, name: str) -> bool:
        return self.exists(name)

    def __repr__(self) -> str:
        backing = (
            str(self._directory) if self._directory else "memory"
        )
        faults = (
            "" if self._fault_policy is None
            else f", faults={self._fault_policy!r}"
        )
        return f"BitmapFileStore(backing={backing!r}{faults})"
