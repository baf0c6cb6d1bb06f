"""Outside-in span tracing for the benchmark's traced run.

The program under test is not modified: :class:`Tracer` replaces the
public functions of each layer with thin wrappers, from the benchmark's
own files, for the duration of a traced run and restores them after.
Each wrapper records a :class:`Span` (name, start, end, parent span,
request id) in memory; :func:`self_times` turns the span list into
each span's self time once the run is over.

Spans nest through a per-thread stack, so a call made while another
wrapped call is running on the same thread becomes its child — leaf
reads made inside ``WahBitmap.union_all``'s generator argument are
children of the ``union_all`` span.  Coroutines interleave on one
thread, so async wrappers (``Gateway.submit``) record a root span
without joining the stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "layer_of",
    "self_times",
]


@dataclass
class Span:
    """One timed call into a layer.

    Attributes:
        span_id: dense id, in order of span start.
        name: ``<layer>.<call>``, e.g. ``wah.union_all``.
        start: ``time.perf_counter()`` when the call began.
        end: ``time.perf_counter()`` when it returned (or raised).
        parent: ``span_id`` of the enclosing span on the same thread,
            or ``None`` for a root.
        request: request id shared by every span of one request.
        attrs: counts measured at the boundary (bytes, atoms, ...).
    """

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall time between start and end, in seconds."""
        return self.end - self.start


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the part before the dot)."""
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children that overlap each other (concurrent work attributed to
    one parent) are counted once, by the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def _nbytes_arg(args, kwargs, result):
    return {"bytes": len(args[0])}


def _nbytes_result(args, kwargs, result):
    return {"bytes": len(result)}


def _plan_shape(args, kwargs, result):
    # The executor ORs each inclusive/exclusive atom's leaves, then all
    # atoms' terms, in k-way unions: fan-in is what union_all pays for.
    leaf_unions = [atom for atom in result.atoms if atom.leaf_values]
    return {
        "atoms": len(result.atoms),
        "union_calls": 1 + len(leaf_unions),
        "union_operands": len(result.atoms)
        + sum(len(atom.leaf_values) for atom in leaf_unions),
    }


#: What the traced run wraps: ``(module, attribute path, span name,
#: attrs function)``.  ``deserialize_wah`` is imported by name into the
#: modules that call it, so it is wrapped at each of those lookups.
TARGETS = (
    ("repro.serve.gateway", "Gateway.submit", "gateway.submit", None),
    ("repro.serve.gateway", "ShardedReplica.run_batch", "gateway.run_batch", None),
    ("repro.serve.sharded", "ShardedExecutor.start", "sharded.start", None),
    ("repro.serve.sharded", "ShardedExecutor.run", "sharded.run", None),
    ("repro.core.executor", "QueryExecutor.execute_query", "executor.execute_query", None),
    ("repro.core.executor", "build_query_plan", "opnodes.build_query_plan", _plan_shape),
    ("repro.storage.cache", "BufferPool.get", "cache.get", None),
    ("repro.storage.filestore", "BitmapFileStore.read", "filestore.read", _nbytes_result),
    ("repro.storage.manifest", "DurableBitmapStore.read", "filestore.read", _nbytes_result),
    ("repro.bitmap.serialization", "deserialize_wah", "serialization.deserialize_wah", _nbytes_arg),
    ("repro.core.executor", "deserialize_wah", "serialization.deserialize_wah", _nbytes_arg),
    ("repro.storage.compactor", "deserialize_wah", "serialization.deserialize_wah", _nbytes_arg),
    ("repro.storage.catalog", "deserialize_wah", "serialization.deserialize_wah", _nbytes_arg),
    ("repro.bitmap.wah", "WahBitmap.union_all", "wah.union_all", None),
    ("repro.bitmap.wah", "WahBitmap.andnot", "wah.andnot", None),
    ("repro.bitmap.wah", "WahBitmap.concat", "wah.concat", None),
    ("repro.bitmap.wah", "WahBitmap.from_positions", "wah.from_positions", None),
    ("repro.bitmap.wah", "WahBitmap.to_positions", "wah.to_positions", None),
    ("repro.storage.delta", "DeltaAppender.append", "delta.append", None),
    ("repro.storage.compactor", "Compactor.run", "compactor.run", None),
    ("repro.storage.catalog", "MaterializedNodeCatalog.__init__", "catalog.build", None),
    ("repro.core.multi", "select_cut_multi", "multi.select_cut_multi", None),
    ("repro.core.constrained", "k_cut_selection", "constrained.k_cut_selection", None),
)


class Tracer:
    """Records spans around wrapped layer calls.

    Recording is off until :attr:`enabled` is set, so oracle work done
    between timed operations with the wrappers installed leaves no
    spans.  Spans stay in :attr:`spans` until the caller reads them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: object = None, push: bool = True) -> Span:
        """Start a span; it becomes the parent of later spans on this
        thread until :meth:`close` when ``push`` is true."""
        stack = self._stack() if push else []
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if request is None:
            # A root without a request id is a request of its own.
            request = parent.request if parent is not None else f"s{span_id}"
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent is not None else None,
            request=request,
        )
        if push:
            stack.append(span)
        return span

    def close(self, span: Span, push: bool = True) -> None:
        """End a span and keep it."""
        span.end = time.perf_counter()
        if push:
            self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, request: object = None):
        """Context manager form of :meth:`open`/:meth:`close`; yields
        ``None`` and records nothing while tracing is off."""
        if not self.enabled:
            yield None
            return
        span = self.open(name, request)
        try:
            yield span
        finally:
            self.close(span)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    def _wrap(self, func, name: str, attrs_fn):
        tracer = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                query = args[1] if len(args) > 1 else kwargs.get("query")
                span = tracer.open(
                    name, request=getattr(query, "label", None), push=False
                )
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.close(span, push=False)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
                if attrs_fn is not None:
                    span.attrs = attrs_fn(args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def install(self) -> None:
        """Wrap every entry of :data:`TARGETS` (idempotent per run)."""
        if self._installed:
            return
        for module_name, path, name, attrs_fn in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(original, staticmethod):
                wrapped = staticmethod(
                    self._wrap(original.__func__, name, attrs_fn)
                )
            elif isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, attrs_fn)
                )
            else:
                wrapped = self._wrap(original, name, attrs_fn)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
