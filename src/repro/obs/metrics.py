"""Process-wide counters and histograms for the query path.

Where :mod:`repro.obs.trace` records *what happened, in order*, this
module aggregates *how much and how fast*: storage bytes read,
planner and decode latencies, union widths, fault counts.  The split
keeps traces deterministic (no wall-clock data) while still exposing
timing through a side channel.

Like the trace recorder, metrics default to a no-op registry so an
uninstrumented run pays one attribute load per call site.  Enable
collection with :func:`collecting_metrics` (scoped) or
:func:`set_metrics` (process-wide, what ``hcs-experiments
--metrics-out`` uses).

Metric naming follows the Prometheus convention — ``*_total`` for
counters, ``*_seconds`` for timings — and labels are passed as keyword
arguments::

    metrics = get_metrics()
    metrics.inc("cache_hits_total", tier="pinned")
    metrics.observe("planner_seconds", elapsed, algorithm="hcs")
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "QuantileReservoir",
    "get_metrics",
    "set_metrics",
    "collecting_metrics",
]


def _key(name: str, labels: dict[str, Any]) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _render_key(key: tuple) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


#: Retained-sample cap per histogram; past it, samples are decimated
#: deterministically (every other one kept, the keep-stride doubling),
#: so quantiles stay available at bounded memory for any stream length.
SAMPLE_CAP = 8192


class QuantileReservoir:
    """Bounded deterministic sample buffer with nearest-rank quantiles.

    The decimation engine behind :class:`HistogramSummary`.  The
    buffer is capped at ``cap``; past that it decimates by keeping
    every other retained sample and doubling the keep stride —
    deterministic (no RNG) and spread across the whole stream rather
    than its head.

    Not thread-safe on its own; callers synchronize (the registry
    folds observations in under its lock).

    Args:
        cap: retained-sample bound (defaults to :data:`SAMPLE_CAP`).
    """

    def __init__(self, cap: int = SAMPLE_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self._cap = cap
        self._samples: list[float] = []
        self._stride = 1
        self._phase = 0
        self.observed = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the reservoir."""
        self.observed += 1
        if self._phase == 0:
            if len(self._samples) >= self._cap:
                self._samples = self._samples[::2]
                self._stride *= 2
            self._samples.append(value)
        self._phase = (self._phase + 1) % self._stride

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of the retained samples.

        Nearest-rank on the sorted sample buffer — exact while the
        stream fits in ``cap`` observations, a deterministic estimate
        beyond.  Returns 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(
            len(ordered) - 1, max(0, round(q * (len(ordered) - 1)))
        )
        return ordered[rank]

    def __len__(self) -> int:
        """Samples currently retained (post-decimation)."""
        return len(self._samples)


@dataclass
class HistogramSummary:
    """Streaming summary of an observed distribution.

    Tracks ``count`` / ``total`` / ``min`` / ``max`` (``mean`` derives)
    plus a bounded :class:`QuantileReservoir` that supports
    :meth:`quantile` — what the serving gateway's p50/p95/p99 latency
    SLOs read.  The reservoir is capped at :data:`SAMPLE_CAP`; past
    that it decimates deterministically (no RNG), keeping quantile
    estimates spread across the whole stream rather than its head.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        self._reservoir = QuantileReservoir()

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._reservoir.observe(value)

    @property
    def mean(self) -> float:
        """Average observed value (``nan`` when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of the retained samples.

        Nearest-rank on the reservoir's sorted sample buffer — exact
        while the stream fits in :data:`SAMPLE_CAP` observations, a
        deterministic estimate beyond.  Returns 0.0 when nothing was
        observed.
        """
        return self._reservoir.quantile(q)

    def to_dict(self) -> dict[str, float]:
        """JSON-ready summary (SLO quantiles included)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": 0.0 if not self.count else self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Holds named counters and histogram summaries, with labels.

    All operations are thread-safe: concurrent query workers share one
    registry, and a lock makes every read-modify-write (counter adds,
    histogram folds) atomic so tallies stay exact under interleaving.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._histograms: dict[tuple, HistogramSummary] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Fold ``value`` into histogram ``name``."""
        key = _key(name, labels)
        with self._lock:
            summary = self._histograms.get(key)
            if summary is None:
                summary = self._histograms[key] = HistogramSummary()
            summary.observe(value)

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_sum(self, name: str, **labels: Any) -> float:
        """Sum of counter ``name`` over every label set that includes
        ``labels`` (all of its series when none are given)."""
        wanted = set(labels.items())
        with self._lock:
            return sum(
                value
                for (key_name, key_labels), value in self._counters.items()
                if key_name == name and wanted <= set(key_labels)
            )

    def histogram(self, name: str, **labels: Any) -> HistogramSummary:
        """Summary of a histogram (empty if never observed)."""
        with self._lock:
            return self._histograms.get(
                _key(name, labels), HistogramSummary()
            )

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """All metrics, JSON-ready, with deterministic key order."""
        with self._lock:
            counters = {
                _render_key(key): value
                for key, value in sorted(self._counters.items())
            }
            histograms = {
                _render_key(key): summary.to_dict()
                for key, summary in sorted(self._histograms.items())
            }
        return {"counters": counters, "histograms": histograms}

    def to_text(self) -> str:
        """Aligned human-readable dump (``hcs-experiments`` output)."""
        lines = []
        data = self.to_dict()
        if data["counters"]:
            lines.append("counters:")
            for key, value in data["counters"].items():
                rendered = (
                    f"{int(value)}" if value == int(value) else f"{value:.6g}"
                )
                lines.append(f"  {key:<48} {rendered}")
        if data["histograms"]:
            lines.append("histograms:")
            for key, summary in data["histograms"].items():
                lines.append(
                    f"  {key:<48} count={summary['count']} "
                    f"mean={summary['mean']:.6g} min={summary['min']:.6g} "
                    f"max={summary['max']:.6g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Drop every counter and histogram."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._histograms)} histograms)"
        )


class NullMetrics(MetricsRegistry):
    """The disabled registry: records nothing, reads as empty."""

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Discard the increment."""

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Discard the observation."""


#: Process-wide no-op registry (the default).
NULL_METRICS = NullMetrics()

_metrics: MetricsRegistry = NULL_METRICS


def get_metrics() -> MetricsRegistry:
    """The ambient metrics registry instrumented code records to."""
    return _metrics


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install the ambient registry (``None`` restores the no-op).

    Returns the previously installed registry so callers can restore it.
    """
    global _metrics
    previous = _metrics
    _metrics = registry if registry is not None else NULL_METRICS
    return previous


@contextmanager
def collecting_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Scoped metrics collection; yields the active registry::

        with collecting_metrics() as metrics:
            selector.select(query)
        print(metrics.to_text())
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(active)
    try:
        yield active
    finally:
        set_metrics(previous)
