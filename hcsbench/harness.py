"""Measurement helpers shared by the workloads: percentiles, the host
calibration loop, peak memory, child-process clean-up, and the result
line."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import time

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "calibration_ms",
    "percentile",
    "result_line",
    "self_peak_rss_mib",
    "stop_children",
    "vm_hwm_mib",
]

#: A percentile is reported only with at least this many samples above
#: it, so p95 needs 200 samples.
MIN_BEYOND = 10


def percentile(samples, pct: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile of ``samples``.

    Raises:
        ValueError: when fewer than ``min_beyond`` samples lie beyond
            the percentile's rank — the sample does not support it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * count))
    if count - rank < min_beyond:
        raise ValueError(
            f"p{pct:g} of {count} samples has {count - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return ordered[rank - 1]


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python plus numpy loop, in ms.

    Taken at the start and end of every run so that host drift can be
    told apart from program noise; it is reported beside the metrics,
    never as one of them.
    """
    data = np.random.default_rng(0).integers(0, 1 << 30, size=200_000)
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        np.cumsum(np.sort(data))
        timings.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(timings)


def self_peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """A live process's peak resident set size (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:  # ended while we looked
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> int:
    """Kill and reap every child process this one still has, then stop
    the multiprocessing resource tracker and wait for it to end.

    Spawn-started shard workers bring the tracker up, and it would
    otherwise outlive the benchmark.  Shard fleets are closed by the
    workloads before this runs, so in a clean run the tracker is the
    only child left.  Returns how many other children had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    strays = [pid for pid in _child_pids() if pid != tracker._pid]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped elsewhere
            pass
    # Closing the tracker's pipe ends it once no child holds the pipe
    # any more; ``_stop`` then waits for it.
    tracker._stop()
    return len(strays)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last output line: ``metrics`` maps a name to
    ``(value, unit)``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
