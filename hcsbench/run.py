"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 hcsbench/run.py --workload olap_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics
with the tracing overhead.  Every answer is checked against the
column-scan oracle; a mismatch makes ``correct`` false and the exit
code 1.  The last line of standard output is the result JSON.  The
program is imported from the checkout's ``src`` directory; without it
the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Largest share of traced query time the layer spans may leave
#: uncovered.
SELF_TIME_TOLERANCE = 0.05


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that
    ``repro`` really comes from there (never from an installed copy)."""
    sys.path[:0] = [str(SRC), str(HERE)]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"hcsbench: no program source under {SRC}")
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"hcsbench: repro imported from {repro.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny data sizes, for self-tests"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _setup(workload, workdir: Path, tracer=None):
    """Set the workload up from an empty directory; returns the state
    and the set-up time in seconds."""
    workdir.mkdir(parents=True)
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    started = time.perf_counter()
    try:
        state = workload.setup(workdir)
    finally:
        if tracer is not None:
            tracer.enabled = False
    return state, time.perf_counter() - started


def _measure(workload, state, tracer=None):
    """Run the timed window on a set-up state, then close the state;
    returns ``(window, end metrics, set-up spans)``."""
    try:
        setup_spans = tracer.take() if tracer is not None else []
        replay_ok = True
        if tracer is not None and hasattr(workload, "replay_k_cut"):
            replay_ok = workload.replay_k_cut(state, tracer)
            setup_spans += tracer.take()
        # Long-lived set-up and oracle objects leave the collector's
        # generations, so collections in the window scan only its own
        # garbage.
        gc.collect()
        gc.freeze()
        try:
            window = workload.run(state, tracer)
        finally:
            gc.unfreeze()
        if tracer is not None:
            window.spans = tracer.take()
        if not replay_ok:
            window.fail("k_cut_selection replay chose a different cut than shard 0")
        end = workload.end_metrics(state, window)
    finally:
        workload.close(state)
    return window, end, setup_spans


def _e2e(setups, window, end) -> dict:
    from harness import percentile

    latencies = window.latencies("query")
    ok = sum(op.ok for op in window.ops)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "query_p95_ms": (percentile(latencies, 95) * 1000.0, "ms"),
        "qps": (len(latencies) / window.seconds, "1/s"),
        "ok_rate": (ok / len(window.ops), "fraction"),
        "peak_rss_mb": (end["peak_rss_mb"], "MiB"),
        "store_bytes_per_row": (end["store_bytes_per_row"], "B"),
    }


def _terminate(signum, frame):
    # A SIGTERM unwinds like an error, so every ``finally`` below closes
    # what the run started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from harness import stop_children

    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args)
    finally:
        killed = stop_children()
        if killed:
            print(f"hcsbench: killed {killed} leftover child processes", file=sys.stderr)


def _run(args) -> int:
    from harness import calibration_ms, result_line
    from spans import Tracer
    from workloads import WORKLOADS, per_layer

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"hcsbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    calibration_start = calibration_ms()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    workdir = ROOT / ".bench_build" / f"hcsbench-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            state, _ = _setup(workload, workdir / "untraced")
            untraced, _, _ = _measure(workload, state)
            tracer = Tracer()
            tracer.install()
            try:
                state, _ = _setup(workload, workdir / "traced", tracer)
                window, end, setup_spans = _measure(workload, state, tracer)
            finally:
                tracer.uninstall()
            windows = [untraced, window]
            metrics = per_layer(workload, window, setup_spans, untraced)
        else:
            setups = []
            for index in range(workload.setups):
                state, seconds = _setup(workload, workdir / f"setup{index}")
                setups.append(seconds)
                if index < workload.setups - 1:
                    workload.close(state)
            window, end, _ = _measure(workload, state)
            windows = [window]
            metrics = _e2e(setups, window, end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration_end = calibration_ms()
    final = windows[-1]
    errors = [error for w in windows for error in w.errors]
    attempted = len(final.ops)
    failed = sum(not op.ok for op in final.ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "design": workload.design,
        "queries": len(final.latencies("query")),
        "operations": attempted,
        "read_bytes_per_query": final.read_bytes / max(1, len(final.latencies("query"))),
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "end": {k: v for k, v in end.items() if k != "peak_rss_mb"},
        "errors": errors,
    }
    if args.trace:
        # Layer self times plus the unaccounted remainder add up to the
        # traced query time; the remainder must stay within tolerance.
        unaccounted = metrics["share.unaccounted"][0]
        detail["self_time_check"] = {
            "accounted_share": 1.0 - unaccounted,
            "tolerance": SELF_TIME_TOLERANCE,
            "within": unaccounted <= SELF_TIME_TOLERANCE,
        }
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    correct = not errors
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
