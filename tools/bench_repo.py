"""Run the repository benchmark over every workload and record the rows.

Usage (from the root of a checkout)::

    python3 tools/bench_repo.py           # seeds 101-105, --seconds 10
    python3 tools/bench_repo.py --smoke   # seed 101, --smoke --seconds 1

Each run is ``hcsbench/run.py --workload W --seed S --seconds N
--trace 0`` (the command ``BENCHMARK.json`` declares) for every
workload ``BENCHMARK.json`` lists.  A row holds the run's end-to-end
metrics, ``correct`` and the detail line's ``calibration_ms`` (the
host-speed loop timed before and after the run), keyed by ``rev``
(``git describe --always --dirty``), ``workload`` and ``seed``.

A full run rewrites only the rows under its own keys in
``BENCH_repo.json``, so rows of other commits stay beside them.  A
smoke run prints its rows and writes nothing.  The exit code is 1 when
any run reports ``correct: false`` or ends without a result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULT_PATH = ROOT / "BENCH_repo.json"

#: Seeds and schedule scale of a recorded run.
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 10

DETAIL_PREFIX = "detail "


def revision() -> str:
    """The checkout's ``git describe --always --dirty``."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def run_workload(
    command: list[str], workload: str, seed: int, seconds: int, smoke: bool
) -> dict:
    """Run one workload and return its row (without ``rev``)."""
    argv = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    if smoke:
        argv.append("--smoke")
    completed = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    lines = completed.stdout.splitlines()
    details = [line for line in lines if line.startswith(DETAIL_PREFIX)]
    try:
        result = json.loads(lines[-1])
        detail = json.loads(details[-1][len(DETAIL_PREFIX):])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{' '.join(argv)} exited {completed.returncode} without "
            f"a result line"
        ) from None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": result["correct"],
        **{
            name: metric["value"]
            for name, metric in result["metrics"].items()
        },
        "calibration_ms": detail["calibration_ms"],
    }


def _key(row: dict) -> tuple:
    return row["rev"], row["workload"], row["seed"]


def record(rows: list[dict], units: dict) -> None:
    """Replace the rows under ``rows``' keys in ``BENCH_repo.json``,
    keeping every other row."""
    data = (
        json.loads(RESULT_PATH.read_text())
        if RESULT_PATH.exists()
        else {"benchmark": "hcsbench", "rows": []}
    )
    replaced = {_key(row) for row in rows}
    data["units"] = units
    data["rows"] = [
        row for row in data["rows"] if _key(row) not in replaced
    ] + rows
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one seed at smoke sizes and --seconds 1; print, never write",
    )
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    seeds, seconds = (SEEDS[:1], 1) if args.smoke else (SEEDS, SECONDS)
    rev = revision()
    rows, failed = [], 0
    for seed in seeds:
        for workload in spec["workloads"]:
            try:
                row = run_workload(
                    spec["command"], workload["name"], seed, seconds,
                    args.smoke,
                )
            except RuntimeError as exc:
                print(f"bench_repo: {exc}", file=sys.stderr)
                failed += 1
                continue
            row = {"rev": rev, **row}
            failed += not row["correct"]
            rows.append(row)
            print(json.dumps(row, sort_keys=True), flush=True)
    if not args.smoke:
        units = {
            metric["name"]: metric["unit"] for metric in spec["end_to_end"]
        }
        record(rows, units)
        print(
            f"bench_repo: {len(rows)} rows under {rev} in "
            f"{RESULT_PATH.name}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
