"""Command-line runner for the paper experiments.

Usage::

    hcs-experiments all            # every figure and table
    hcs-experiments fig2 fig7      # a subset
    hcs-experiments fig6 --fast    # quicker single-run variants
    hcs-experiments --list

Each experiment prints the rows the corresponding paper figure plots.

Index maintenance commands operate on a durable store directory::

    hcs-experiments verify-index --store-dir idx/   # detect-only scrub
    hcs-experiments scrub --store-dir idx/ \\
        --hierarchy-json h.json                     # detect + repair
    hcs-experiments ingest --store-dir idx/ \\
        --hierarchy-json h.json --ingest-rows 1000  # append a delta
    hcs-experiments compact --store-dir idx/ \\
        --max-deltas 4                              # fold deltas

``verify-index`` exits 0 when every file matches the manifest, 1 when
damage was found, 2 when the store cannot be opened.  ``scrub`` exits 0
when the store is clean (possibly after repairs), 1 when anything had
to be quarantined, 2 on open failure.  ``ingest`` appends a row batch
as one delta generation (``--ingest-values`` for explicit leaf ids or
``--ingest-rows``/``--ingest-seed`` for a seeded random batch) and
``compact`` folds delta generations into a new base; both exit 0 on
commit and 2 on failure.  All four print a JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable

from ..obs import (
    MetricsRegistry,
    TraceCollector,
    set_metrics,
    set_recorder,
)
from ..storage.faults import FaultPolicy, set_default_fault_policy
from . import (
    ablations,
    compression,
    fig01_costmodel,
    fig02_case1_strategies,
    fig03_case1_optimality,
    fig04_label_distribution,
    fig05_case2_multi,
    fig06_case3_memory,
    fig07_k_sweep,
    fig08_case3_ranges,
    fig09_case3_queries,
    fig10_case3_sizes,
    fig11_opt_time_hierarchy,
    fig12_opt_time_queries,
    table_incomplete_cuts,
)
from .common import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "MAINTENANCE_COMMANDS",
    "build_parser",
    "run_experiment",
    "run_maintenance",
    "main",
]

#: Index-maintenance subcommands (not experiments): detect-only
#: verification, full scrub-and-repair, delta ingest, and delta
#: compaction of a durable store.
MAINTENANCE_COMMANDS = ("verify-index", "scrub", "ingest", "compact")

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig01_costmodel.run,
    "fig2": fig02_case1_strategies.run,
    "fig3": fig03_case1_optimality.run,
    "fig4": fig04_label_distribution.run,
    "fig5": fig05_case2_multi.run,
    "fig6": fig06_case3_memory.run,
    "fig7": fig07_k_sweep.run,
    "fig8": fig08_case3_ranges.run,
    "fig9": fig09_case3_queries.run,
    "fig10": fig10_case3_sizes.run,
    "fig11": fig11_opt_time_hierarchy.run,
    "fig12": fig12_opt_time_queries.run,
    "table-cuts": table_incomplete_cuts.run,
    "ablation-strategies": ablations.run_strategy_ablation,
    "ablation-costmodel": ablations.run_costmodel_ablation,
    "ablation-kcut": ablations.run_kcut_replacement_ablation,
    "compression": compression.run,
}

#: Cheaper parameters for smoke runs (--fast).
_FAST_OVERRIDES: dict[str, dict] = {
    "fig1": {"num_bits": 400_000},
    "fig2": {"runs": 1},
    "fig3": {"runs": 1},
    "fig4": {"runs": 1},
    "fig5": {"runs": 1},
    "fig6": {"runs": 1},
    "fig7": {"runs": 1},
    "fig8": {"runs": 1},
    "fig9": {"runs": 1},
    "fig10": {"runs": 1},
    "fig11": {"hierarchy_sizes": (250, 500, 1000), "num_queries": 50},
    "fig12": {"query_counts": (50, 100, 200), "num_leaves": 500},
    "compression": {"num_bits": 400_000},
}


def run_experiment(
    name: str,
    fast: bool = False,
    runs: int | None = None,
) -> ExperimentResult:
    """Run one experiment by name, optionally with fast parameters.

    ``runs`` overrides the number of seeded repetitions for the
    experiments that average (the paper uses 10).
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(EXPERIMENTS)}"
        ) from None
    kwargs = dict(_FAST_OVERRIDES.get(name, {})) if fast else {}
    import inspect

    parameters = inspect.signature(runner).parameters
    if runs is not None and "runs" in parameters:
        kwargs["runs"] = runs
    return runner(**kwargs)


def run_maintenance(
    command: str,
    store_dir: str,
    hierarchy_json: str | None = None,
    ingest_rows: int | None = None,
    ingest_seed: int = 0,
    ingest_values: str | None = None,
    max_deltas: int | None = None,
) -> int:
    """Run a maintenance command against a durable store directory.

    ``verify-index`` is a detect-only scrub; ``scrub`` also repairs
    internal-node damage from child unions and quarantines the rest.
    ``ingest`` appends a row batch (explicit leaf ids from
    ``ingest_values`` CSV, or ``ingest_rows`` seeded-random ids) as
    one delta generation; ``compact`` folds up to ``max_deltas``
    delta generations into a new base.  All commands print a JSON
    report and return the process exit code (0 clean / repaired /
    committed, 1 damage left behind after a scrub, 2 on failure).
    Scrub repair and ingest need ``hierarchy_json`` (a file written
    by :func:`repro.hierarchy.serialization.save_hierarchy`).
    """
    from ..errors import ManifestError, StorageError, WorkloadError
    from ..hierarchy.serialization import load_hierarchy
    from ..storage.manifest import DurableBitmapStore
    from ..storage.scrub import Scrubber

    hierarchy = None
    if hierarchy_json is not None:
        hierarchy = load_hierarchy(hierarchy_json)
    try:
        # Opening a missing directory would *create* an empty store;
        # a maintenance command must never do that on a typo'd path.
        if not os.path.isdir(store_dir):
            raise ManifestError(
                f"store directory {store_dir!r} does not exist"
            )
        store = DurableBitmapStore(store_dir, verify_files=False)
        if command == "ingest":
            import numpy as np

            from ..storage.delta import DeltaAppender

            if hierarchy is None:
                raise ManifestError(
                    "'ingest' requires --hierarchy-json (appends are "
                    "staged per hierarchy node)"
                )
            if ingest_values is not None:
                values = np.array(
                    [
                        int(item)
                        for item in ingest_values.split(",")
                        if item.strip()
                    ],
                    dtype=np.int64,
                )
            elif ingest_rows is not None:
                rng = np.random.default_rng(ingest_seed)
                values = rng.integers(
                    0,
                    hierarchy.num_leaves,
                    size=int(ingest_rows),
                    dtype=np.int64,
                )
            else:
                raise ManifestError(
                    "'ingest' needs --ingest-values or --ingest-rows"
                )
            result = DeltaAppender(store, hierarchy).append(values)
            print(json.dumps(result.to_dict(), indent=2))
            return 0
        if command == "compact":
            from ..storage.compactor import Compactor

            compaction = Compactor(
                store, max_deltas_per_run=max_deltas
            ).run()
            print(json.dumps(compaction.to_dict(), indent=2))
            return 0
        scrubber = Scrubber(store, hierarchy=hierarchy)
    except (
        ManifestError, StorageError, WorkloadError, OSError,
        ValueError,
    ) as err:
        print(
            json.dumps(
                {"error": f"{type(err).__name__}: {err}"}, indent=2
            )
        )
        return 2
    report = (
        scrubber.verify() if command == "verify-index"
        else scrubber.run()
    )
    print(json.dumps(report.to_dict(), indent=2))
    if report.is_clean:
        return 0
    if command == "scrub" and not report.quarantined and all(
        finding.action == "repaired" for finding in report.findings
    ):
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``hcs-experiments`` argument parser.

    Shared by :func:`main` and ``tools/gen_cli_docs.py``, which renders
    the parser into ``docs/cli.md`` — so the CLI reference page cannot
    drift from the flags the binary actually accepts.
    """
    parser = argparse.ArgumentParser(
        prog="hcs-experiments",
        description=(
            "Regenerate the tables/figures of 'HCS: Hierarchical Cut "
            "Selection' (EDBT 2014)"
        ),
    )
    parser.add_argument(
        "names",
        nargs="*",
        help=(
            "experiments to run (or 'all'), or a maintenance command: "
            "'verify-index' / 'scrub' / 'ingest' / 'compact' with "
            "--store-dir"
        ),
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help=(
            "durable index directory for 'verify-index' / 'scrub' "
            "(must contain a MANIFEST)"
        ),
    )
    parser.add_argument(
        "--hierarchy-json",
        metavar="PATH",
        default=None,
        help=(
            "hierarchy JSON (from save_hierarchy) enabling child-union "
            "repair during 'scrub'"
        ),
    )
    parser.add_argument(
        "--ingest-rows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "for 'ingest': append N rows with seeded-random leaf ids "
            "(see --ingest-seed)"
        ),
    )
    parser.add_argument(
        "--ingest-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the --ingest-rows random batch (default 0)",
    )
    parser.add_argument(
        "--ingest-values",
        metavar="CSV",
        default=None,
        help=(
            "for 'ingest': comma-separated leaf ids of the appended "
            "rows (overrides --ingest-rows)"
        ),
    )
    parser.add_argument(
        "--max-deltas",
        type=int,
        default=None,
        metavar="N",
        help=(
            "for 'compact': fold at most the N oldest delta "
            "generations this run (default: all)"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smaller parameters for a quick smoke run",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help=(
            "override the number of seeded repetitions for averaged "
            "experiments (the paper uses 10)"
        ),
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help=(
            "inject storage read faults at this rate (spread evenly "
            "over transient errors, torn reads, and bit flips) into "
            "every file store the experiments create"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the injected fault sequence (default 0)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record trace events while experiments run and print a "
            "per-kind event summary after each one"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "collect process-wide metrics (planner/decode timings, "
            "bytes by codec, cache and fault counters) and write them "
            "as JSON to PATH ('-' for stdout)"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(name in MAINTENANCE_COMMANDS for name in args.names):
        if len(args.names) != 1:
            parser.error(
                "maintenance commands run alone (one of: "
                + ", ".join(MAINTENANCE_COMMANDS) + ")"
            )
        if args.store_dir is None:
            parser.error(
                f"{args.names[0]!r} requires --store-dir"
            )
        return run_maintenance(
            args.names[0],
            args.store_dir,
            args.hierarchy_json,
            ingest_rows=args.ingest_rows,
            ingest_seed=args.ingest_seed,
            ingest_values=args.ingest_values,
            max_deltas=args.max_deltas,
        )
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error("--fault-rate must be in [0, 1]")
    fault_policy = None
    if args.fault_rate > 0.0:
        fault_policy = FaultPolicy.uniform(
            args.fault_rate, seed=args.fault_seed
        )
        set_default_fault_policy(fault_policy)

    if args.list or not args.names:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    names = list(args.names)
    if names == ["all"]:
        names = list(EXPERIMENTS)

    collector = TraceCollector() if args.trace else None
    registry = (
        MetricsRegistry() if args.metrics_out is not None else None
    )
    previous_recorder = (
        set_recorder(collector) if collector is not None else None
    )
    previous_metrics = (
        set_metrics(registry) if registry is not None else None
    )
    try:
        for name in names:
            started = time.perf_counter()
            result = run_experiment(
                name, fast=args.fast, runs=args.runs
            )
            elapsed = time.perf_counter() - started
            print(result.to_text())
            print(f"# completed in {elapsed:.1f}s")
            if collector is not None:
                counts = collector.counts_by_kind()
                summary = ", ".join(
                    f"{kind}={count}"
                    for kind, count in counts.items()
                )
                print(
                    f"# trace: {len(collector.events)} events"
                    + (f" ({summary})" if summary else "")
                )
                collector.clear()
            print()
    finally:
        set_default_fault_policy(None)
        if collector is not None:
            set_recorder(previous_recorder)
        if registry is not None:
            set_metrics(previous_metrics)
    if registry is not None:
        payload = json.dumps(registry.to_dict(), indent=2)
        if args.metrics_out == "-":
            print(payload)
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"# metrics written to {args.metrics_out}")
    if fault_policy is not None:
        print(f"# fault injection: {fault_policy!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
