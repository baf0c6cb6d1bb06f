#!/usr/bin/env python3
"""Streaming ingest + OLAP aggregation on a durable bitmap index.

Extensions beyond the paper: rows arrive in batches.  The first batch
is built as the base index of a durable store; each later batch is
appended as one delta generation (per node, a WAH tail covering only
the batch, so a node the batch misses costs one fill word).  Range
lookups and SUM/AVG aggregates merge the deltas on read, a compaction
folds them into the base, and the materialization advisor then
decides which internal bitmaps would be worth keeping on disk for the
observed workload.

Run:  python examples/append_stream.py
"""

import tempfile

import numpy as np

from repro import (
    BufferPool,
    DurableBitmapStore,
    Hierarchy,
    MaterializedNodeCatalog,
    QueryExecutor,
    RangeQuery,
    Workload,
    scan_answer,
)
from repro.core import leaf_only_plan, recommend_materialization
from repro.core.simulate import simulate_workload
from repro.storage import Compactor, DeltaAppender, DiskProfile

BATCHES = 6
BATCH_ROWS = 8_000

# A product-category hierarchy: departments -> aisles -> products.
SPEC = [[4, 4, 4], [4, 4], [4, 4, 4, 4]]


def main() -> None:
    rng = np.random.default_rng(11)
    hierarchy = Hierarchy.from_nested(SPEC)
    num_products = hierarchy.num_leaves
    weights = rng.dirichlet(np.ones(num_products) * 2)
    batches = [
        rng.choice(num_products, size=BATCH_ROWS, p=weights).astype(
            np.int64
        )
        for _ in range(BATCHES)
    ]
    column = np.concatenate(batches)
    amounts = rng.gamma(2.0, 25.0, size=column.size)

    with tempfile.TemporaryDirectory() as directory:
        store = DurableBitmapStore(directory)
        print(
            f"streaming {BATCHES} batches x {BATCH_ROWS} rows over "
            f"{num_products} products ..."
        )
        # The first batch founds the base; the others become deltas.
        catalog = MaterializedNodeCatalog(hierarchy, batches[0], store)
        print(
            f"  batch 1: {store.total_num_rows:>6} rows indexed, "
            f"base of {hierarchy.num_nodes} node files"
        )
        appender = DeltaAppender(store, hierarchy)
        for batch_number, batch in enumerate(batches[1:], start=2):
            appended = appender.append(batch)
            print(
                f"  batch {batch_number}: {store.total_num_rows:>6} "
                f"rows indexed, delta generation {appended.seq} "
                f"({appended.bytes_written} B)"
            )

        # Query the live index: the plan runs once per row segment
        # (the base, then each delta) and the answers are joined.
        executor = QueryExecutor(catalog, BufferPool(store))
        first_dept = hierarchy.internal_children(hierarchy.root_id)[0]
        dept = hierarchy.node(first_dept)
        query = RangeQuery(
            [(dept.leaf_lo, dept.leaf_hi)], label="dept-1 revenue"
        )
        lookup = executor.execute_query(query)
        matches = lookup.answer
        assert matches == scan_answer(column, query), "wrong answer!"
        print(
            f"\nrows in department 1 (products "
            f"[{dept.leaf_lo},{dept.leaf_hi}]): {matches.count()} "
            f"(read {lookup.io_mb:.3f} MB over the base and "
            f"{len(store.delta_manifests)} deltas)"
        )
        print(
            f"merge-on-read answer equals scan_answer over all "
            f"{column.size:,} rows"
        )
        total, _ = executor.aggregate(
            leaf_only_plan(catalog, query), amounts, "sum"
        )
        average, _ = executor.aggregate(
            leaf_only_plan(catalog, query), amounts, "avg"
        )
        print(f"SUM(amount)  = {total:12.2f}")
        print(f"AVG(amount)  = {average:12.2f}")

        # Fold the deltas into the base, then reopen the catalog: one
        # opened before the fold still holds the base's old sizes.
        report = Compactor(store).run()
        print(
            f"\ncompaction folded {len(report.folded_seqs)} delta "
            f"generations ({report.folded_rows} rows) into the base: "
            f"{report.files_written} files, {report.bytes_written} B"
        )
        catalog = MaterializedNodeCatalog.from_store(hierarchy, store)

        # What should we keep materialized for tomorrow's workload?
        workload = Workload(
            [
                RangeQuery(
                    [(node.leaf_lo, node.leaf_hi)],
                    label=f"dept-{i + 1}",
                )
                for i, node in enumerate(
                    hierarchy.node(child)
                    for child in hierarchy.internal_children(
                        hierarchy.root_id
                    )
                )
            ]
            + [RangeQuery([(0, num_products - 1)], label="all")]
        )
        plan = recommend_materialization(
            catalog, workload, disk_budget_mb=0.5
        )
        print(
            f"\nmaterialization advisor (0.5 MB disk budget): build "
            f"{len(plan.node_ids)} internal bitmaps, saving "
            f"{plan.saving_fraction:.0%} of workload IO "
            f"({plan.baseline_cost_mb:.3f} -> "
            f"{plan.optimized_cost_mb:.3f} MB)"
        )
        simulation = simulate_workload(
            catalog, workload, plan.node_ids, cache_everything=True
        )
        for profile in (DiskProfile.sata_7200(), DiskProfile.nvme()):
            seconds = simulation.estimated_seconds(profile)
            print(
                f"estimated workload time on {profile.name}: "
                f"{seconds * 1000:.1f} ms"
            )


if __name__ == "__main__":
    main()
