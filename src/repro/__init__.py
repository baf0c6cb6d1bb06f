"""repro — reproduction of "HCS: Hierarchical Cut Selection for
Efficiently Processing Queries on Data Columns using Hierarchical Bitmap
Indices" (Nagarkar & Candan, EDBT 2014).

The package is organized bottom-up:

* :mod:`repro.bitmap` — WAH-compressed bitmaps built from scratch;
* :mod:`repro.hierarchy` — domain hierarchies, cuts, cut enumeration;
* :mod:`repro.storage` — the paper's density cost model, a storage
  simulator with byte-accurate IO accounting, and node catalogs;
* :mod:`repro.workload` — range queries and dataset generators;
* :mod:`repro.core` — the cut-selection algorithms (I-CS, E-CS, H-CS,
  Alg. 3, 1-Cut, k-Cut, τ auto-stop), baselines, and execution;
* :mod:`repro.serve` — concurrent batch execution over a shared,
  thread-safe buffer pool with per-query IO attribution;
* :mod:`repro.obs` — deterministic traces and metrics;
* :mod:`repro.errors` — the typed exception hierarchy;
* :mod:`repro.experiments` — one module per paper figure/table.

The root re-exports only the entry points the quickstarts use; every
other public name is imported from its subpackage.

Quickstart::

    from repro import (
        Hierarchy, CostModel, ModeledNodeCatalog, CutSelector,
        RangeQuery, uniform_leaf_probabilities,
    )

    hierarchy = Hierarchy.balanced(num_leaves=100, height=4)
    catalog = ModeledNodeCatalog(
        hierarchy,
        uniform_leaf_probabilities(100),
        CostModel.paper_2014(),
        num_rows=150_000_000,
    )
    selector = CutSelector(catalog)
    result = selector.select(RangeQuery([(10, 59)]))
    print(result.cut, result.cost)
"""

from .core import CutSelector, QueryExecutor, scan_answer
from .hierarchy import Hierarchy
from .obs import TraceCollector, collecting_metrics, recording
from .serve import BatchExecutor, ShardedExecutor
from .storage import (
    BitmapFileStore,
    BufferPool,
    CostModel,
    DurableBitmapStore,
    MaterializedNodeCatalog,
    ModeledNodeCatalog,
    Scrubber,
)
from .workload import (
    RangeQuery,
    Workload,
    fraction_workload,
    tpch_acctbal_leaf_probabilities,
    uniform_leaf_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hierarchy
    "Hierarchy",
    # storage
    "CostModel",
    "BitmapFileStore",
    "DurableBitmapStore",
    "Scrubber",
    "BufferPool",
    "ModeledNodeCatalog",
    "MaterializedNodeCatalog",
    # workload
    "RangeQuery",
    "Workload",
    "fraction_workload",
    "uniform_leaf_probabilities",
    "tpch_acctbal_leaf_probabilities",
    # core
    "CutSelector",
    "QueryExecutor",
    "scan_answer",
    # serving
    "BatchExecutor",
    "ShardedExecutor",
    # observability
    "TraceCollector",
    "recording",
    "collecting_metrics",
]
