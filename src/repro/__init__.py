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
* :mod:`repro.experiments` — one module per paper figure/table.

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

from .bitmap import (
    PlainBitmap,
    WahBitmap,
    build_span_bitmap,
    deserialize_wah,
    serialize_wah,
)
from .core import (
    ConstrainedCutResult,
    CutSelector,
    DegradedRead,
    ExecutionResult,
    ExplainReport,
    MultiQueryCutResult,
    NodeIOReport,
    QueryExecutor,
    QueryPlan,
    SingleQueryCutResult,
    StrategyLabel,
    auto_k_cut_selection,
    build_query_plan,
    exclusive_cut,
    hybrid_cut,
    inclusive_cut,
    k_cut_selection,
    leaf_only_plan,
    one_cut_selection,
    scan_answer,
    select_cut_multi,
    select_cut_single,
)
from .errors import (
    AllReplicasFailedError,
    BitmapError,
    BudgetExceededError,
    CalibrationError,
    ChecksumError,
    DeadlineExceededError,
    FileMissingError,
    GatewayClosedError,
    GatewayError,
    HierarchyError,
    InvalidCutError,
    ManifestError,
    OverloadedError,
    QueryFailedError,
    ReproError,
    ShardError,
    ShardFailedError,
    SimulatedCrashError,
    StorageError,
    StorageReadError,
    StorageWriteError,
    TransientStorageError,
    UnrecoverableReadError,
    WorkloadError,
)
from .obs import (
    MetricsRegistry,
    TraceCollector,
    TraceEvent,
    collecting_metrics,
    get_metrics,
    get_recorder,
    record,
    recording,
    set_metrics,
    set_recorder,
    span,
    thread_recording,
)
from .serve import (
    BatchExecutor,
    BatchReplica,
    BatchReport,
    Gateway,
    GatewayBatchRecord,
    GatewayConfig,
    QueryOutcome,
    Replica,
    ShardedBatchReport,
    ShardedExecutor,
    ShardedReplica,
    ShardSpec,
    shard_row_ranges,
)
from .hierarchy import (
    Cut,
    Hierarchy,
    Node,
    count_antichains,
    count_complete_cuts,
    paper_hierarchy,
)
from .storage import (
    MB,
    BitmapFileStore,
    BufferPool,
    CostModel,
    DurableBitmapStore,
    FaultPolicy,
    IndexBuild,
    Manifest,
    ManifestEntry,
    RetryPolicy,
    IOAccountant,
    MaterializedNodeCatalog,
    ModeledNodeCatalog,
    NodeCatalog,
    Scrubber,
    ScrubFinding,
    ScrubReport,
    calibrate_cost_model,
    hierarchy_fingerprint,
)
from .workload import (
    RangeQuery,
    RangeSpec,
    Workload,
    fraction_workload,
    normal_leaf_probabilities,
    sample_column,
    tpch_acctbal_leaf_probabilities,
    uniform_leaf_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # bitmaps
    "WahBitmap",
    "PlainBitmap",
    "build_span_bitmap",
    "serialize_wah",
    "deserialize_wah",
    # hierarchy
    "Hierarchy",
    "Node",
    "Cut",
    "paper_hierarchy",
    "count_antichains",
    "count_complete_cuts",
    # storage
    "CostModel",
    "MB",
    "BitmapFileStore",
    "DurableBitmapStore",
    "IndexBuild",
    "Manifest",
    "ManifestEntry",
    "Scrubber",
    "ScrubReport",
    "ScrubFinding",
    "hierarchy_fingerprint",
    "BufferPool",
    "IOAccountant",
    "NodeCatalog",
    "ModeledNodeCatalog",
    "MaterializedNodeCatalog",
    "calibrate_cost_model",
    # workload
    "RangeSpec",
    "RangeQuery",
    "Workload",
    "fraction_workload",
    "uniform_leaf_probabilities",
    "normal_leaf_probabilities",
    "tpch_acctbal_leaf_probabilities",
    "sample_column",
    # core
    "CutSelector",
    "StrategyLabel",
    "SingleQueryCutResult",
    "MultiQueryCutResult",
    "ConstrainedCutResult",
    "select_cut_single",
    "inclusive_cut",
    "exclusive_cut",
    "hybrid_cut",
    "select_cut_multi",
    "one_cut_selection",
    "k_cut_selection",
    "auto_k_cut_selection",
    "QueryPlan",
    "build_query_plan",
    "leaf_only_plan",
    "QueryExecutor",
    "ExecutionResult",
    "DegradedRead",
    "scan_answer",
    # serving
    "BatchExecutor",
    "BatchReport",
    "QueryOutcome",
    "ShardSpec",
    "ShardedBatchReport",
    "ShardedExecutor",
    "shard_row_ranges",
    # gateway
    "Gateway",
    "GatewayConfig",
    "GatewayBatchRecord",
    "Replica",
    "ShardedReplica",
    "BatchReplica",
    # observability
    "ExplainReport",
    "NodeIOReport",
    "TraceEvent",
    "TraceCollector",
    "recording",
    "thread_recording",
    "record",
    "span",
    "get_recorder",
    "set_recorder",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "collecting_metrics",
    # errors
    "ReproError",
    "BitmapError",
    "HierarchyError",
    "InvalidCutError",
    "WorkloadError",
    "StorageError",
    "StorageReadError",
    "StorageWriteError",
    "ManifestError",
    "QueryFailedError",
    "ShardError",
    "ShardFailedError",
    "GatewayError",
    "OverloadedError",
    "DeadlineExceededError",
    "GatewayClosedError",
    "AllReplicasFailedError",
    "SimulatedCrashError",
    "FileMissingError",
    "TransientStorageError",
    "UnrecoverableReadError",
    "ChecksumError",
    "FaultPolicy",
    "RetryPolicy",
    "BudgetExceededError",
    "CalibrationError",
]
