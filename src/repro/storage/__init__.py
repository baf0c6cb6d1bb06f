"""Simulated secondary storage: cost model, calibration, file store,
IO accounting, budgeted buffer pool, node catalogs, deterministic
fault injection, and the durable index lifecycle (manifest-committed
builds, crash recovery, scrub-and-repair, LSM-style delta ingest with
merge-on-read and compaction)."""

from .accounting import IOAccountant, IOSnapshot
from .cache import BufferPool
from .compactor import BackgroundCompactor, CompactionReport, Compactor
from .delta import DeltaAppender, DeltaAppendResult
from .faults import (
    DEFAULT_RETRY_POLICY,
    FaultKind,
    FaultPolicy,
    RetryPolicy,
    get_default_fault_policy,
    set_default_fault_policy,
)
from .calibration import (
    DEFAULT_CALIBRATION_DENSITIES,
    calibrate_cost_model,
    measure_wah_sizes,
    random_bitmap,
)
from .catalog import (
    MaterializedNodeCatalog,
    ModeledNodeCatalog,
    NodeCatalog,
    node_file_name,
    node_id_from_file_name,
)
from .costmodel import MB, CostModel
from .diskmodel import (
    DiskProfile,
    estimate_seconds,
    estimate_seconds_from_events,
)
from .filestore import BitmapFileStore
from .manifest import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    QUARANTINE_DIR_NAME,
    DeltaManifest,
    DurableBitmapStore,
    IndexBuild,
    Manifest,
    ManifestEntry,
    delta_file_name,
    hierarchy_fingerprint,
    parse_delta_file_name,
    physical_file_name,
)
from .scrub import ScrubFinding, ScrubReport, Scrubber

__all__ = [
    "CostModel",
    "MB",
    "DiskProfile",
    "estimate_seconds",
    "estimate_seconds_from_events",
    "BitmapFileStore",
    "DurableBitmapStore",
    "IndexBuild",
    "Manifest",
    "ManifestEntry",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT_VERSION",
    "QUARANTINE_DIR_NAME",
    "hierarchy_fingerprint",
    "physical_file_name",
    "DeltaManifest",
    "delta_file_name",
    "parse_delta_file_name",
    "DeltaAppender",
    "DeltaAppendResult",
    "Compactor",
    "BackgroundCompactor",
    "CompactionReport",
    "Scrubber",
    "ScrubReport",
    "ScrubFinding",
    "IOAccountant",
    "IOSnapshot",
    "BufferPool",
    "FaultKind",
    "FaultPolicy",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "set_default_fault_policy",
    "get_default_fault_policy",
    "NodeCatalog",
    "ModeledNodeCatalog",
    "MaterializedNodeCatalog",
    "node_file_name",
    "node_id_from_file_name",
    "calibrate_cost_model",
    "measure_wah_sizes",
    "random_bitmap",
    "DEFAULT_CALIBRATION_DENSITIES",
]
