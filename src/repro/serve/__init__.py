"""Concurrent query serving over a shared buffer pool.

The paper's Case-2/3 workloads are "many queries share one pinned cut"
— exactly the shape that parallelizes across queries.  This package
runs them that way, at two scales:

* :class:`BatchExecutor` fans a list of queries out over a
  ``ThreadPoolExecutor`` against a single
  :class:`~repro.storage.cache.BufferPool`, preserving the accounting
  contracts the serial path guarantees (per-query IO attribution,
  exact reconciliation with the shared accountant, deterministic
  per-query trace streams).
* :class:`ShardedExecutor` partitions the *rows* into shards served by
  worker processes (each with its own store, pool, cut, and local
  thread pool) and merges scatter-gather answers by row offset —
  the same contracts, held across process boundaries.
* :class:`Gateway` is the asyncio network front-end over either:
  concurrent request intake (in-process async API or TCP/JSON-lines),
  bounded micro-batching, priority-aware admission control with typed
  shedding and deadlines, SLO latency metrics, sequential failover
  across replicas, and a self-healing replica lifecycle (circuit
  breaking, canary re-admission — see :mod:`repro.serve.lifecycle`).

See ``docs/serving.md`` for the threading and sharding models and
``docs/gateway.md`` for the gateway.
"""

from .batch import (
    BatchExecutor,
    BatchReport,
    QueryOutcome,
    merge_event_streams,
    reconcile_exactly,
)
from .gateway import (
    BatchReplica,
    Gateway,
    GatewayBatchRecord,
    GatewayConfig,
    Replica,
    ShardedReplica,
)
from .lifecycle import ReplicaState
from .sharded import (
    ShardCutInfo,
    ShardRunReport,
    ShardSpec,
    ShardedBatchReport,
    ShardedExecutor,
    shard_row_ranges,
)

__all__ = [
    "BatchExecutor",
    "BatchReplica",
    "BatchReport",
    "Gateway",
    "GatewayBatchRecord",
    "GatewayConfig",
    "QueryOutcome",
    "Replica",
    "ReplicaState",
    "ShardCutInfo",
    "ShardRunReport",
    "ShardSpec",
    "ShardedBatchReport",
    "ShardedExecutor",
    "ShardedReplica",
    "merge_event_streams",
    "reconcile_exactly",
    "shard_row_ranges",
]
