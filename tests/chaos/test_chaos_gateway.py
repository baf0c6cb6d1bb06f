"""Gateway chaos: replica failover under shard-process kills.

The acceptance contract for the serving gateway: killing one shard
worker of a replica fleet mid-batch must yield answers bit-identical
to the serial column-scan oracle, re-derived on a sibling replica via
failover — no :class:`~repro.errors.ShardFailedError` escapes to any
client, and the surviving replica's accounting still reconciles to
the byte.  This mirrors the paper's hierarchical redundancy: an
unreadable internal node is re-derived from its children; an
unserviceable fleet is re-derived from its replica.

Two kill points are covered: a worker killed *before* the batch is
dispatched (the deterministic case — the failing fleet is detected on
its first scatter) and a worker killed *mid-batch* while slow reads
hold the scatter in flight (the race the gateway exists to survive).

Fleet spawning makes these the slowest gateway tests, so they carry
the ``chaos``, ``gateway``, and ``shard`` markers and run in the
dedicated CI serving job.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.executor import scan_answer
from repro.serve import (
    Gateway,
    GatewayConfig,
    ShardedExecutor,
    ShardedReplica,
)
from repro.workload import (
    sample_column,
    tpch_acctbal_leaf_probabilities,
)
from repro.workload.query import RangeQuery, Workload

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.gateway,
    pytest.mark.shard,
]

NUM_SHARDS = 2

#: Injected per-read latency while a batch is in flight: large enough
#: that a 12-query scatter stays running well past the kill point.
SLOW_DELAY_S = 0.02

QUERIES = [
    RangeQuery([(0, 5)]),
    RangeQuery([(3, 12)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 4), (9, 15)]),
] * 3


@pytest.fixture(scope="module")
def gateway_shard_base(tmp_path_factory):
    """Per-shard stores built once; every test spawns fresh fleets
    over the same specs (builds are the slow part)."""
    from repro.hierarchy.tree import Hierarchy

    hierarchy = Hierarchy.from_nested([[3, 3], [2, 4], [4]])
    probabilities = tpch_acctbal_leaf_probabilities(
        hierarchy.num_leaves, seed=3
    )
    column = sample_column(probabilities, num_rows=20_000, seed=11)
    base = tmp_path_factory.mktemp("gateway_shards")
    built = ShardedExecutor.build(
        hierarchy, column, NUM_SHARDS, base
    )
    return hierarchy, column, built.shard_specs


@pytest.fixture(scope="module")
def oracle(gateway_shard_base):
    _hierarchy, column, _specs = gateway_shard_base
    return {
        query: scan_answer(column, query) for query in QUERIES
    }


def _replica_fleet(
    gateway_shard_base, replica_id: int, slow: bool
) -> ShardedReplica:
    """Spawn, start, and prepare one replica fleet over the shared
    shard stores (read-only serving, so fleets can share them)."""
    hierarchy, _column, specs = gateway_shard_base
    fault_kwargs = (
        dict(seed=replica_id, slow_rate=1.0, slow_delay_s=SLOW_DELAY_S)
        if slow
        else None
    )
    executor = ShardedExecutor(
        hierarchy,
        specs,
        threads_per_shard=1,
        fault_policy_kwargs=fault_kwargs,
        recv_timeout_s=60.0,
    )
    executor.start()
    executor.prepare(Workload(QUERIES))
    return ShardedReplica(replica_id, executor)


class TestGatewayShardKillFailover:
    def test_kill_before_dispatch_fails_over_bit_identically(
        self, gateway_shard_base, oracle
    ):
        """Deterministic kill point: replica 0 loses a worker before
        the batch is scattered; the gateway detects the dead fleet on
        first contact and re-runs the whole batch on replica 1."""
        primary = _replica_fleet(gateway_shard_base, 0, slow=False)
        backup = _replica_fleet(gateway_shard_base, 1, slow=False)
        victim = primary.executor.worker_processes[0]
        victim.kill()
        victim.join(timeout=10.0)
        # Re-admission is exercised by test_chaos_selfheal; this test
        # pins the retire-forever contract.
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.05,
            max_probe_attempts=0,
        )

        async def scenario():
            async with Gateway(
                [primary, backup], config
            ) as gateway:
                results = await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )
                return (
                    results,
                    gateway.metrics,
                    gateway.replica_states(),
                    gateway.batch_records,
                    gateway.events,
                )

        results, metrics, states, records, events = asyncio.run(
            scenario()
        )
        for query, result in zip(QUERIES, results):
            assert result.answer == oracle[query]
        count = metrics.counter_sum
        assert count("gateway_failovers_total") >= 1
        assert count("gateway_requests_total", status="ok") == len(QUERIES)
        assert list(states.values()).count("active") == 1
        assert any(
            event.kind == "gateway.failover" for event in events
        )
        for record in records:
            assert record.replica_id == 1
            assert record.report.reconciles()
        assert 0 in records[0].failed_replica_ids
        # Both fleets are reaped: the failed one at failover, the
        # survivor by the gateway's aclose.
        assert not primary.executor.started
        assert not backup.executor.started

    def test_kill_mid_batch_fails_over_bit_identically(
        self, gateway_shard_base, oracle
    ):
        """The acceptance case: a worker dies while the scatter is in
        flight (slow reads hold it there), and every client still
        gets the oracle answer via failover — no ``ShardFailedError``
        escapes."""
        primary = _replica_fleet(gateway_shard_base, 0, slow=True)
        backup = _replica_fleet(gateway_shard_base, 1, slow=False)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.05,
            max_probe_attempts=0,
        )

        async def scenario():
            async with Gateway(
                [primary, backup], config
            ) as gateway:
                pending = [
                    asyncio.create_task(gateway.submit(query))
                    for query in QUERIES
                ]
                # Let the micro-batch flush and the scatter reach
                # replica 0's workers (slow reads keep it in flight
                # far longer than this)...
                await asyncio.sleep(0.3)
                assert primary.executor.started
                victim = primary.executor.worker_processes[0]
                victim.kill()
                # ...then collect: nothing here may raise.
                results = await asyncio.gather(*pending)
                return (
                    results,
                    gateway.metrics,
                    gateway.replica_states(),
                    gateway.batch_records,
                )

        results, metrics, states, records = asyncio.run(scenario())
        for query, result in zip(QUERIES, results):
            assert result.answer == oracle[query]
        count = metrics.counter_sum
        assert count("gateway_failovers_total") >= 1
        assert count("gateway_requests_total", status="ok") == len(QUERIES)
        assert list(states.values()).count("active") == 1
        answered = [record for record in records if record.size]
        assert answered
        for record in answered:
            assert record.replica_id == 1
            assert record.report.reconciles()
        assert not primary.executor.started
        assert not primary.executor.healthy
