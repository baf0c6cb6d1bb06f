"""Self-healing chaos: sequential fleet kills with full re-admission.

The acceptance contract for the self-healing edge: kill each replica
fleet's worker processes in turn and every client still gets answers
bit-identical to the serial column-scan oracle, every failed replica
is rebuilt from its on-disk shard stores and re-admitted to ACTIVE
rotation after a canary check, and the fleet never drains — both
replicas finish the run healthy.  IO accounting stays byte-exact
throughout.

Fleet spawning and supervised restarts make these the slowest gateway
tests; they carry the ``chaos``, ``gateway``, ``shard``, and
``resilience`` markers and run in the dedicated CI serving job.
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
    pytest.mark.resilience,
]

NUM_SHARDS = 2

QUERIES = [
    RangeQuery([(0, 5)]),
    RangeQuery([(3, 12)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 4), (9, 15)]),
] * 3

#: Supervisor timings for tests that must observe a full restart
#: cycle without waiting on production backoffs (zero jitter keeps
#: the probe schedule deterministic).
HEAL_CONFIG = dict(
    max_probe_attempts=10,
    probe_backoff_base_s=0.05,
    probe_backoff_max_s=0.5,
    probe_jitter=0.0,
    supervisor_interval_s=0.05,
)


@pytest.fixture(scope="module")
def selfheal_shard_base(tmp_path_factory):
    """Per-shard stores built once; every test spawns fresh fleets
    over the same specs (builds are the slow part)."""
    from repro.hierarchy.tree import Hierarchy

    hierarchy = Hierarchy.from_nested([[3, 3], [2, 4], [4]])
    probabilities = tpch_acctbal_leaf_probabilities(
        hierarchy.num_leaves, seed=3
    )
    column = sample_column(probabilities, num_rows=20_000, seed=11)
    base = tmp_path_factory.mktemp("selfheal_shards")
    built = ShardedExecutor.build(
        hierarchy, column, NUM_SHARDS, base
    )
    return hierarchy, column, built.shard_specs


@pytest.fixture(scope="module")
def oracle(selfheal_shard_base):
    _hierarchy, column, _specs = selfheal_shard_base
    return {
        query: scan_answer(column, query) for query in QUERIES
    }


def _replica_fleet(selfheal_shard_base, replica_id: int) -> ShardedReplica:
    """Spawn, start, and prepare one replica fleet over the shared
    shard stores (read-only serving, so fleets can share them)."""
    hierarchy, _column, specs = selfheal_shard_base
    executor = ShardedExecutor(
        hierarchy, specs, threads_per_shard=1, recv_timeout_s=60.0
    )
    executor.start()
    executor.prepare(Workload(QUERIES))
    return ShardedReplica(replica_id, executor)


async def _poll(predicate, timeout_s: float = 60.0):
    """Await ``predicate()`` turning truthy; fleet restarts respawn
    processes and re-prepare, so the budget is generous."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.05)


class TestSequentialKillReAdmission:
    def test_both_replicas_killed_and_both_readmitted(
        self, selfheal_shard_base, oracle
    ):
        """Kill replica 0's fleet, wait for its supervised rebuild
        and re-admission, then kill replica 1's fleet and wait again:
        every wave of answers matches the oracle, both replicas end
        the run ACTIVE (zero fleet drain), and every served batch's
        IO reconciles byte-exactly."""
        replica_a = _replica_fleet(selfheal_shard_base, 0)
        replica_b = _replica_fleet(selfheal_shard_base, 1)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.05,
            **HEAL_CONFIG,
        )

        async def wave(gateway):
            return await asyncio.gather(
                *(gateway.submit(query) for query in QUERIES)
            )

        async def scenario():
            async with Gateway(
                [replica_a, replica_b], config
            ) as gateway:
                waves = [await wave(gateway)]
                for kills, victim in enumerate((replica_a, replica_b), 1):
                    worker = victim.executor.worker_processes[0]
                    worker.kill()
                    worker.join(timeout=10.0)
                    # Traffic keeps flowing while the victim is down
                    # (failover) and while it is being rebuilt.
                    waves.append(await wave(gateway))
                    # Until the supervisor's health scan sees the kill,
                    # the victim still reads ACTIVE: wait for its
                    # re-admission, not just for all-ACTIVE states.
                    await _poll(
                        lambda: gateway.replica_states()
                        == {0: "active", 1: "active"}
                        and gateway.metrics.counter_sum(
                            "gateway_readmissions_total"
                        )
                        >= kills
                    )
                    waves.append(await wave(gateway))
                states = gateway.replica_states()
                # Checked before aclose tears the fleets down: both
                # are genuinely serving processes again.
                assert replica_a.executor.healthy
                assert replica_b.executor.healthy
                return (
                    waves,
                    gateway.metrics,
                    gateway.batch_records,
                    gateway.events,
                    states,
                )

        waves, metrics, records, events, states = asyncio.run(
            scenario()
        )
        # Every wave, before/during/after each kill, is
        # oracle-identical — failover and re-admission never change
        # an answer.
        for results in waves:
            for query, result in zip(QUERIES, results):
                assert result.answer == oracle[query]
        # Both killed replicas came back: zero fleet drain.
        assert states == {0: "active", 1: "active"}
        assert metrics.counter_sum("gateway_readmissions_total") >= 2
        # Each kill was detected (by batch failover or by the
        # supervisor's health scan — whichever saw it first) and the
        # victim left rotation before coming back.
        suspected_ids = {
            event.name
            for event in events
            if event.kind == "gateway.replica_state"
            and event.attrs["to"] == "suspected"
        }
        assert suspected_ids == {"replica-0", "replica-1"}
        assert metrics.counter_sum(
            "gateway_requests_total", status="ok"
        ) == len(waves) * len(QUERIES)
        readmits = [
            event for event in events if event.kind == "gateway.readmit"
        ]
        assert len(readmits) >= 2
        readmitted_ids = {event.name for event in readmits}
        assert readmitted_ids == {"replica-0", "replica-1"}
        # Exact IO reconciliation on every batch that served clients.
        assert records
        for record in records:
            assert record.report.reconciles()
        # Determinism: the trace carries no wall-clock attributes.
        for event in events:
            for key in event.attrs:
                assert not any(
                    fragment in key.lower()
                    for fragment in ("seconds", "wall", "time")
                )

    def test_restart_refuses_to_drop_worker_resident_rows(
        self, tmp_path
    ):
        """A fleet holding appended (worker-resident) delta rows
        refuses to restart — a rebuild from the shard stores would
        silently lose them — and the refusal is typed."""
        from repro.errors import ShardError
        from repro.hierarchy.tree import Hierarchy

        hierarchy = Hierarchy.from_nested([[3, 3], [2, 4], [4]])
        probabilities = tpch_acctbal_leaf_probabilities(
            hierarchy.num_leaves, seed=3
        )
        column = sample_column(
            probabilities, num_rows=4_000, seed=11
        )
        executor = ShardedExecutor.build(
            hierarchy, column, 1, tmp_path, durable=True
        )
        try:
            executor.start()
            executor.prepare(Workload(QUERIES))
            executor.ingest([0, 1, 2, 3])
            with pytest.raises(ShardError):
                executor.restart()
        finally:
            executor.close()
