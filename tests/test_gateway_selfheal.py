"""Tests for the gateway's self-healing edge.

Replica lifecycle (suspect → probation → re-admission or death),
sequential failover, circuit breaking, and priority-aware admission
are exercised with deterministic stub replicas and tight supervisor
timings.  The real-backend paths (:class:`~repro.serve.BatchReplica`
health probes, sharded fleet re-admission) live in
``tests/chaos/test_chaos_selfheal.py``.

``pytest-asyncio`` is not a dependency: every test is a sync function
driving its scenario with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import random
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import QueryExecutor
from repro.core.multi import select_cut_multi
from repro.errors import (
    AllReplicasFailedError,
    DeadlineExceededError,
    GatewayClosedError,
    OverloadedError,
    QueryFailedError,
    ShardFailedError,
)
from repro.obs import collecting_metrics
from repro.serve import (
    BatchExecutor,
    BatchReplica,
    Gateway,
    GatewayConfig,
    ReplicaState,
)
from repro.serve.lifecycle import ReplicaSlot, probe_backoff
from repro.storage.cache import BufferPool
from repro.workload.query import RangeQuery, Workload

from .test_gateway import (
    QUERIES,
    BlockingReplica,
    StubReplica,
    _expected_answer,
    _StubReport,
)

pytestmark = [pytest.mark.gateway, pytest.mark.resilience]

#: Supervisor timings tight enough that re-admission completes within
#: a test's polling budget, deterministic (zero jitter).
FAST_HEAL = dict(
    supervisor_interval_s=0.01,
    probe_backoff_base_s=0.01,
    probe_backoff_max_s=0.05,
    probe_jitter=0.0,
)

#: Attribute-name fragments forbidden in trace events (determinism:
#: no wall-clock data may leak into the trace stream).
WALL_CLOCK_FRAGMENTS = ("seconds", "wall", "time", "latency")


class FlakyReplica(StubReplica):
    """Fails its first ``fail_batches`` batches, then serves cleanly.

    The base :meth:`~repro.serve.Replica.revive` succeeds, so the
    supervisor's canary probe passes once the failure budget is spent
    — the shape of a replica recovering from a transient fault.
    """

    def __init__(self, replica_id: int, fail_batches: int = 1):
        super().__init__(replica_id)
        self.fail_batches = fail_batches
        self.failures_injected = 0

    def run_batch(self, queries):
        if self.failures_injected < self.fail_batches:
            self.failures_injected += 1
            raise ShardFailedError(
                self.replica_id, "injected transient failure"
            )
        return super().run_batch(queries)


class UnrevivableReplica(StubReplica):
    """Fails every batch and every revival attempt."""

    def run_batch(self, queries):
        raise ShardFailedError(self.replica_id, "permanently broken")

    def revive(self) -> bool:
        return False


class ErrorOutcomeReplica(StubReplica):
    """Serves at fleet level but fails every individual query —
    the per-query failure mode the circuit breaker watches."""

    def run_batch(self, queries):
        self.batches_run += 1
        report = super(ErrorOutcomeReplica, self).run_batch(queries)
        outcomes = []
        for outcome in report.outcomes:
            outcomes.append(
                type(outcome)(
                    index=outcome.index,
                    result=None,
                    io=outcome.io,
                    events=outcome.events,
                    wall_seconds=outcome.wall_seconds,
                    error=QueryFailedError(
                        outcome.index,
                        "ValueError",
                        "injected query failure",
                        shard_id=None,
                    ),
                )
            )
        return _StubReport(outcomes)


class ScheduledReplica(StubReplica):
    """Answers, or raises a fleet-level failure, after a fixed delay;
    records when each attempt starts and ends, and counts its failed
    attempts."""

    def __init__(self, replica_id: int, delay_s: float, fails: bool):
        super().__init__(replica_id, delay_s=delay_s)
        self.fails = fails
        self.failed_attempts = 0
        self.attempt_spans: list[tuple[float, float]] = []

    def run_batch(self, queries):
        started = time.perf_counter()
        try:
            if not self.fails:
                return super().run_batch(queries)
            time.sleep(self.delay_s)
            self.failed_attempts += 1
            raise ShardFailedError(self.replica_id, "scheduled failure")
        finally:
            self.attempt_spans.append((started, time.perf_counter()))


class LabelFailReplica(StubReplica):
    """Serves every batch but fails, per query, each query labelled
    ``bad`` — the outcome stream the circuit breaker reads."""

    def run_batch(self, queries):
        report = super().run_batch(queries)
        return _StubReport(
            dataclasses.replace(
                outcome,
                result=None,
                error=QueryFailedError(
                    outcome.index, "ValueError", "injected", shard_id=None
                ),
            )
            if query.label == "bad"
            else outcome
            for query, outcome in zip(queries, report.outcomes)
        )


async def _poll(predicate, timeout_s: float = 10.0):
    """Await ``predicate()`` turning truthy (supervisor runs in the
    same loop, so polling must yield)."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def _assert_no_wall_clock_attrs(events) -> None:
    for event in events:
        for key in event.attrs:
            assert not any(
                fragment in key.lower()
                for fragment in WALL_CLOCK_FRAGMENTS
            ), f"wall-clock attr {key!r} in {event.kind}"


class TestLifecycleUnits:
    def test_rolling_breaker_opens_and_resets(self):
        """The breaker is the slot's rolling outcome window: it opens
        at ``breaker_failures`` failures among the last
        ``breaker_window`` query outcomes, old outcomes age out, and
        every state transition starts a clean window."""
        ok = RangeQuery([(0, 2)], label="ok")
        bad = RangeQuery([(3, 5)], label="bad")
        replica = LabelFailReplica(0)
        config = GatewayConfig(
            breaker_window=4, breaker_failures=2, max_probe_attempts=0
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                opens = []
                for query in (ok, bad, ok, ok, ok, ok, bad, bad):
                    with contextlib.suppress(QueryFailedError):
                        await gateway.submit(query)
                    opens.append(
                        gateway.metrics.counter_sum(
                            "gateway_breaker_opens_total"
                        )
                    )
                return opens, gateway.replica_states(), gateway.events

        opens, states, events = asyncio.run(scenario())
        # The first failure ages out of the window (four oks follow
        # it), so the second alone does not open the breaker; the
        # third makes two failures in the window and does.
        assert opens == [0, 0, 0, 0, 0, 0, 0, 1]
        assert states == {0: "dead"}
        (trip,) = [e for e in events if e.kind == "gateway.breaker_open"]
        assert trip.attrs == {"failures": 2, "window": 4}
        slot = ReplicaSlot(replica, deque([True, False], maxlen=4))
        slot.enter(ReplicaState.SUSPECTED)
        assert slot.state is ReplicaState.SUSPECTED
        assert not slot.outcomes

    def test_breaker_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(breaker_window=0, breaker_failures=1)
        with pytest.raises(ValueError):
            GatewayConfig(breaker_window=4, breaker_failures=0)
        with pytest.raises(ValueError):
            GatewayConfig(breaker_window=2, breaker_failures=3)

    def test_probe_backoff_doubles_and_caps(self):
        rng = random.Random(0)
        delays = [
            probe_backoff(attempt, 0.05, 0.4, 0.0, rng)
            for attempt in range(6)
        ]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    def test_probe_backoff_jitter_is_seeded(self):
        a = [
            probe_backoff(i, 0.05, 2.0, 0.5, random.Random(7))
            for i in range(4)
        ]
        b = [
            probe_backoff(i, 0.05, 2.0, 0.5, random.Random(7))
            for i in range(4)
        ]
        assert a == b
        base = [
            probe_backoff(i, 0.05, 2.0, 0.0, random.Random(7))
            for i in range(4)
        ]
        for jittered, plain in zip(a, base):
            assert plain <= jittered <= plain * 1.5

    def test_replica_close_is_idempotent_and_race_safe(self):
        closes = []

        class CountingReplica(StubReplica):
            def _do_close(self):
                closes.append(threading.get_ident())
                time.sleep(0.01)

        replica = CountingReplica(0)
        threads = [
            threading.Thread(target=replica.close) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(closes) == 1
        assert replica.closed
        replica.close()
        assert len(closes) == 1


class TestReAdmission:
    def test_flaky_replica_is_probed_and_readmitted(self):
        """A replica that fails once is suspected, probed with a
        canary checked bit-identical against the newest answer the
        gateway delivered, and returned to ACTIVE rotation."""
        flaky = FlakyReplica(0, fail_batches=1)
        healthy = StubReplica(1)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.01,
            max_probe_attempts=6,
            **FAST_HEAL,
        )

        async def scenario():
            with collecting_metrics() as metrics:
                async with Gateway(
                    [flaky, healthy], config
                ) as gateway:
                    results = await asyncio.gather(
                        *(gateway.submit(q) for q in QUERIES)
                    )
                    await _poll(
                        lambda: gateway.replica_states()
                        == {0: "active", 1: "active"}
                        and gateway.metrics.counter_sum(
                            "gateway_readmissions_total"
                        )
                        >= 1
                    )
                    # The re-admitted replica serves real traffic.
                    await asyncio.gather(
                        *(gateway.submit(q) for q in QUERIES)
                    )
                    await _poll(lambda: flaky.batches_run >= 1)
                    return (
                        results,
                        gateway.metrics,
                        gateway.replica_states(),
                        gateway.events,
                        metrics,
                    )

        results, own, states, events, counters = asyncio.run(
            scenario()
        )
        for query, result in zip(QUERIES, results):
            assert result.answer.words == _expected_answer(query).words
        assert own.counter_sum("gateway_failovers_total") >= 1
        assert own.counter_sum("gateway_readmissions_total") >= 1
        assert list(states.values()).count("active") == 2
        assert list(states.values()).count("dead") == 0
        kinds = [event.kind for event in events]
        assert "gateway.readmit" in kinds
        transitions = [
            event.attrs["to"]
            for event in events
            if event.kind == "gateway.replica_state"
        ]
        # The full lifecycle walk, in order.
        assert transitions[:3] == [
            "suspected",
            "probation",
            "active",
        ]
        _assert_no_wall_clock_attrs(events)
        assert counters.counter("gateway_readmissions_total") >= 1
        assert (
            counters.counter(
                "gateway_probes_total", outcome="readmitted"
            )
            >= 1
        )

    def test_unrevivable_replica_exhausts_probes_and_dies(self):
        broken = UnrevivableReplica(0)
        healthy = StubReplica(1)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.01,
            max_probe_attempts=2,
            **FAST_HEAL,
        )

        async def scenario():
            with collecting_metrics() as metrics:
                async with Gateway(
                    [broken, healthy], config
                ) as gateway:
                    results = await asyncio.gather(
                        *(gateway.submit(q) for q in QUERIES)
                    )
                    await _poll(
                        lambda: gateway.replica_states()[0] == "dead"
                    )
                    return (
                        results,
                        gateway.metrics,
                        gateway.replica_states(),
                        gateway.events,
                        metrics,
                    )

        results, own, states, events, counters = asyncio.run(
            scenario()
        )
        for query, result in zip(QUERIES, results):
            assert result.answer.words == _expected_answer(query).words
        assert list(states.values()).count("dead") == 1
        assert list(states.values()).count("active") == 1
        assert own.counter_sum("gateway_readmissions_total") == 0
        reasons = [
            event.attrs["reason"]
            for event in events
            if event.kind == "gateway.replica_state"
            and event.attrs["to"] == "dead"
        ]
        assert reasons == ["probe budget exhausted"]
        assert (
            counters.counter("gateway_probes_total", outcome="retry")
            + counters.counter("gateway_probes_total", outcome="dead")
            >= 2
        )
        assert (
            counters.counter("gateway_probes_total", outcome="dead")
            == 1
        )

    def test_probe_attempts_zero_retires_forever(self):
        """``max_probe_attempts=0`` preserves the retire-forever
        contract: no supervisor runs, a failed replica goes straight
        to DEAD."""
        flaky = FlakyReplica(0, fail_batches=1)
        healthy = StubReplica(1)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.01,
            max_probe_attempts=0,
        )

        async def scenario():
            async with Gateway([flaky, healthy], config) as gateway:
                await asyncio.gather(
                    *(gateway.submit(q) for q in QUERIES)
                )
                await asyncio.sleep(0.2)
                return gateway.replica_states(), gateway.metrics

        states, own = asyncio.run(scenario())
        assert states == {0: "dead", 1: "active"}
        assert own.counter_sum("gateway_readmissions_total") == 0


class TestCircuitBreaker:
    def test_query_error_streak_opens_breaker_and_suspects(self):
        """A replica that keeps answering batches but fails every
        query trips its rolling breaker and leaves rotation — fleet
        failover alone would never catch it."""
        sick = ErrorOutcomeReplica(0)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.01,
            breaker_window=8,
            breaker_failures=4,
            max_probe_attempts=0,
        )

        async def scenario():
            with collecting_metrics() as metrics:
                async with Gateway([sick], config) as gateway:
                    results = await asyncio.gather(
                        *(gateway.submit(q) for q in QUERIES),
                        return_exceptions=True,
                    )
                    await _poll(
                        lambda: gateway.replica_states()[0] == "dead"
                    )
                    return (
                        results,
                        gateway.metrics,
                        gateway.replica_states(),
                        gateway.events,
                        metrics,
                    )

        results, own, states, events, counters = asyncio.run(
            scenario()
        )
        assert all(
            isinstance(result, QueryFailedError)
            for result in results
        )
        assert own.counter_sum("gateway_breaker_opens_total") == 1
        assert list(states.values()).count("dead") == 1
        opens = [
            event
            for event in events
            if event.kind == "gateway.breaker_open"
        ]
        assert len(opens) == 1
        assert opens[0].attrs["failures"] >= 4
        assert opens[0].attrs["window"] == 8
        assert counters.counter("gateway_breaker_opens_total") == 1
        _assert_no_wall_clock_attrs(events)


class TestAttemptSchedule:
    @settings(max_examples=50, deadline=None)
    @given(
        plans=st.lists(
            st.tuples(st.integers(0, 8), st.booleans()),
            min_size=2,
            max_size=3,
        ),
    )
    def test_schedule_invariants_hold_under_any_timing(self, plans):
        """Sequential failover over replicas that each answer or fail
        after a few milliseconds: only facts that hold whatever the
        timing are asserted.  No two attempts of the batch overlap,
        and the failed replicas are exactly the ones tried before the
        one that answered."""
        replicas = [
            ScheduledReplica(replica_id, delay_ms / 1000, fails)
            for replica_id, (delay_ms, fails) in enumerate(plans)
        ]
        config = GatewayConfig(max_probe_attempts=0)
        query = QUERIES[1]

        async def scenario():
            gateway = Gateway(replicas, config)
            async with gateway:
                try:
                    answer = await gateway.submit(query)
                except AllReplicasFailedError as exc:
                    answer = exc
            return answer, gateway

        with collecting_metrics() as metrics:
            answer, gateway = asyncio.run(scenario())
        failed = sum(replica.failed_attempts for replica in replicas)
        assert metrics.counter_sum("gateway_failovers_total") == failed
        assert gateway.metrics.counter_sum("gateway_failovers_total") == failed
        failover_ids = [
            int(event.name.removeprefix("replica-"))
            for event in gateway.events
            if event.kind == "gateway.failover"
        ]
        attempts = sorted(
            (started, ended, replica.replica_id)
            for replica in replicas
            for started, ended in replica.attempt_spans
        )
        for (_, ended, _), (started, _, _) in zip(attempts, attempts[1:]):
            assert ended <= started
        tried = [replica_id for _, _, replica_id in attempts]
        if all(fails for _delay, fails in plans):
            assert isinstance(answer, AllReplicasFailedError)
            ids = [replica_id for replica_id, _, _ in answer.attempts]
            assert sorted(ids) == list(range(len(plans)))
            assert ids == failover_ids == tried
            assert gateway.batch_records == ()
            return
        assert answer.answer.words == _expected_answer(query).words
        (record,) = gateway.batch_records
        assert record.attempts == len(record.failed_replica_ids) + 1
        assert not replicas[record.replica_id].fails
        assert tried == [*record.failed_replica_ids, record.replica_id]
        assert list(record.failed_replica_ids) == failover_ids
        assert all(replicas[i].fails for i in record.failed_replica_ids)


class TestPriorityAdmission:
    def test_high_priority_evicts_newest_low_under_overload(self):
        """With the queue full of low-priority work, an incoming high
        request evicts the newest queued low request (typed
        ``kind="evicted"``) instead of being refused — high-priority
        traffic sheds strictly less than low."""
        release = threading.Event()
        replica = BlockingReplica(0, release)
        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.001,
            max_queue_depth=3,
            max_inflight_batches=1,
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                # The first two lows are absorbed by the blocked
                # batch and the batcher's held slot...
                head = []
                for query in QUERIES[:2]:
                    head.append(
                        asyncio.create_task(
                            gateway.submit(query, priority="low")
                        )
                    )
                    await asyncio.sleep(0.05)
                # ...then the queue itself fills with lows.
                fillers = [
                    asyncio.create_task(
                        gateway.submit(query, priority="low")
                    )
                    for query in QUERIES[2:5]
                ]
                await asyncio.sleep(0.1)
                assert gateway.queue_depth == 3
                # Equal priority never evicts: a further low is
                # refused at the door.
                with pytest.raises(OverloadedError) as refused:
                    await gateway.submit(QUERIES[5], priority="low")
                # A high evicts the newest queued low.
                high = asyncio.create_task(
                    gateway.submit(QUERIES[5], priority="high")
                )
                await asyncio.sleep(0.1)
                evicted = [
                    task
                    for task in fillers
                    if task.done() and task.exception() is not None
                ]
                release.set()
                survivors = [
                    task for task in fillers if task not in evicted
                ]
                results = await asyncio.gather(
                    high, *head, *survivors
                )
                return (
                    refused.value,
                    [task.exception() for task in evicted],
                    results,
                    gateway.metrics,
                    gateway.events,
                )

        try:
            refused, evictions, results, own, events = asyncio.run(
                scenario()
            )
        finally:
            release.set()
        assert refused.kind == "refused"
        assert refused.priority == "low"
        assert len(evictions) == 1
        assert isinstance(evictions[0], OverloadedError)
        assert evictions[0].kind == "evicted"
        assert evictions[0].priority == "low"
        # Everything still queued (including the high) completes:
        # two head requests, two surviving fillers, and the high.
        assert len(results) == 5
        assert own.counter_sum("gateway_requests_total", status="shed") == 2
        assert own.counter_sum("gateway_sheds_total") == 2
        assert own.counter_sum("gateway_sheds_total", priority="low") == 2
        assert own.counter_sum("gateway_sheds_total", priority="high") == 0
        sheds = [
            event for event in events if event.kind == "gateway.shed"
        ]
        assert sorted(
            event.attrs["shed"] for event in sheds
        ) == ["evicted", "refused"]
        assert all(
            event.attrs["priority"] == "low" for event in sheds
        )

    def test_priority_metrics_are_labelled_per_class(self):
        config = GatewayConfig(
            max_batch_size=len(QUERIES), max_batch_delay_s=0.01
        )

        async def scenario():
            with collecting_metrics() as metrics:
                async with Gateway(
                    [StubReplica(0)], config
                ) as gateway:
                    await asyncio.gather(
                        gateway.submit(QUERIES[0], priority="high"),
                        gateway.submit(QUERIES[1], priority="low"),
                        gateway.submit(QUERIES[2]),
                    )
                return metrics

        counters = asyncio.run(scenario())
        assert (
            counters.counter(
                "gateway_priority_requests_total",
                priority="high",
                status="ok",
            )
            == 1
        )
        assert (
            counters.counter(
                "gateway_priority_requests_total",
                priority="low",
                status="ok",
            )
            == 1
        )
        # The default class picks up unlabelled submissions.
        assert (
            counters.counter(
                "gateway_priority_requests_total",
                priority="normal",
                status="ok",
            )
            == 1
        )

    def test_unknown_priority_is_rejected(self):
        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                with pytest.raises(ValueError):
                    await gateway.submit(
                        QUERIES[0], priority="platinum"
                    )

        asyncio.run(scenario())

    def test_priority_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(priority_classes=())
        with pytest.raises(ValueError):
            GatewayConfig(
                priority_classes=("high", "high", "low")
            )
        with pytest.raises(ValueError):
            GatewayConfig(default_priority="platinum")
        with pytest.raises(ValueError):
            GatewayConfig(breaker_failures=0)
        with pytest.raises(ValueError):
            GatewayConfig(breaker_window=2, breaker_failures=3)
        with pytest.raises(ValueError):
            GatewayConfig(max_probe_attempts=-1)
        with pytest.raises(ValueError):
            GatewayConfig(supervisor_interval_s=0.0)


class TestBatchReplicaHealth:
    def test_healthy_probe_checks_the_root_bitmap(self):
        """``BatchExecutor.healthy`` is a real probe: it verifies the
        hierarchy's root bitmap file is readable in the store, so a
        replica whose files vanished reports unhealthy instead of
        failing mid-batch."""
        from repro.hierarchy.tree import Hierarchy
        from repro.storage.catalog import MaterializedNodeCatalog
        from repro.workload import (
            sample_column,
            tpch_acctbal_leaf_probabilities,
        )

        # A private catalog: this test deletes a bitmap file, so it
        # must never share the session-scoped fixture's store.
        hierarchy = Hierarchy.from_nested([[3, 3], [2, 4], [4]])
        probabilities = tpch_acctbal_leaf_probabilities(
            hierarchy.num_leaves, seed=3
        )
        column = sample_column(
            probabilities, num_rows=4_000, seed=11
        )
        catalog = MaterializedNodeCatalog(hierarchy, column)
        executor = QueryExecutor(catalog, BufferPool(catalog.store))
        cut = select_cut_multi(
            catalog, Workload(QUERIES)
        ).cut.node_ids
        replica = BatchReplica(
            0, BatchExecutor(executor, max_workers=2), cut
        )
        assert replica.is_healthy()
        catalog.store.delete(
            catalog.file_name(hierarchy.root_id)
        )
        assert not replica.is_healthy()
        replica.close()
        assert replica.closed
        assert not replica.is_healthy()


class TestTcpErrorPayloads:
    def test_all_replicas_failed_detail_round_trips(self):
        """A fleet-wide failure reaches the TCP client as a typed
        payload carrying every attempt — not a bare message string."""
        from tests.test_gateway import FailingReplica

        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.001,
            max_probe_attempts=0,
        )

        async def scenario():
            async with Gateway(
                [FailingReplica(0), FailingReplica(1)], config
            ) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(
                    (
                        json.dumps(
                            {"id": 1, "ranges": [[0, 2]]}
                        )
                        + "\n"
                    ).encode()
                )
                await writer.drain()
                line = await asyncio.wait_for(
                    reader.readline(), timeout=10.0
                )
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return json.loads(line)

        response = asyncio.run(scenario())
        assert response["status"] == "error"
        assert response["error"] == "AllReplicasFailedError"
        detail = response["detail"]
        assert detail["retryable"] is False
        assert len(detail["attempts"]) == 2
        replica_ids = sorted(
            attempt[0] for attempt in detail["attempts"]
        )
        assert replica_ids == [0, 1]
        assert all(
            attempt[1] == "ShardFailedError"
            for attempt in detail["attempts"]
        )

    def test_deadline_detail_round_trips_with_phase(self):
        release = threading.Event()
        replica = BlockingReplica(0, release)
        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.001,
            max_inflight_batches=1,
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                # The first request occupies the blocked batch (its
                # answer arrives past the deadline: ``inflight``);
                # the second expires behind it (``queued``).  Nothing
                # answers until the batch is released, so hold it
                # well past both deadlines first.
                for request_id in (1, 2):
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "id": request_id,
                                    "ranges": [[0, 2]],
                                    "deadline_s": 0.05,
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                await writer.drain()
                await asyncio.sleep(0.2)
                release.set()
                lines = [
                    await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return [json.loads(line) for line in lines]

        try:
            responses = asyncio.run(scenario())
        finally:
            release.set()
        assert len(responses) == 2
        for response in responses:
            assert response["status"] == "error"
            assert response["error"] == "DeadlineExceededError"
            detail = response["detail"]
            assert detail["deadline_s"] == pytest.approx(0.05)
            assert detail["retryable"] is True
        phases = {
            response["detail"]["phase"] for response in responses
        }
        assert phases == {"queued", "inflight"}

    def test_error_payloads_serialize_each_type(self):
        """Every typed gateway error maps to a distinct, fully
        JSON-serializable detail payload."""
        build = Gateway._error_response
        overloaded = build(
            7,
            OverloadedError(3, 3, priority="low", kind="evicted"),
        )
        payload = json.loads(json.dumps(overloaded))
        assert payload["error"] == "OverloadedError"
        assert payload["detail"] == {
            "kind": "evicted",
            "priority": "low",
            "queue_depth": 3,
            "max_queue_depth": 3,
            "retryable": True,
        }
        deadline = build(
            8, DeadlineExceededError(0.25, "inflight")
        )
        assert deadline["detail"]["phase"] == "inflight"
        failed = build(
            9,
            AllReplicasFailedError(
                [(0, "ShardFailedError", "boom")]
            ),
        )
        assert failed["detail"]["attempts"] == [
            [0, "ShardFailedError", "boom"]
        ]
        query_failed = build(
            10, QueryFailedError(2, "ValueError", "bad", shard_id=1)
        )
        assert query_failed["detail"] == {
            "query_index": 2,
            "error_type": "ValueError",
            "shard_id": 1,
            "retryable": False,
        }
        closed = build(11, GatewayClosedError())
        assert closed["detail"] == {"retryable": False}
        # Unknown errors still answer, just without a detail block.
        plain = build(12, RuntimeError("misc"))
        assert plain["status"] == "error"
        assert "detail" not in plain


class TestReplicaStateEnum:
    def test_states_are_strings(self):
        assert ReplicaState.ACTIVE.value == "active"
        assert ReplicaState.SUSPECTED.value == "suspected"
        assert ReplicaState.PROBATION.value == "probation"
        assert ReplicaState.DEAD.value == "dead"
        assert ReplicaState.ACTIVE == "active"
