"""Tests for the asyncio serving gateway.

Admission control, micro-batching, deadlines, and replica failover are
exercised through the in-process async API — no sockets needed except
for the TCP round-trip tests, which bind an ephemeral loopback port.
Stub replicas make the edge cases (shedding, zero-length flushes,
failover ordering) deterministic; the failover-reconciliation test
runs a real :class:`~repro.serve.BatchExecutor` replica so the
byte-exact IO contract is checked against genuine accounting.

``pytest-asyncio`` is not a dependency: every test is a sync function
driving its scenario with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time

import pytest

from repro.bitmap.wah import WahBitmap
from repro.core.executor import (
    ExecutionResult,
    QueryExecutor,
    scan_answer,
)
from repro.core.multi import select_cut_multi
from repro.errors import (
    AllReplicasFailedError,
    DeadlineExceededError,
    GatewayClosedError,
    GatewayError,
    OverloadedError,
    ShardFailedError,
)
from repro.obs import collecting_metrics
from repro.serve import (
    BatchExecutor,
    BatchReplica,
    Gateway,
    GatewayConfig,
    QueryOutcome,
    Replica,
)
from repro.serve.gateway import HISTORY_LIMIT
from repro.storage.accounting import IOSnapshot
from repro.storage.cache import BufferPool
from repro.workload.query import RangeQuery, Workload

pytestmark = pytest.mark.gateway

NUM_BITS = 64

QUERIES = [
    RangeQuery([(0, 2)], label="q0"),
    RangeQuery([(3, 11)], label="q1"),
    RangeQuery([(0, 15)], label="q2"),
    RangeQuery([(2, 9), (12, 14)], label="q3"),
    RangeQuery([(7, 7)], label="q4"),
    RangeQuery([(1, 13)], label="q5"),
]


def _zero_io() -> IOSnapshot:
    return IOSnapshot(bytes_read=0, read_count=0, reads_by_name={})


class _StubReport:
    """Minimal backend report: outcomes + trivially-true reconcile."""

    def __init__(self, outcomes):
        self.outcomes = tuple(outcomes)

    def reconciles(self) -> bool:
        return True


class StubReplica(Replica):
    """Answers every query with a bitmap of its first range's low
    bound — distinguishable per query, cheap, deterministic."""

    def __init__(self, replica_id: int, delay_s: float = 0.0):
        super().__init__(replica_id)
        self.delay_s = delay_s
        self.batches_run = 0

    def run_batch(self, queries):
        self.batches_run += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        outcomes = []
        for index, query in enumerate(queries):
            answer = WahBitmap.from_positions(
                [query.specs[0].start], NUM_BITS
            )
            outcomes.append(
                QueryOutcome(
                    index=index,
                    result=ExecutionResult(
                        query=query,
                        answer=answer,
                        io_bytes=0,
                        degraded_reads=(),
                    ),
                    io=_zero_io(),
                    events=(),
                    wall_seconds=0.0,
                )
            )
        return _StubReport(outcomes)


class FailingReplica(StubReplica):
    """Raises a fleet-level failure on every batch."""

    def run_batch(self, queries):
        self.batches_run += 1
        raise ShardFailedError(
            self.replica_id, "injected fleet failure"
        )


class BlockingReplica(StubReplica):
    """Holds every batch until the test releases it."""

    def __init__(self, replica_id: int, release: threading.Event):
        super().__init__(replica_id)
        self.release = release

    def run_batch(self, queries):
        assert self.release.wait(timeout=30.0), "test never released"
        return super().run_batch(queries)


def _expected_answer(query: RangeQuery) -> WahBitmap:
    return WahBitmap.from_positions([query.specs[0].start], NUM_BITS)


class TestSubmit:
    def test_answers_come_back_per_request(self):
        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                results = await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )
                return results, gateway.metrics

        results, metrics = asyncio.run(scenario())
        for query, result in zip(QUERIES, results):
            assert result.answer.words == _expected_answer(
                query
            ).words
        count = metrics.counter_sum
        assert count("gateway_requests_total", status="ok") == len(QUERIES)
        # Every request was admitted (one queue-depth sample each).
        assert metrics.histogram("gateway_queue_depth").count == len(
            QUERIES
        )
        assert count("gateway_sheds_total") == 0
        assert count("gateway_batches_total") >= 1

    def test_micro_batches_respect_the_size_bound(self):
        config = GatewayConfig(
            max_batch_size=4, max_batch_delay_s=0.05
        )

        async def scenario():
            async with Gateway(
                [StubReplica(0)], config
            ) as gateway:
                await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )
                return gateway.batch_records

        records = asyncio.run(scenario())
        assert sum(record.size for record in records) == len(QUERIES)
        assert max(record.size for record in records) <= 4
        # Concurrent submission against a 50ms flush delay coalesces:
        # fewer batches than requests.
        assert len(records) < len(QUERIES)

    def test_submit_to_unstarted_gateway_raises_typed(self):
        gateway = Gateway([StubReplica(0)])
        with pytest.raises(GatewayClosedError):
            asyncio.run(gateway.submit(QUERIES[0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_batch_delay_s=-0.1)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_inflight_batches=0)
        with pytest.raises(ValueError):
            GatewayConfig(default_deadline_s=0.0)
        with pytest.raises(ValueError):
            Gateway([])


class TestDeadlines:
    def test_deadline_expiring_while_queued(self):
        """A request whose deadline passes before its micro-batch is
        assembled fails with phase ``queued`` — and the backend never
        sees it."""
        replica = StubReplica(0)
        config = GatewayConfig(
            max_batch_size=8, max_batch_delay_s=0.1
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                with pytest.raises(DeadlineExceededError) as info:
                    await gateway.submit(
                        QUERIES[0], deadline_s=0.001
                    )
                return info.value, gateway.metrics

        error, metrics = asyncio.run(scenario())
        count = metrics.counter_sum
        assert error.phase == "queued"
        assert count("gateway_requests_total", status="deadline_queued") == 1
        assert (
            count("gateway_requests_total", status="deadline_inflight")
            == 0
        )
        # The whole batch expired, so the flush was empty and no
        # backend batch ran at all.
        assert replica.batches_run == 0
        assert count("gateway_empty_flushes_total") == 1
        assert count("gateway_batches_total") == 0

    def test_deadline_expiring_in_flight(self):
        """A request overtaken by a slow backend fails with phase
        ``inflight``; a deadline-free sibling in the same batch still
        gets its answer (the batch is not poisoned)."""
        replica = StubReplica(0, delay_s=0.15)
        config = GatewayConfig(
            max_batch_size=2, max_batch_delay_s=0.05
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                doomed = asyncio.create_task(
                    gateway.submit(QUERIES[0], deadline_s=0.08)
                )
                healthy = asyncio.create_task(
                    gateway.submit(QUERIES[1])
                )
                results = await asyncio.gather(
                    doomed, healthy, return_exceptions=True
                )
                return results, gateway.metrics

        (doomed_result, healthy_result), metrics = asyncio.run(
            scenario()
        )
        assert isinstance(doomed_result, DeadlineExceededError)
        assert doomed_result.phase == "inflight"
        assert healthy_result.answer.words == _expected_answer(
            QUERIES[1]
        ).words
        count = metrics.counter_sum
        assert (
            count("gateway_requests_total", status="deadline_inflight")
            == 1
        )
        assert count("gateway_requests_total", status="ok") == 1
        # Both rode one dispatched batch; the backend did run it.
        assert replica.batches_run == 1

    def test_zero_length_flush_skips_the_backend(self):
        """When every member of a coalesced batch expires while
        queued, the flush is empty: counted, traced, and never sent
        to a replica."""
        replica = StubReplica(0)
        config = GatewayConfig(
            max_batch_size=4, max_batch_delay_s=0.08
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                results = await asyncio.gather(
                    *(
                        gateway.submit(query, deadline_s=0.001)
                        for query in QUERIES[:3]
                    ),
                    return_exceptions=True,
                )
                return results, gateway.metrics, gateway.events

        results, metrics, events = asyncio.run(scenario())
        assert all(
            isinstance(result, DeadlineExceededError)
            and result.phase == "queued"
            for result in results
        )
        assert replica.batches_run == 0
        assert metrics.counter_sum("gateway_empty_flushes_total") >= 1
        assert metrics.counter_sum("gateway_batches_total") == 0
        kinds = {event.kind for event in events}
        assert "gateway.empty_flush" in kinds
        assert "gateway.batch" not in kinds


class TestAdmissionControl:
    def test_shed_under_overload_is_typed_and_isolated(self):
        """With the pipeline saturated and the queue full, the next
        submit sheds with ``OverloadedError`` — and every admitted
        request still gets its exact answer once the backend drains
        (shedding cannot poison a batch)."""
        release = threading.Event()
        replica = BlockingReplica(0, release)
        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.0,
            max_queue_depth=2,
            max_inflight_batches=1,
        )

        async def scenario():
            async with Gateway([replica], config) as gateway:
                admitted = [
                    asyncio.create_task(gateway.submit(query))
                    for query in QUERIES[:2]
                ]
                # Let the batcher drain both into the dispatch
                # pipeline (one in flight, one waiting on the
                # in-flight semaphore)...
                await asyncio.sleep(0.1)
                admitted += [
                    asyncio.create_task(gateway.submit(query))
                    for query in QUERIES[2:4]
                ]
                # ...and let those two land in the intake queue,
                # filling it to max_queue_depth.
                await asyncio.sleep(0.05)
                assert gateway.queue_depth == 2
                with pytest.raises(OverloadedError) as info:
                    await gateway.submit(QUERIES[4])
                release.set()
                results = await asyncio.gather(*admitted)
                return info.value, results, gateway.metrics

        try:
            error, results, metrics = asyncio.run(scenario())
        finally:
            release.set()
        assert error.queue_depth == 2
        assert error.max_queue_depth == 2
        for query, result in zip(QUERIES[:4], results):
            assert result.answer.words == _expected_answer(
                query
            ).words
        count = metrics.counter_sum
        assert count("gateway_requests_total", status="shed") == 1
        assert count("gateway_requests_total", status="ok") == 4
        # Four admits (one queue-depth sample each) and one refusal.
        depth = metrics.histogram("gateway_queue_depth")
        assert depth.count == 4
        assert count("gateway_sheds_total", kind="refused") == 1
        assert depth.max <= config.max_queue_depth


class TestFailover:
    def test_failed_replica_fails_over_and_is_retired(self):
        """A fleet-level failure reroutes the batch to the next
        healthy replica; with re-admission disabled
        (``max_probe_attempts=0``) the failed one is closed and never
        tried again — the pre-self-healing contract."""
        bad = FailingReplica(0)
        good = StubReplica(1)
        config = GatewayConfig(max_probe_attempts=0)

        async def scenario():
            async with Gateway([bad, good], config) as gateway:
                first = await gateway.submit(QUERIES[0])
                second = await gateway.submit(QUERIES[1])
                return (
                    first,
                    second,
                    gateway.metrics,
                    gateway.replica_states(),
                    gateway.batch_records,
                    gateway.events,
                    tuple(
                        replica.replica_id
                        for replica in gateway.healthy_replicas
                    ),
                )

        (
            first, second, metrics, states, records, events, healthy
        ) = asyncio.run(scenario())
        assert first.answer.words == _expected_answer(
            QUERIES[0]
        ).words
        assert second.answer.words == _expected_answer(
            QUERIES[1]
        ).words
        assert metrics.counter_sum("gateway_failovers_total") == 1
        assert list(states.values()).count("active") == 1
        assert healthy == (1,)
        assert bad.closed
        assert bad.batches_run == 1  # never retried after retirement
        first_record = records[0]
        assert first_record.failed_over
        assert first_record.failed_replica_ids == (0,)
        assert first_record.attempts == 2
        assert first_record.replica_id == 1
        assert all(
            record.replica_id == 1 for record in records[1:]
        )
        failover_events = [
            event
            for event in events
            if event.kind == "gateway.failover"
        ]
        assert len(failover_events) == 1
        assert failover_events[0].attrs["error"] == (
            "ShardFailedError"
        )

    def test_any_backend_exception_fails_the_attempt_over(self):
        """An attempt fails whenever ``serve_batch`` raises, not only
        with a ``ShardError``: the batch fails over and the error type
        is traced (regression: other exceptions escaped the dispatch
        task and left the batch's clients waiting forever)."""

        class BuggyReplica(StubReplica):
            def run_batch(self, queries):
                raise RuntimeError("backend bug")

        config = GatewayConfig(max_probe_attempts=0)

        async def scenario():
            async with Gateway(
                [BuggyReplica(0), StubReplica(1)], config
            ) as gateway:
                result = await asyncio.wait_for(
                    gateway.submit(QUERIES[0]), timeout=10.0
                )
                return result, gateway.batch_records, gateway.events

        result, records, events = asyncio.run(scenario())
        assert result.answer.words == _expected_answer(QUERIES[0]).words
        assert records[0].failed_replica_ids == (0,)
        assert [
            event.attrs["error"]
            for event in events
            if event.kind == "gateway.failover"
        ] == ["RuntimeError"]

    def test_all_replicas_failing_surfaces_every_attempt(self):
        config = GatewayConfig(max_probe_attempts=0)

        async def scenario():
            async with Gateway(
                [FailingReplica(0), FailingReplica(1)], config
            ) as gateway:
                with pytest.raises(AllReplicasFailedError) as info:
                    await gateway.submit(QUERIES[0])
                # With every replica retired, later submits fail
                # fast with the same typed error.
                with pytest.raises(AllReplicasFailedError):
                    await gateway.submit(QUERIES[1])
                return (
                    info.value,
                    gateway.metrics,
                    gateway.replica_states(),
                )

        error, metrics, states = asyncio.run(scenario())
        assert [
            (replica_id, error_type)
            for replica_id, error_type, _ in error.attempts
        ] == [(0, "ShardFailedError"), (1, "ShardFailedError")]
        assert list(states.values()).count("active") == 0
        assert (
            metrics.counter_sum("gateway_requests_total", status="failed")
            == 2
        )

    def test_failover_to_real_replica_reconciles_byte_exactly(
        self, materialized_setup
    ):
        """After failover, the surviving replica's report must hold
        the serving tier's exact-accounting contract (``io == pin_io +
        Σ per-query io``) and its answers must match the scan oracle
        — failover never changes an answer or loses a byte."""
        hierarchy, column, catalog = materialized_setup
        workload = Workload(QUERIES)
        cut = select_cut_multi(catalog, workload).cut.node_ids
        executor = QueryExecutor(
            catalog, BufferPool(catalog.store)
        )
        real = BatchReplica(
            1, BatchExecutor(executor, max_workers=2), cut
        )
        bad = FailingReplica(0)
        config = GatewayConfig(
            max_batch_size=len(QUERIES),
            max_batch_delay_s=0.05,
            max_probe_attempts=0,
        )

        async def scenario():
            async with Gateway(
                [bad, real], config, close_replicas_on_exit=False
            ) as gateway:
                results = await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )
                return results, gateway.metrics, (
                    gateway.batch_records
                )

        results, metrics, records = asyncio.run(scenario())
        for query, result in zip(QUERIES, results):
            assert result.answer == scan_answer(column, query)
        count = metrics.counter_sum
        assert count("gateway_failovers_total") == 1
        assert count("gateway_requests_total", status="ok") == len(QUERIES)
        for record in records:
            assert record.replica_id == 1
            assert record.report.reconciles()
        assert sum(record.size for record in records) == len(
            QUERIES
        )


class TestLifecycle:
    def test_aclose_strands_queued_requests_typed(self):
        release = threading.Event()
        replica = BlockingReplica(0, release)
        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.0,
            max_inflight_batches=1,
        )

        async def scenario():
            gateway = Gateway([replica], config)
            await gateway.start()
            tasks = [
                asyncio.create_task(gateway.submit(query))
                for query in QUERIES[:3]
            ]
            await asyncio.sleep(0.1)
            release.set()
            await gateway.aclose()
            return await asyncio.gather(
                *tasks, return_exceptions=True
            )

        try:
            results = asyncio.run(scenario())
        finally:
            release.set()
        # In-flight work completes; anything still queued when the
        # gateway closed fails typed rather than hanging forever.
        assert all(
            isinstance(result, (ExecutionResult, GatewayClosedError))
            for result in results
        )
        answered = [
            result
            for result in results
            if isinstance(result, ExecutionResult)
        ]
        assert answered  # the dispatched batch was not discarded

    def test_close_replicas_on_exit(self):
        replica = StubReplica(0)

        async def scenario():
            async with Gateway([replica]):
                pass

        asyncio.run(scenario())
        assert replica.closed

    def test_double_close_is_idempotent(self):
        async def scenario():
            gateway = Gateway([StubReplica(0)])
            await gateway.start()
            await gateway.aclose()
            await gateway.aclose()

        asyncio.run(scenario())


class TestBoundedHistory:
    def test_history_keeps_the_newest_records_and_first_events(self):
        """Past ``HISTORY_LIMIT`` batches the oldest batch records
        drop out, and the trace stops growing at its first
        ``HISTORY_LIMIT`` events."""
        served = HISTORY_LIMIT + 5
        config = GatewayConfig(
            max_batch_size=1,
            max_batch_delay_s=0.0,
            max_queue_depth=served,
        )

        async def scenario():
            async with Gateway([StubReplica(0)], config) as gateway:
                await asyncio.gather(
                    *(
                        gateway.submit(QUERIES[index % len(QUERIES)])
                        for index in range(served)
                    )
                )
                return (
                    gateway.batch_records,
                    gateway.events,
                    gateway.metrics,
                )

        records, events, metrics = asyncio.run(scenario())
        count = metrics.counter_sum
        assert (
            count("gateway_batches_total")
            == count("gateway_requests_total", status="ok")
            == served
        )
        assert [record.batch_id for record in records] == list(
            range(served - HISTORY_LIMIT, served)
        )
        assert [event.name for event in events] == [
            f"batch-{batch_id}" for batch_id in range(HISTORY_LIMIT)
        ]

    def test_history_holds_ten_benchmark_runs(self):
        """``hcsbench``'s ``gateway_sharded`` run records 54 batches
        (3 warm-up, 51 timed) and slices ``batch_records`` from a
        length taken after warm-up, so the bound must hold many runs
        whole."""
        assert HISTORY_LIMIT >= 10 * 54


class TestSloMetrics:
    def test_latency_and_queue_metrics_land_in_the_registry(self):
        async def scenario(gateway):
            async with gateway:
                await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )

        with collecting_metrics() as metrics:
            asyncio.run(scenario(Gateway([StubReplica(0)])))
        assert (
            metrics.counter("gateway_requests_total", status="ok")
            == len(QUERIES)
        )
        latency = metrics.histogram("gateway_request_seconds")
        assert latency.count == len(QUERIES)
        summary = latency.to_dict()
        assert 0 < summary["p50"] <= summary["p95"] <= summary["p99"]
        assert metrics.counter("gateway_batches_total") >= 1
        depth = metrics.histogram("gateway_queue_depth")
        assert depth.count == len(QUERIES)

    def test_stats_quantiles_are_ordered_without_a_registry(self):
        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                await asyncio.gather(
                    *(gateway.submit(query) for query in QUERIES)
                )
                return gateway.metrics

        metrics = asyncio.run(scenario())
        latency = metrics.histogram("gateway_request_seconds")
        assert (
            0
            < latency.quantile(0.50)
            <= latency.quantile(0.95)
            <= latency.quantile(0.99)
        )
        payload = metrics.to_dict()
        assert (
            payload["counters"]["gateway_requests_total{status=ok}"]
            == len(QUERIES)
        )

    def test_trace_events_carry_no_wall_clock_data(self):
        async def scenario():
            async with Gateway(
                [FailingReplica(0), StubReplica(1)]
            ) as gateway:
                await gateway.submit(QUERIES[0])
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(
                        QUERIES[1], deadline_s=0.0001
                    )
                return gateway.events

        events = asyncio.run(scenario())
        assert events
        forbidden = {"seconds", "wall", "time", "latency"}
        for event in events:
            for key in event.attrs:
                assert not any(
                    word in key.lower() for word in forbidden
                ), f"wall-clock attr {key!r} in {event.kind}"


class TestTcp:
    def test_json_lines_roundtrip(self):
        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                requests = [
                    {
                        "id": index,
                        "ranges": [
                            [spec.start, spec.end]
                            for spec in query.specs
                        ],
                        "positions": True,
                    }
                    for index, query in enumerate(QUERIES)
                ]
                for request in requests:
                    writer.write(
                        (json.dumps(request) + "\n").encode()
                    )
                await writer.drain()
                responses = {}
                for _ in requests:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                    response = json.loads(line)
                    responses[response["id"]] = response
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return responses

        responses = asyncio.run(scenario())
        assert set(responses) == set(range(len(QUERIES)))
        for index, query in enumerate(QUERIES):
            response = responses[index]
            assert response["status"] == "ok"
            assert response["count"] == 1
            assert response["positions"] == [query.specs[0].start]

    def test_lines_beyond_asyncio_default_limit(self):
        """Request and response lines larger than asyncio's 64 KiB
        stream default must round-trip: the server listens with
        ``Gateway.TCP_LINE_LIMIT`` and clients expecting wide
        ``positions`` answers open their connection with the same
        limit (regression: the default limit made ``readline`` raise
        ``LimitOverrunError`` on either side)."""
        num_bits = 30_000

        class WideReplica(StubReplica):
            def run_batch(self, queries):
                report = super().run_batch(queries)
                outcomes = []
                for outcome in report.outcomes:
                    result = outcome.result
                    wide = WahBitmap.from_positions(
                        range(num_bits), num_bits
                    )
                    outcomes.append(
                        QueryOutcome(
                            index=outcome.index,
                            result=ExecutionResult(
                                query=result.query,
                                answer=wide,
                                io_bytes=0,
                                degraded_reads=(),
                            ),
                            io=_zero_io(),
                            events=(),
                            wall_seconds=0.0,
                        )
                    )
                return _StubReport(outcomes)

        async def scenario():
            async with Gateway([WideReplica(0)]) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port, limit=Gateway.TCP_LINE_LIMIT
                )
                request = {
                    "id": 1,
                    "ranges": [[0, 5]],
                    "positions": True,
                    # Pad the request line itself past 64 KiB.
                    "label": "x" * (80 * 1024),
                }
                line = (json.dumps(request) + "\n").encode()
                assert len(line) > 64 * 1024
                writer.write(line)
                await writer.drain()
                response = json.loads(
                    await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                )
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return response

        response = asyncio.run(scenario())
        assert response["status"] == "ok"
        assert response["count"] == num_bits
        assert response["positions"] == list(range(num_bits))

    def test_oversized_line_answers_typed_then_closes(self, caplog):
        """A request line past the stream limit cannot be re-framed:
        the requests read before it are answered, then one typed,
        non-retryable ``WorkloadError`` line with ``"id": null``, then
        EOF, and a fresh connection is served.  (The line used to end
        the connection with no reply while asyncio logged the
        ``ValueError`` raised from ``readline``.)"""

        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                gateway.TCP_LINE_LIMIT = 4096
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                requests = [
                    {"id": 1, "ranges": [[0, 3]]},
                    {"id": 2, "ranges": [[0, 3]], "label": "x" * 10_000},
                ]
                writer.write(
                    b"".join(
                        (json.dumps(request) + "\n").encode()
                        for request in requests
                    )
                )
                await writer.drain()
                replies = []
                while line := await asyncio.wait_for(
                    reader.readline(), timeout=10.0
                ):
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(b'{"id": 3, "ranges": [[0, 3]]}\n')
                await writer.drain()
                fresh = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return replies, fresh

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            replies, fresh = asyncio.run(scenario())
        assert [reply["id"] for reply in replies] == [1, None]
        assert replies[0]["status"] == "ok"
        assert replies[1]["status"] == "error"
        assert replies[1]["error"] == "WorkloadError"
        assert replies[1]["detail"] == {"retryable": False}
        assert fresh["status"] == "ok"
        assert not [
            record for record in caplog.records if record.name == "asyncio"
        ]

    def test_out_of_range_bounds_answer_typed_and_spare_the_replica(
        self, materialized_setup
    ):
        """Range bounds past int64 are bad client input, not a replica
        fault: each request gets a typed, non-retryable
        ``WorkloadError`` before admission, and the replica stays
        ACTIVE with its breaker closed.  (Four such requests used to
        overflow inside the backend, open the breaker of the only
        replica, and fail the next valid request with
        ``AllReplicasFailedError``.)"""
        _hierarchy, column, catalog = materialized_setup
        cut = select_cut_multi(catalog, Workload(QUERIES)).cut.node_ids
        executor = QueryExecutor(catalog, BufferPool(catalog.store))
        replica = BatchReplica(
            0, BatchExecutor(executor, max_workers=2), cut
        )
        valid = QUERIES[3]

        async def scenario():
            async with Gateway([replica]) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )

                async def exchange(requests):
                    writer.write(
                        b"".join(
                            (json.dumps(request) + "\n").encode()
                            for request in requests
                        )
                    )
                    await writer.drain()
                    return [
                        json.loads(
                            await asyncio.wait_for(
                                reader.readline(), timeout=10.0
                            )
                        )
                        for _ in requests
                    ]

                bad = await exchange(
                    [
                        {"id": index, "ranges": [[0, 2**63 + index]]}
                        for index in range(4)
                    ]
                )
                (good,) = await exchange(
                    [
                        {
                            "id": 9,
                            "ranges": [
                                [spec.start, spec.end]
                                for spec in valid.specs
                            ],
                        }
                    ]
                )
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return bad, good, gateway.replica_states(), (
                    gateway.metrics
                )

        bad, good, states, metrics = asyncio.run(scenario())
        for response in bad:
            assert response["status"] == "error"
            assert response["error"] == "WorkloadError"
            assert response["detail"] == {"retryable": False}
        assert states == {0: "active"}
        assert metrics.counter_sum("gateway_breaker_opens_total") == 0
        # Only the valid request reached admission.
        assert metrics.histogram("gateway_queue_depth").count == 1
        assert metrics.counter_sum("gateway_sheds_total") == 0
        assert good["status"] == "ok"
        assert good["count"] == scan_answer(column, valid).count()

    def test_malformed_and_failing_requests_answer_typed(self):
        """Every malformed line is refused with a typed, non-retryable
        ``WorkloadError`` before admission; a well-formed request that
        misses its deadline still gets ``DeadlineExceededError``."""
        malformed = [
            b"this is not json\n",
            b"[1, 2]\n",  # not an object
            b'{"id": 7}\n',  # no ranges
            b'{"id": 9, "ranges": 5}\n',
            b'{"id": 10, "ranges": [[0, "x"]]}\n',
            b'{"id": 11, "ranges": [[0, 1]], "deadline_s": "soon"}\n',
            b'{"id": 12, "ranges": [[0, 1]], "priority": "platinum"}\n',
            b'{"id": 13, "ranges": [[0, 1]], "deadline_s": -1}\n',
            b'{"id": 14, "ranges": [[0, 1]], "deadline_s": NaN}\n',
        ]
        lines = malformed + [
            b'{"id": 8, "ranges": [[0, 1]], "deadline_s": 0.0001}\n',
        ]

        async def scenario():
            async with Gateway([StubReplica(0)]) as gateway:
                server = await gateway.serve_tcp()
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                for line in lines:
                    writer.write(line)
                await writer.drain()
                responses = []
                for _ in lines:
                    raw = await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                    responses.append(json.loads(raw))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                admitted = gateway.metrics.histogram(
                    "gateway_queue_depth"
                ).count
                return responses, admitted

        responses, admitted = asyncio.run(scenario())
        assert all(
            response["status"] == "error"
            for response in responses
        )
        refused = [
            response
            for response in responses
            if response["error"] == "WorkloadError"
        ]
        ids = [response["id"] for response in refused]
        assert ids.count(None) == 2  # no id to echo
        assert sorted(filter(None, ids)) == [7, 9, 10, 11, 12, 13, 14]
        assert all(
            response["detail"] == {"retryable": False}
            for response in refused
        )
        (late,) = [
            response for response in responses if response["id"] == 8
        ]
        assert late["error"] == "DeadlineExceededError"
        # Only the well-formed request reached admission.
        assert admitted == 1
