"""The benchmark's three workloads.

Each workload generates its inputs from the seed (untimed), sets the
system up from an empty directory (timed as ``setup_s``), then runs a
fixed schedule of operations — never a fixed duration, so a slow run
does the same work as a fast one — and checks every answer against the
column-scan oracle outside the operation timers.

* ``olap_warm``: the paper's Case 2 in memory.  Every read is a pool
  hit, so query time is WAH decode plus WAH algebra.
* ``ingest_merge``: durable delta appends, merge-on-read queries and
  inline compaction on a fixed cycle.
* ``gateway_sharded``: the paper's budgeted Case 3 (k-Cut under
  ``S_total``) served by two shard processes behind the TCP gateway.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core.constrained as constrained
import repro.core.multi as multi
from repro.core.executor import QueryExecutor, scan_answer
from repro.hierarchy.enumeration import max_weight_complete_cut
from repro.hierarchy.tree import paper_hierarchy
from repro.serve.gateway import Gateway, GatewayConfig, ShardedReplica
from repro.serve.sharded import ShardedExecutor
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.compactor import Compactor
from repro.storage.costmodel import MB
from repro.storage.delta import DeltaAppender
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import DurableBitmapStore
from repro.workload.datagen import tpch_acctbal_leaf_probabilities
from repro.workload.generator import range_query_of_fraction
from repro.workload.query import Workload

from harness import self_peak_rss_mib, vm_hwm_mib
from spans import Span, layer_of, self_times

__all__ = ["PER_LAYER", "WORKLOADS", "Window", "per_layer"]

#: Range widths cycled through every query list: 10%, 50% and 90% of
#: the 100-leaf domain, the paper's small/medium/large ranges.
WIDTHS = (0.1, 0.5, 0.9)

#: Fewest queries a run collects: p95 needs 10 samples beyond it.
MIN_QUERIES = 200

#: Layers whose share of query time the traced run reports.
LAYERS = (
    "gateway",
    "sharded",
    "opnodes",
    "executor",
    "cache",
    "filestore",
    "serialization",
    "wah",
    "delta",
    "compactor",
)

WAH_OPS = ("union_all", "andnot", "concat", "from_positions", "to_positions")


#: Seed of the query lists.  The run seed draws the column; the query
#: list stays the same in every run so each latency quantile lands on
#: the same mixture of range widths and placements.
QUERY_SEED = 2014


def make_queries(count: int, stream: int):
    """``count`` single-range queries cycling through :data:`WIDTHS`,
    placed by a fixed per-workload random stream.

    A run's latencies come in clusters, one per distinct query (one per
    distinct round of requests over TCP), each repeated equally often.
    With an odd number of clusters the median falls in the middle of
    one cluster, not on the edge between two, where a little jitter
    would change which query it reports.
    """
    rng = np.random.default_rng([QUERY_SEED, stream])
    return [
        range_query_of_fraction(
            100, WIDTHS[index % len(WIDTHS)], rng, label=f"q{index}"
        )
        for index in range(count)
    ]


def schedule_length(seconds: int, per_second: float, multiple: int) -> int:
    """Operations in a run: the planned rate times the run length, at
    least :data:`MIN_QUERIES`, rounded up to whole passes over the query
    list so every run repeats the same latency mixture."""
    wanted = max(MIN_QUERIES, round(per_second * seconds))
    return multiple * math.ceil(wanted / multiple)


def column_for(blocks, seed: int) -> np.ndarray:
    """A TPC-H-acctbal-like column (near-uniform with spikes, §4) made
    of consecutive blocks of the given row counts.

    Each block holds every leaf value exactly in proportion to its
    probability (largest remainders), in an order drawn from the seed.
    Sampled counts would move bitmap sizes, and with them the planner's
    inclusive/exclusive choices, from seed to seed; fixed counts keep
    the work per query the same while the row positions still vary.
    """
    probabilities = tpch_acctbal_leaf_probabilities(100)
    rng = np.random.default_rng(seed)
    parts = []
    for rows in blocks:
        ideal = probabilities * rows
        counts = np.floor(ideal).astype(np.int64)
        shortfall = rows - int(counts.sum())
        counts[np.argsort(counts - ideal, kind="stable")[:shortfall]] += 1
        parts.append(rng.permutation(np.repeat(np.arange(100), counts)))
    return np.concatenate(parts)


@dataclass
class Op:
    """One timed operation of the window."""

    kind: str
    seconds: float
    ok: bool


@dataclass
class Window:
    """What the timed window did.

    Attributes:
        ops: every operation, in schedule order.
        seconds: the window's length (for single-client workloads, the
            sum of operation times: checks between operations are not
            in the window).
        read_bytes: storage bytes charged to the window's queries.
        spans: spans recorded in a traced run (empty otherwise).
        errors: why each failed check failed.
        extra: workload-specific records used by the per-layer metrics.
    """

    ops: list[Op] = field(default_factory=list)
    seconds: float = 0.0
    read_bytes: int = 0
    spans: list[Span] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def latencies(self, kind: str = "query") -> list[float]:
        """Operation times of one kind, in seconds."""
        return [op.seconds for op in self.ops if op.kind == kind]

    def fail(self, message: str) -> None:
        """Record a failed check (at most a few messages are kept)."""
        if len(self.errors) < 20:
            self.errors.append(message)


def timed(tracer, name: str, request, fn, *args):
    """Call ``fn(*args)``; return its result and duration.

    With a tracer, the call is the root span of its request and tracing
    is on only while it runs, so oracle checks leave no spans.
    """
    if tracer is None:
        started = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - started
    tracer.enabled = True
    span = tracer.open(name, request)
    try:
        result = fn(*args)
    finally:
        tracer.close(span)
        tracer.enabled = False
    return result, span.duration


# ----------------------------------------------------------------------
# Per-layer arithmetic shared by the in-process workloads
# ----------------------------------------------------------------------
def _sum_self(spans, own, name) -> float:
    return sum(own[s.span_id] for s in spans if s.name == name)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def inprocess_layers(spans: list[Span]) -> dict:
    """Per-query layer metrics from the spans under ``bench.query``
    roots (appends and compactions are roots of their own)."""
    roots = [s for s in spans if s.name == "bench.query"]
    requests = {s.request for s in roots}
    scoped = [s for s in spans if s.request in requests]
    own = self_times(scoped)
    by_id = {s.span_id: s for s in scoped}
    queries = max(1, len(roots))
    query_seconds = sum(s.duration for s in roots)

    def per_query_ms(name):
        return _sum_self(scoped, own, name) * 1000.0 / queries

    plans = [s for s in scoped if s.name == "opnodes.build_query_plan"]
    gets = [s for s in scoped if s.name == "cache.get"]
    reads = [s for s in scoped if s.name == "filestore.read"]
    outer_reads = [
        s
        for s in reads
        if s.parent is None or by_id[s.parent].name != "filestore.read"
    ]
    missed_gets = {
        s.parent for s in outer_reads if s.parent in by_id and by_id[s.parent].name == "cache.get"
    }
    decodes = [s for s in scoped if s.name == "serialization.deserialize_wah"]
    decode_seconds = _sum_self(scoped, own, "serialization.deserialize_wah")
    union_calls = sum(s.attrs["union_calls"] for s in plans)
    metrics = {
        "opnodes.plan_ms": per_query_ms("opnodes.build_query_plan"),
        "opnodes.atoms": sum(s.attrs["atoms"] for s in plans) / queries,
        "executor.self_ms": per_query_ms("executor.execute_query"),
        "executor.union_width": (
            sum(s.attrs["union_operands"] for s in plans) / union_calls
            if union_calls
            else 0.0
        ),
        "cache.gets": len(gets) / queries,
        "cache.hit_ratio": (
            1.0 - len(missed_gets) / len(gets) if gets else 0.0
        ),
        "cache.self_ms": per_query_ms("cache.get"),
        "filestore.reads": len(outer_reads) / queries,
        "filestore.read_bytes": sum(s.attrs["bytes"] for s in outer_reads)
        / queries,
        "filestore.self_ms": per_query_ms("filestore.read"),
        "serialization.decode_calls": len(decodes) / queries,
        "serialization.decode_self_ms": decode_seconds * 1000.0 / queries,
        "serialization.decode_mb_per_s": (
            sum(s.attrs["bytes"] for s in decodes) / decode_seconds / 1e6
            if decode_seconds > 0
            else 0.0
        ),
    }
    for op in WAH_OPS:
        metrics[f"wah.{op}_self_ms"] = per_query_ms(f"wah.{op}")
        metrics[f"wah.{op}_calls"] = _count(scoped, f"wah.{op}") / queries
    shares = {layer: 0.0 for layer in LAYERS}
    for s in scoped:
        if s.name != "bench.query":
            shares[layer_of(s.name)] += own[s.span_id]
    unaccounted = sum(own[s.span_id] for s in roots)
    for layer, seconds in shares.items():
        metrics[f"share.{layer}"] = seconds / query_seconds if query_seconds else 0.0
    metrics["share.unaccounted"] = (
        unaccounted / query_seconds if query_seconds else 0.0
    )
    return metrics


def setup_layers(spans: list[Span]) -> dict:
    """Set-up layer metrics: index build, cut selection and shard
    start, in s."""
    return {
        "catalog.build_s": sum(s.duration for s in spans if s.name == "catalog.build"),
        "multi.select_s": sum(
            s.duration for s in spans if s.name == "multi.select_cut_multi"
        ),
        "constrained.select_s": sum(
            s.duration for s in spans if s.name == "constrained.k_cut_selection"
        ),
        "sharded.start_s": sum(
            s.duration for s in spans if s.name == "sharded.start"
        ),
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class _InProcessState:
    catalog: MaterializedNodeCatalog
    pool: BufferPool
    executor: QueryExecutor
    cut: tuple[int, ...]
    warm_ok: bool
    working_set_bytes: int


class _InProcess:
    """Shared by the single-client workloads: build the index into a
    store, pin the Alg.-3 cut in an unbounded pool, warm it with one
    pass over the query list, and time queries one at a time."""

    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups = 3

    def _serve(self, column, store, warm_oracle: dict) -> _InProcessState:
        catalog = MaterializedNodeCatalog(self.hierarchy, column, store)
        cut = tuple(multi.select_cut_multi(catalog, Workload(self.queries)).cut.node_ids)
        pool = BufferPool(store)
        executor = QueryExecutor(catalog, pool)
        executor.pin_cut(cut)
        warm_ok = all(
            executor.execute_query(q, cut, True).answer == warm_oracle[q.label]
            for q in self.queries
        )
        return _InProcessState(
            catalog, pool, executor, cut, warm_ok, pool.resident_bytes
        )

    @staticmethod
    def _query(state, tracer, window: Window, request: str, query, expected) -> int:
        """One timed query checked against its oracle answer; returns
        the storage bytes the executor charged to it."""
        result, seconds = timed(
            tracer, "bench.query", request,
            state.executor.execute_query, query, state.cut, True,
        )
        ok = result.answer == expected
        if not ok:
            window.fail(f"query {request} ({query.label}) differs from scan_answer")
        window.ops.append(Op("query", seconds, ok))
        return result.io_bytes

    @staticmethod
    def _reconcile(state, window: Window, before, charged: int) -> None:
        """The pool's storage reads over the window must equal the bytes
        charged to the window's queries."""
        window.read_bytes = state.pool.accountant.diff_since(before).bytes_read
        if window.read_bytes != charged:
            window.fail(
                f"IO does not reconcile: pool read {window.read_bytes} B, "
                f"queries charged {charged} B"
            )

    def end_metrics(self, state, window, rows: int | None = None) -> dict:
        """End-of-run figures; ``rows`` defaults to the built rows."""
        return {
            "store_bytes_per_row": state.catalog.store.total_bytes()
            / (rows or state.catalog.num_rows),
            "peak_rss_mb": self_peak_rss_mib(),
            "working_set_bytes": state.working_set_bytes,
        }

    def close(self, state) -> None:
        state.pool.clear()

    def layer_metrics(self, window: Window) -> dict:
        return inprocess_layers(window.spans)


class OlapWarm(_InProcess):
    """Case 2 in memory: the Alg.-3 cut pinned in an unbounded pool
    and one untimed warm-up pass, so every timed read is a pool hit."""

    name = "olap_warm"
    why = (
        "Case 2 in memory: every read is a pool hit, so query time is "
        "WAH decode plus algebra; bypasses storage, deltas, IPC and the gateway"
    )

    def __init__(self, seed: int, seconds: int, smoke: bool):
        self.rows = 20_000 if smoke else 1_000_000
        self.hierarchy = paper_hierarchy(100)
        self.column = column_for([self.rows], seed)
        self.queries = make_queries(9, stream=1)
        count = schedule_length(seconds, 20, len(self.queries))
        self.schedule = [self.queries[i % len(self.queries)] for i in range(count)]
        self.oracle = {q.label: scan_answer(self.column, q) for q in self.queries}
        self.design = {
            "rows": self.rows,
            "hierarchy_leaves": 100,
            "distinct_queries": len(self.queries),
            "scheduled_queries": count,
            "clients": 1,
            "store": "in-memory BitmapFileStore",
            "cache": "unbounded BufferPool, Alg.-3 cut pinned, one warm-up pass",
        }

    def setup(self, workdir: Path) -> _InProcessState:
        return self._serve(self.column, BitmapFileStore(), self.oracle)

    def run(self, state: _InProcessState, tracer=None) -> Window:
        window = Window()
        if not state.warm_ok:
            window.fail("a warm-up answer differs from scan_answer")
        before = state.pool.accountant.snapshot()
        charged = sum(
            self._query(state, tracer, window, f"q{index}", query, self.oracle[query.label])
            for index, query in enumerate(self.schedule)
        )
        window.seconds = sum(op.seconds for op in window.ops)
        self._reconcile(state, window, before, charged)
        return window


class IngestMerge(_InProcess):
    """Durable delta appends beside merge-on-read queries, with
    ``Compactor.run()`` inline after every fourth append."""

    name = "ingest_merge"
    #: Set-up here is a 10k-row durable build, a fraction of a second,
    #: so more repetitions steady its median.
    setups = 7
    why = (
        "durable delta append, manifest commit, merge-on-read concat and "
        "inline compaction on a fixed cycle; the only workload that writes"
    )

    #: Every staged delta file, every rewritten base and the MANIFEST
    #: are fsynced before the commit rename (the shipped policy).
    FLUSH_POLICY = "fsync every staged file and the MANIFEST, then rename"

    def __init__(self, seed: int, seconds: int, smoke: bool):
        self.base_rows = 2_000 if smoke else 10_000
        self.batch_rows = 100 if smoke else 500
        self.queries_per_cycle = 15
        self.compact_every = 4
        self.hierarchy = paper_hierarchy(100)
        self.queries = make_queries(self.queries_per_cycle, stream=2)
        self.cycles = schedule_length(seconds, 40, self.queries_per_cycle) // (
            self.queries_per_cycle
        )
        total = self.base_rows + self.cycles * self.batch_rows
        self.column = column_for(
            [self.base_rows] + [self.batch_rows] * self.cycles, seed
        )
        # oracle[0] answers the base alone (the warm-up pass); oracle[c]
        # answers the column once c batches are appended.
        self.oracle = [
            {
                q.label: scan_answer(
                    self.column[: self.base_rows + cycle * self.batch_rows], q
                )
                for q in self.queries
            }
            for cycle in range(self.cycles + 1)
        ]
        self.design = {
            "base_rows": self.base_rows,
            "batch_rows": self.batch_rows,
            "cycles": self.cycles,
            "queries_per_cycle": self.queries_per_cycle,
            "compact_every_appends": self.compact_every,
            "scheduled_queries": self.cycles * self.queries_per_cycle,
            "final_rows": total,
            "clients": 1,
            "store": "DurableBitmapStore in a fresh directory",
            "flush_policy": self.FLUSH_POLICY,
            "cache": "unbounded BufferPool, Alg.-3 cut pinned, one warm-up pass",
        }

    def setup(self, workdir: Path) -> _InProcessState:
        store = DurableBitmapStore(workdir / "store")
        return self._serve(self.column[: self.base_rows], store, self.oracle[0])

    def run(self, state: _InProcessState, tracer=None) -> Window:
        window = Window(extra={"appends": [], "compactions": []})
        if not state.warm_ok:
            window.fail("a warm-up answer differs from scan_answer")
        store = state.catalog.store
        appender = DeltaAppender(store, self.hierarchy)
        compactor = Compactor(store)
        before = state.pool.accountant.snapshot()
        charged = 0
        for cycle in range(self.cycles):
            lo = self.base_rows + cycle * self.batch_rows
            appended, seconds = timed(
                tracer, "bench.append", f"a{cycle}",
                appender.append, self.column[lo : lo + self.batch_rows],
            )
            ok = appended.committed and appended.num_rows == self.batch_rows
            if not ok:
                window.fail(f"append {cycle} committed {appended.num_rows} rows")
            window.ops.append(Op("append", seconds, ok))
            window.extra["appends"].append(appended)
            for query in self.queries:
                charged += self._query(
                    state, tracer, window, f"c{cycle}{query.label}", query,
                    self.oracle[cycle + 1][query.label],
                )
            if (cycle + 1) % self.compact_every == 0:
                report, seconds = timed(
                    tracer, "bench.compact", f"k{cycle}", compactor.run
                )
                ok = report.folded_rows == self.compact_every * self.batch_rows
                if not ok:
                    window.fail(f"compaction after cycle {cycle} folded {report.folded_rows} rows")
                window.ops.append(Op("compact", seconds, ok))
                window.extra["compactions"].append(report)
        window.seconds = sum(op.seconds for op in window.ops)
        self._reconcile(state, window, before, charged)
        total = self.base_rows + self.cycles * self.batch_rows
        if store.total_num_rows != total:
            window.fail(f"store holds {store.total_num_rows} rows, expected {total}")
        return window

    def end_metrics(self, state, window) -> dict:
        rows = state.catalog.store.total_num_rows
        return super().end_metrics(state, window, rows) | {
            "append_p50_ms": statistics.median(window.latencies("append")) * 1000.0,
        }

    def layer_metrics(self, window: Window) -> dict:
        appends = window.extra["appends"]
        compactions = window.extra["compactions"]
        return super().layer_metrics(window) | {
            "delta.append_ms": statistics.median(
                s.duration for s in window.spans if s.name == "delta.append"
            )
            * 1000.0,
            "delta.bytes_written_per_row": sum(a.bytes_written for a in appends)
            / sum(a.num_rows for a in appends),
            "delta.files_per_append": sum(a.files_written for a in appends)
            / len(appends),
            "compactor.run_ms": statistics.mean(
                s.duration for s in window.spans if s.name == "compactor.run"
            )
            * 1000.0,
            "compactor.bytes_rewritten_per_row": sum(
                r.bytes_written for r in compactions
            )
            / sum(r.folded_rows for r in compactions),
            "compactor.wall_share": sum(window.latencies("compact")) / window.seconds,
        }


# ----------------------------------------------------------------------
# gateway_sharded
# ----------------------------------------------------------------------
class _GatewayThread:
    """Runs a :class:`Gateway` and its TCP listener on an event loop of
    its own, so the benchmark's clients see it as a remote service."""

    def __init__(self, replica):
        self._replica = replica
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="hcsbench-gateway", daemon=True
        )
        self._error: Exception | None = None
        self.gateway: Gateway | None = None
        self.port = 0

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(120) or self._error is not None:
            raise RuntimeError(f"gateway failed to start: {self._error!r}")

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except Exception as exc:  # reported by start()
            self._error = exc
            self._ready.set()
        finally:
            loop.close()

    async def _serve(self) -> None:
        self.gateway = Gateway([self._replica], GatewayConfig())
        await self.gateway.start()
        server = await self.gateway.serve_tcp()
        try:
            self.port = server.sockets[0].getsockname()[1]
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self.gateway.aclose()

    def stop(self) -> None:
        if self._thread.is_alive() and self._ready.is_set():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("gateway thread did not stop")


def _request_line(request_id: int, query) -> bytes:
    return json.dumps(
        {
            "id": request_id,
            "label": f"r{request_id}",
            "ranges": [[spec.start, spec.end] for spec in query.specs],
        }
    ).encode("ascii") + b"\n"


async def _drive(port: int, requests, connections: int, outstanding: int) -> dict:
    """Closed-loop clients over ``connections`` TCP connections.

    Requests go out in rounds: each connection writes ``outstanding``
    request lines, and the next round starts when every reply of this
    one is in.  A round reaches the gateway as one burst, so the
    micro-batcher forms the same batches in every run (sliding windows
    let arrival jitter split batches differently from run to run).
    Returns ``request id -> (seconds from write to reply, reply)``.
    """
    streams = [
        await asyncio.open_connection("127.0.0.1", port, limit=2**24)
        for _ in range(connections)
    ]
    results: dict = {}

    async def collect(reader, count: int, written: float) -> None:
        for _ in range(count):
            line = await reader.readline()
            if not line:
                raise ConnectionError("gateway closed the connection")
            reply = json.loads(line)
            results[reply["id"]] = (time.perf_counter() - written, reply)

    try:
        per_round = connections * outstanding
        for first in range(0, len(requests), per_round):
            round_ = requests[first : first + per_round]
            waits = []
            for index, (reader, writer) in enumerate(streams):
                mine = round_[index::connections]
                if mine:
                    written = time.perf_counter()
                    writer.write(b"".join(_request_line(rid, q) for rid, q in mine))
                    waits.append(collect(reader, len(mine), written))
            await asyncio.gather(*waits)
    finally:
        for _reader, writer in streams:
            writer.close()
            await writer.wait_closed()
    return results


@dataclass
class _GatewayState:
    sharded: ShardedExecutor
    server: _GatewayThread
    budget_bytes: int
    max_cut_bytes: int
    cut_info: tuple
    warm_records: int
    warm_ok: bool


class GatewaySharded:
    """Budgeted Case 3 over two shard processes behind the TCP gateway,
    driven by closed-loop clients over JSON lines."""

    name = "gateway_sharded"
    setups = 3
    why = (
        "budgeted Case 3 over 2 shard processes behind the TCP gateway: "
        "admission, micro-batching, pipe IPC, streamed reads, k-Cut and shard merge"
    )

    SHARDS = 2
    CONNECTIONS = 2
    OUTSTANDING = 4
    #: ``S_total`` as a share of the max-cut size (§4.3's memory
    #: availability).
    MEMORY_SHARE = 0.3

    def __init__(self, seed: int, seconds: int, smoke: bool):
        self.rows = 10_000 if smoke else 100_000
        self.hierarchy = paper_hierarchy(100)
        # One block per shard: shards split the rows in equal halves.
        self.column = column_for([self.rows // self.SHARDS] * self.SHARDS, seed)
        # Three distinct rounds of CONNECTIONS x OUTSTANDING requests.
        self.queries = make_queries(24, stream=3)
        count = schedule_length(seconds, 40, len(self.queries))
        self.schedule = [self.queries[i % len(self.queries)] for i in range(count)]
        self.oracle = {q.label: scan_answer(self.column, q) for q in self.queries}
        self.design = {
            "rows": self.rows,
            "shards": self.SHARDS,
            "threads_per_shard": 1,
            "shard_store": "directory-backed BitmapFileStore",
            "distinct_queries": len(self.queries),
            "scheduled_queries": count,
            "clients": f"{self.CONNECTIONS} TCP connections x {self.OUTSTANDING} requests per round",
            "gateway": "default GatewayConfig",
            "cache": f"prepare(budget_bytes_total=S_total), S_total = {self.MEMORY_SHARE} x max-cut bytes, k=4 per shard",
        }

    def _max_cut_bytes(self, sharded: ShardedExecutor) -> int:
        sizes = [0] * self.hierarchy.num_nodes
        for spec in sharded.shard_specs:
            store = BitmapFileStore(spec.store_dir)
            for node in self.hierarchy:
                sizes[node.node_id] += store.size_bytes(node_file_name(node.node_id))
        return int(max_weight_complete_cut(self.hierarchy, sizes)[0])

    def setup(self, workdir: Path) -> _GatewayState:
        sharded = ShardedExecutor.build(
            self.hierarchy, self.column, self.SHARDS, workdir / "shards",
            threads_per_shard=1,
        )
        server = None
        try:
            max_cut = self._max_cut_bytes(sharded)
            budget = int(self.MEMORY_SHARE * max_cut)
            sharded.start()
            cut_info = sharded.prepare(Workload(self.queries), budget_bytes_total=budget)
            server = _GatewayThread(ShardedReplica(0, sharded))
            server.start()
            # Warm-up: one pass over the distinct queries pins each
            # shard's cut on its first batch.
            replies = asyncio.run(
                _drive(
                    server.port, list(enumerate(self.queries)),
                    self.CONNECTIONS, self.OUTSTANDING,
                )
            )
            warm_ok = all(
                reply["status"] == "ok"
                and reply["count"] == self.oracle[self.queries[i].label].count()
                for i, (_seconds, reply) in replies.items()
            )
        except BaseException:
            if server is not None:
                server.stop()
            sharded.close()
            raise
        return _GatewayState(
            sharded, server, budget, max_cut, cut_info,
            warm_records=len(server.gateway.batch_records),
            warm_ok=warm_ok,
        )

    def run(self, state: _GatewayState, tracer=None) -> Window:
        window = Window()
        if not state.warm_ok:
            window.fail("a warm-up answer differs from scan_answer")
        requests = list(enumerate(self.schedule))
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        try:
            replies = asyncio.run(
                _drive(state.server.port, requests, self.CONNECTIONS, self.OUTSTANDING)
            )
        finally:
            window.seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.enabled = False
        for request_id, query in requests:
            seconds, reply = replies[request_id]
            ok = (
                reply.get("status") == "ok"
                and reply.get("count") == self.oracle[query.label].count()
            )
            if not ok:
                window.fail(f"request {request_id} ({query.label}): {reply}")
            window.ops.append(Op("query", seconds, ok))
        records = state.server.gateway.batch_records[state.warm_records :]
        window.extra["records"] = records
        window.extra["client_seconds"] = {
            f"r{rid}": replies[rid][0] for rid, _q in requests
        }
        self._check_records(records, window)
        return window

    def _check_records(self, records, window: Window) -> None:
        """Words of every batch answer, and IO reconciliation of every
        batch and shard report."""
        by_label = {f"r{rid}": q for rid, q in enumerate(self.schedule)}
        served = 0
        for record in records:
            report = record.report
            if not report.reconciles():
                window.fail(f"batch {record.batch_id} IO does not reconcile")
            if record.attempts != 1 or record.hedged:
                window.fail(f"batch {record.batch_id} needed retries")
            for outcome in report.outcomes:
                served += 1
                query = by_label.get(outcome.result.query.label) if outcome.ok else None
                if query is None or outcome.result.answer != self.oracle[query.label]:
                    window.fail(f"batch {record.batch_id} answer differs from scan_answer")
                else:
                    window.read_bytes += outcome.io.bytes_read
        if served != len(self.schedule):
            window.fail(f"batch records cover {served} of {len(self.schedule)} requests")

    def end_metrics(self, state, window) -> dict:
        rows = state.sharded.num_rows
        stored = sum(
            BitmapFileStore(spec.store_dir).total_bytes()
            for spec in state.sharded.shard_specs
        )
        return {
            "store_bytes_per_row": stored / rows,
            "peak_rss_mb": self_peak_rss_mib()
            + sum(vm_hwm_mib(p.pid) for p in state.sharded.worker_processes),
            "working_set_bytes": state.max_cut_bytes,
            "budget_bytes": state.budget_bytes,
            "batches": len(window.extra["records"]),
            "cut_sizes": [len(info.cut_node_ids) for info in state.cut_info],
        }

    def close(self, state) -> None:
        try:
            state.server.stop()
        finally:
            state.sharded.close()

    def replay_k_cut(self, state: _GatewayState, tracer) -> bool:
        """Time ``k_cut_selection`` in this process on shard 0's store
        with shard 0's budget — shard workers cannot be wrapped from
        here — and check it picks the cut shard 0 picked."""
        spec = state.sharded.shard_specs[0]
        catalog = MaterializedNodeCatalog.from_store(
            self.hierarchy, BitmapFileStore(spec.store_dir)
        )
        budget = state.cut_info[0].budget_bytes
        tracer.enabled = True
        try:
            result = constrained.k_cut_selection(
                catalog, Workload(self.queries), budget / MB, k=4
            )
        finally:
            tracer.enabled = False
        return tuple(result.cut.node_ids) == tuple(state.cut_info[0].cut_node_ids)

    def layer_metrics(self, window: Window) -> dict:
        spans = window.spans
        own = self_times(spans)
        records = window.extra["records"]
        client = window.extra["client_seconds"]
        outcomes = [o for record in records for o in record.report.outcomes]
        queries = max(1, len(outcomes))
        submits = {s.request: s for s in spans if s.name == "gateway.submit"}
        batches = sorted(
            (s for s in spans if s.name == "gateway.run_batch"), key=lambda s: s.start
        )
        runs = [s for s in spans if s.name == "sharded.run"]
        # Self time by layer inside each batch (the dispatch thread's
        # run_batch span is the root of its batch's spans).
        batch_layers: dict = {}
        for span in spans:
            if span.name != "gateway.submit":
                layers = batch_layers.setdefault(span.request, dict.fromkeys(LAYERS, 0.0))
                layers[layer_of(span.name)] += own[span.span_id]
        # Batches run one at a time on the replica, so traced batch
        # spans and the window's batch records line up in order.
        batch_of = {
            outcome.result.query.label: span
            for span, record in zip(batches, records)
            for outcome in record.report.outcomes
        }
        share = dict.fromkeys(LAYERS, 0.0)
        queue_wait, tcp, unaccounted = [], [], 0.0
        for label, batch in batch_of.items():
            submit = submits[label]
            queue_wait.append(batch.start - submit.start)
            tcp.append(client[label] - submit.duration)
            share["gateway"] += tcp[-1] + queue_wait[-1]
            for layer, seconds in batch_layers[batch.request].items():
                share[layer] += seconds
            unaccounted += submit.end - batch.end
        shard_max = [
            max(r.wall_seconds for r in record.report.shard_reports) for record in records
        ]
        report_wall = [record.report.wall_seconds for record in records]
        events = [e for o in outcomes for e in o.events]
        hits = sum(1 for e in events if e.kind == "cache.hit")
        misses = sum(1 for e in events if e.kind == "cache.miss")
        metrics = {
            "gateway.queue_wait_ms": statistics.mean(queue_wait) * 1000.0,
            "gateway.batch_size": statistics.mean(r.size for r in records),
            "gateway.dispatch_ms": statistics.mean(s.duration for s in batches) * 1000.0,
            "gateway.tcp_ms": statistics.mean(tcp) * 1000.0,
            "gateway.retries": float(
                sum(r.attempts - 1 + int(r.hedged) for r in records)
            ),
            "sharded.shard_ms": statistics.mean(shard_max) * 1000.0,
            "sharded.ipc_ms": statistics.mean(
                w - m for w, m in zip(report_wall, shard_max)
            )
            * 1000.0,
            "sharded.merge_ms": (
                statistics.mean(s.duration for s in runs) - statistics.mean(report_wall)
            )
            * 1000.0,
            "opnodes.atoms": sum(1 for e in events if e.kind == "executor.atom") / queries,
            "cache.gets": (hits + misses) / queries,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "filestore.reads": sum(o.io.read_count for o in outcomes) / queries,
            "filestore.read_bytes": sum(o.io.bytes_read for o in outcomes) / queries,
        }
        for op in WAH_OPS:
            metrics[f"wah.{op}_self_ms"] = (
                _sum_self(spans, own, f"wah.{op}") * 1000.0 / queries
            )
            metrics[f"wah.{op}_calls"] = _count(spans, f"wah.{op}") / queries
        total = sum(client[label] for label in batch_of)
        for layer in LAYERS:
            metrics[f"share.{layer}"] = share[layer] / total if total else 0.0
        metrics["share.unaccounted"] = unaccounted / total if total else 0.0
        return metrics


WORKLOADS = {
    workload.name: workload for workload in (OlapWarm, IngestMerge, GatewaySharded)
}


#: Every per-layer metric: name, unit, which way is better.  Time
#: metrics are self time per query unless named per batch (gateway
#: dispatch, sharded.*), per call (delta.append_ms, compactor.run_ms)
#: or per run (set-up layers).  A layer a workload does not run reads 0.
PER_LAYER = (
    ("gateway.queue_wait_ms", "ms", "lower"),
    ("gateway.batch_size", "count", "higher"),
    ("gateway.dispatch_ms", "ms", "lower"),
    ("gateway.tcp_ms", "ms", "lower"),
    ("gateway.retries", "count", "lower"),
    ("sharded.shard_ms", "ms", "lower"),
    ("sharded.ipc_ms", "ms", "lower"),
    ("sharded.merge_ms", "ms", "lower"),
    ("sharded.start_s", "s", "lower"),
    ("opnodes.plan_ms", "ms", "lower"),
    ("opnodes.atoms", "count", "lower"),
    ("executor.self_ms", "ms", "lower"),
    ("executor.union_width", "count", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("cache.self_ms", "ms", "lower"),
    ("filestore.reads", "count", "lower"),
    ("filestore.read_bytes", "B", "lower"),
    ("filestore.self_ms", "ms", "lower"),
    ("serialization.decode_calls", "count", "lower"),
    ("serialization.decode_self_ms", "ms", "lower"),
    ("serialization.decode_mb_per_s", "MB/s", "higher"),
    *(
        item
        for op in WAH_OPS
        for item in (
            (f"wah.{op}_self_ms", "ms", "lower"),
            (f"wah.{op}_calls", "count", "lower"),
        )
    ),
    ("delta.append_ms", "ms", "lower"),
    ("delta.bytes_written_per_row", "B", "lower"),
    ("delta.files_per_append", "count", "lower"),
    ("compactor.run_ms", "ms", "lower"),
    ("compactor.bytes_rewritten_per_row", "B", "lower"),
    ("compactor.wall_share", "fraction", "lower"),
    ("catalog.build_s", "s", "lower"),
    ("multi.select_s", "s", "lower"),
    ("constrained.select_s", "s", "lower"),
    *((f"share.{layer}", "fraction", "lower") for layer in LAYERS),
    ("share.unaccounted", "fraction", "lower"),
    ("trace.overhead", "fraction", "lower"),
)


def per_layer(workload, window: Window, setup_spans: list[Span], untraced: Window) -> dict:
    """The traced run's per-layer metrics as ``name -> (value, unit)``,
    with the tracing overhead measured against the untraced window."""
    values = dict.fromkeys((name for name, _unit, _better in PER_LAYER), 0.0)
    values |= setup_layers(setup_spans)
    values |= workload.layer_metrics(window)
    queries = len(window.latencies("query"))
    values["trace.overhead"] = 1.0 - (queries / window.seconds) / (
        len(untraced.latencies("query")) / untraced.seconds
    )
    return {name: (values[name], unit) for name, unit, _better in PER_LAYER}
