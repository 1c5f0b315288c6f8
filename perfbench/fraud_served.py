"""``fraud-served``: a read-only fraud mix served by ``DatabaseServer``.

Why this workload: it loads the server's admission and pool lease, morsel
dispatch on the thread backend and the early-exit sinks (``exists`` and
``collect(limit=)``), with almost no planning (the seven request kinds fit
the plan cache) and no maintenance.  The server runs one slot at
``parallelism=2`` with the ``reject`` policy; two closed-loop clients each
send their next request when the previous answer arrives.

Correctness: every answer is compared byte for byte (its ``repr``) with
the direct serial ``Database`` answer of the same request, computed before
the timed phase.  A refused request counts as failed.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import MorselExecutor, ReproError, ServerConfig, ServerOverloadedError
from repro.query import ExecutionStats
from repro.server import PersistentThreadBackend
from repro.workloads import fraud

import layers
import support
from spans import Tracer

SIZES = {
    "full": dict(
        vertices=10_000,
        edges=100_000,
        requests_per_second=45,
        setup_repeats=5,
        replays=3,
    ),
    "smoke": dict(
        vertices=300,
        edges=3_000,
        requests_per_second=10,
        setup_repeats=2,
        replays=1,
    ),
}

#: (pattern, sink, limit, share of requests).
MIX = (
    ("MF4", "count", None, 0.25),
    ("MF2", "exists", None, 0.20),
    ("MF2", "count", None, 0.15),
    ("MF5", "collect", 100, 0.15),
    ("MF5", "exists", None, 0.10),
    ("MF5", "count", None, 0.13),
    ("MF3", "count", None, 0.02),
)
CLIENTS = 2
PARALLELISM = 2
SERVER_CONFIG = ServerConfig(
    max_concurrent=1, policy="reject", parallelism=PARALLELISM, backend="thread"
)
EARLY_EXIT_MODES = ("exists", "collect")
#: Requests per slice when the traced and untraced runs take turns.
TRACE_SLICE = 45


@dataclass
class Kind:
    pattern: str
    mode: str
    limit: Optional[int]
    query: object

    def submit(self, server):
        return server.submit(self.query, mode=self.mode, limit=self.limit)


def make_kinds(graph) -> List[Kind]:
    queries = fraud.build_workload(graph)
    return [Kind(pattern, mode, limit, queries[pattern]) for pattern, mode, limit, _ in MIX]


def apportion(shares, count: int) -> np.ndarray:
    """Kind indexes in exact proportion to ``shares`` (largest remainder).

    Every seed then runs the same number of requests of each kind; with
    random draws the 2% MF3 share alone would move the p99 from run to run.
    """
    exact = np.asarray(shares) * count
    counts = np.floor(exact).astype(int)
    leftover = np.argsort(counts - exact, kind="stable")[: count - counts.sum()]
    counts[leftover] += 1
    return np.repeat(np.arange(len(shares)), counts)


def start(db, kinds: List[Kind]):
    """Start the server and take its first lease by serving one request."""
    server = db.server(SERVER_CONFIG)
    kinds[0].submit(server).result()
    return server


def timed_phase(
    server, kinds, sequence, positions, expected, tally, latencies, tracer: Optional[Tracer] = None
) -> float:
    """Two closed-loop clients drain ``positions`` of the request sequence.

    Appends each answered request's latency to ``latencies``; returns the
    phase's wall seconds.
    """
    lock = threading.Lock()
    cursor = iter(positions)

    def client() -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            kind = kinds[sequence[position]]
            started = time.perf_counter()
            try:
                if tracer is None:
                    answer = kind.submit(server).result()
                else:
                    with tracer.span("request", request=position):
                        with tracer.span("server.submit"):
                            ticket = kind.submit(server)
                        with tracer.span("server.wait"):
                            answer = ticket.result()
            except ServerOverloadedError as error:
                with lock:
                    tally.fail("refused", f"request {position}: {error!r}")
                continue
            except ReproError as error:
                with lock:
                    tally.fail("raised", f"request {position}: {error!r}")
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if repr(answer) != expected[sequence[position]]:
                    tally.fail("wrong", f"request {position}: {kind.pattern} {kind.mode}")

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    phase_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - phase_started


def replay_layers(db, server, kinds, weights, replays: int) -> Dict[str, float]:
    """Per-kind direct replays, weighted by each kind's share of the sequence.

    Each kind runs serially with ``ExecutionStats`` (operator and storage
    counters), directly at ``parallelism=2`` on a persistent thread pool of
    the kind the server leases (morsels dispatched, the cost of going
    parallel) and through the server from a single client (the cost of
    serving).  Times are medians of ``replays`` runs.
    """
    pool = PersistentThreadBackend(PARALLELISM).start()
    parallel_executor = MorselExecutor(
        db.graph, batch_size=db.batch_size, num_workers=PARALLELISM, backend=pool
    )
    per_kind = []
    try:
        for kind in kinds:
            per_kind.append(replay_kind(db, server, kind, parallel_executor, replays))
    finally:
        pool.shutdown()

    def weighted(values, by=weights) -> float:
        return float(np.dot(by, values))

    morsels = [k["morsels"] for k in per_kind]
    early = [w if kind.mode in EARLY_EXIT_MODES else 0.0 for w, kind in zip(weights, kinds)]
    out = {
        "query.plan_cache.plan_hit_ms": 1000 * weighted([k["plan"] for k in per_kind]),
        "query.executor.execute_ms": 1000 * weighted([k["serial"] for k in per_kind]),
        "query.backends.parallel_minus_serial_ms": 1000
        * weighted([k["parallel"] - k["serial"] for k in per_kind]),
        "server.overhead_ms": 1000 * weighted([k["served"] - k["parallel"] for k in per_kind]),
        "query.backends.morsels_dispatched": weighted(morsels),
        "query.backends.morsels_per_early_exit": weighted(morsels, early) / sum(early)
        if sum(early)
        else 0.0,
    }
    # Counters: each kind's serial replay, weighted by the kind's share.
    keys = {key for kind in per_kind for key in kind["counters"]}
    totals = {
        key: weighted([kind["counters"].get(key, 0.0) for kind in per_kind])
        for key in keys
    }
    out.update(layers.execution_layers([totals]))
    return out


def replay_kind(db, server, kind: Kind, parallel_executor, replays: int) -> Dict[str, object]:
    """Median serial, parallel, served and planning times of one request kind."""
    plan = db.plan(kind.query)
    serial, parallel, served, plans = [], [], [], []
    for _ in range(replays):
        started = time.perf_counter()
        db.plan(kind.query)
        plans.append(time.perf_counter() - started)
        serial_stats = ExecutionStats()
        started = time.perf_counter()
        layers.run_query(
            db, plan, kind.mode, kind.limit, serial_stats, db.executor(parallelism=1)
        )
        serial.append(time.perf_counter() - started)
        parallel_stats = ExecutionStats()
        started = time.perf_counter()
        layers.run_query(db, plan, kind.mode, kind.limit, parallel_stats, parallel_executor)
        parallel.append(time.perf_counter() - started)
        started = time.perf_counter()
        kind.submit(server).result()
        served.append(time.perf_counter() - started)
    return {
        "serial": statistics.median(serial),
        "parallel": statistics.median(parallel),
        "served": statistics.median(served),
        "plan": statistics.median(plans),
        "counters": layers.execution_counters(serial_stats),
        "morsels": parallel_stats.morsels_dispatched,
    }


def run(seed: int, seconds: int, trace: bool, size: str = "full") -> Dict:
    params = SIZES[size]
    rng = np.random.default_rng(seed)
    graph = support.financial_graph(params["vertices"], params["edges"])
    alpha = fraud.amount_alpha(graph)
    count = max(1, round(params["requests_per_second"] * seconds))
    sequence = rng.permutation(apportion([m[-1] for m in MIX], count)).tolist()

    tracer = Tracer() if trace else None
    kinds = make_kinds(graph)

    def build(clock):
        db = support.build_fraud_database(graph, alpha, clock)
        return db, start(db, kinds)

    setup = support.repeated_setup(
        build,
        params["setup_repeats"],
        keep=1,
        tracer=tracer,
        teardown=lambda built: built[1].drain(),
    )
    db, server = setup.kept[0]
    try:
        expected = [
            repr(layers.run_query(db, kind.query, kind.mode, kind.limit)) for kind in kinds
        ]
        for kind in kinds:
            kind.submit(server).result()  # plans cached, pool warm
        tally = support.Tally(attempted=count)
        latencies: List[float] = []
        if trace:
            traced_tally = support.Tally(attempted=count)
            slices = [
                range(first, min(first + TRACE_SLICE, count))
                for first in range(0, count, TRACE_SLICE)
            ]
            wall, traced_wall = support.interleaved(
                len(slices),
                lambda step: timed_phase(
                    server, kinds, sequence, slices[step], expected, tally, latencies
                ),
                lambda step: timed_phase(
                    server, kinds, sequence, slices[step], expected, traced_tally, [], tracer
                ),
            )
        else:
            gc.collect()
            wall = timed_phase(server, kinds, sequence, range(count), expected, tally, latencies)
        out = {
            "tally": tally,
            "end_to_end": {
                "setup_s": setup.seconds,
                "qps": len(latencies) / wall,
                **support.latency_metrics(latencies),
                "index_bytes_per_edge": db.memory_report().total / db.graph.num_edges,
            },
            "extra": {"requests": count, "wall_s": wall},
        }
        if trace:
            tally.absorb(traced_tally)
            weights = np.bincount(sequence, minlength=len(MIX)) / count
            per_layer = layers.empty_layers()
            per_layer.update(replay_layers(db, server, kinds, weights, params["replays"]))
            per_layer.update(served_layers(tracer.spans, server))
            per_layer.update(
                layers.index_layers(
                    setup.build_seconds, support.index_bytes(db), db.graph.num_edges
                )
            )
            per_layer["trace.overhead"] = traced_wall / wall - 1.0
            out["per_layer"] = per_layer
            out["tracer"] = tracer
    finally:
        server.drain()
    return out


def served_layers(spans, server) -> Dict[str, float]:
    stats = server.stats
    supervisor = server.supervisor
    planned = stats.plan_cache_hits + stats.plan_cache_misses
    return {
        "server.admission.submit_ms": layers.mean_ms(spans, "server.submit"),
        "server.admission.wait_ms": layers.mean_ms(spans, "server.wait"),
        "query.plan_cache.hit_ratio": stats.plan_cache_hits / planned if planned else 0.0,
        "server.admission.rejected": stats.rejected,
        "server.admission.shed": stats.shed,
        "server.admission.failed": stats.failed,
        "server.pools.created": supervisor.pools_created,
        "server.pools.reused": supervisor.pools_reused,
        "server.pools.recycled": supervisor.pools_recycled,
        "server.pools.degraded": supervisor.degraded_leases,
    }
