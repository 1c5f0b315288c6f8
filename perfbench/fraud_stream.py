"""``fraud-stream``: transfer batches inserted beside anchored fraud checks.

Why this workload: most of its time is index maintenance, which the read-only
workloads never touch.  A seeded stream of 1,000-transfer batches arrives at
a ``D+VPc+EPc`` financial database; for each batch the client calls
``insert_edges``, then one ``flush`` (one flush per batch, no threshold
flush), then 20 fraud checks (MF5/MF4 ``count`` anchored on accounts of the
batch).  Every flush bumps the store generation, so the plan cache starts
cold after every batch.  A request of this workload is one batch: its
latency runs from ``insert_edges`` until the batch's last check returns;
``qps`` counts checks per second of the whole stream.

A flush costs time in proportion to the graph, so batch latency climbs as
the stream grows the graph.  The stream therefore runs in rounds, each on a
fresh copy of the base database (the set-up builds): the latency
percentiles then pool batches from every part of the run rather than
reading the few batches that happened to run last.

Correctness: every answer is a non-negative count.  At a few seeded batches
a snapshot of the store is kept; after the timed phase a database rebuilt
from scratch on the snapshot's graph with the same indexes recomputes the
batch's checks, which must agree, and its indexes must have the same sizes
as the maintained ones.  The kept graph must also hold every inserted edge.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import ReproError, cmp, prop
from repro.workloads import fraud

import layers
import support
from spans import Tracer

SIZES = {
    "full": dict(
        vertices=10_000,
        edges=100_000,
        batch=1_000,
        batches_per_second=3.5,
        checks_per_batch=20,
        checkpoints=3,
        rounds=5,
    ),
    "smoke": dict(
        vertices=300,
        edges=3_000,
        batch=60,
        batches_per_second=2,
        checks_per_batch=4,
        checkpoints=2,
        rounds=2,
    ),
}

#: Edge properties a transfer carries.
PROPERTIES = ("amt", "date", "currency")

#: Merge threshold that never triggers: the client flushes once per batch.
NO_THRESHOLD_FLUSH = 2**62


@dataclass
class Check:
    pattern: str
    account: int
    query: object


def anchored_check(graph, alpha: int, pattern: str, account: int):
    if pattern == "MF4":
        city = graph.vertex_props.value(account, "city")
        query = fraud.build_mf4(graph, alpha, beta_city=city)
    else:
        query = fraud.build_mf5(graph, alpha)
    query.add_predicate(cmp(prop("a1", "ID"), "=", int(account)))
    return query


def make_checks(rng, graph, alpha: int, sources: np.ndarray, count: int) -> List[Check]:
    accounts = rng.choice(sources, size=count)
    patterns = rng.permutation(np.resize(("MF5", "MF4"), count))
    return [
        Check(str(p), int(a), anchored_check(graph, alpha, str(p), int(a)))
        for p, a in zip(patterns, accounts)
    ]


def fresh_checks(graph, alpha: int, checks: List[Check]) -> List[Check]:
    """The same checks as new query objects (a query caches its fingerprint)."""
    return [
        Check(c.pattern, c.account, anchored_check(graph, alpha, c.pattern, c.account))
        for c in checks
    ]


class StreamClient:
    """One client streaming batches into databases and checking each batch.

    Round ``r`` of the stream, batches ``r * per_round`` up to the next
    round's first, goes to ``dbs[r]``.
    """

    def __init__(
        self, dbs, per_round: int, checkpoints, tally, tracer: Optional[Tracer] = None
    ) -> None:
        self.dbs = dbs
        self.maintainers = [db.maintainer(merge_threshold=NO_THRESHOLD_FLUSH) for db in dbs]
        self.per_round = per_round
        self.checkpoints = checkpoints
        self.tally = tally
        self.tracer = tracer
        self.answers: List[List[Optional[int]]] = []
        self.batch_latencies: List[float] = []
        self.check_latencies: List[float] = []
        self.freshness: List[float] = []
        self.kept_stores: Dict[int, object] = {}

    def ingest(self, maintainer, batch) -> None:
        src, dst, labels, properties = batch
        if self.tracer is None:
            maintainer.insert_edges(src, dst, labels, properties=properties)
            maintainer.flush()
            return
        with self.tracer.span("index.maintenance.insert_edges"):
            maintainer.insert_edges(src, dst, labels, properties=properties)
        with self.tracer.span("index.maintenance.flush"):
            maintainer.flush()

    def check(self, db, request_id: str, check: Check) -> int:
        if self.tracer is None:
            return layers.run_query(db, check.query, "count", None)
        return layers.traced_query(self.tracer, db, request_id, check.query, "count")

    def step(self, number: int, batch, batch_checks: List[Check]) -> float:
        """Insert, flush and check one batch; returns its latency in seconds."""
        db = self.dbs[number // self.per_round]
        maintainer = self.maintainers[number // self.per_round]
        started = time.perf_counter()
        if self.tracer is None:
            self.ingest(maintainer, batch)
        else:
            with self.tracer.span("batch", request=f"batch-{number}"):
                self.ingest(maintainer, batch)
        self.freshness.append(time.perf_counter() - started)
        if number in self.checkpoints:
            self.kept_stores[number] = db.store.snapshot()
        batch_answers: List[Optional[int]] = []
        for position, check in enumerate(batch_checks):
            check_started = time.perf_counter()
            try:
                answer = self.check(db, f"check-{number}-{position}", check)
            except ReproError as error:
                self.tally.fail("raised", f"batch {number} check {position}: {error!r}")
                batch_answers.append(None)
                continue
            self.check_latencies.append(time.perf_counter() - check_started)
            batch_answers.append(answer)
        self.answers.append(batch_answers)
        latency = time.perf_counter() - started
        self.batch_latencies.append(latency)
        return latency


def check_stream(run: StreamClient, checks, alpha, base_edges, batch_size, tally) -> None:
    """Counts must be non-negative; checkpoints must match a scratch rebuild."""
    for number, batch_answers in enumerate(run.answers):
        for position, answer in enumerate(batch_answers):
            if answer is not None and not (isinstance(answer, int) and answer >= 0):
                tally.fail("wrong", f"batch {number} check {position}: {answer!r}")
    for number, store in sorted(run.kept_stores.items()):
        graph = store.graph
        expected_edges = base_edges + (number % run.per_round + 1) * batch_size
        if graph.num_edges != expected_edges:
            tally.fail(
                "wrong", f"batch {number}: {graph.num_edges} edges, expected {expected_edges}"
            )
        oracle = support.build_fraud_database(graph, alpha, support.BuildClock())
        if index_sizes(store) != index_sizes(oracle.store):
            tally.fail("wrong", f"batch {number}: maintained indexes differ from a rebuild")
        for position, check in enumerate(fresh_checks(graph, alpha, checks[number])):
            answer = run.answers[number][position]
            if answer is None:
                continue
            expected = oracle.count(check.query, parallelism=1)
            if answer != expected:
                tally.fail(
                    "wrong", f"batch {number} check {position}: {answer} != rebuilt {expected}"
                )


def index_sizes(store) -> Dict[str, Dict[str, int]]:
    """Per-index byte counts; incremental maintenance must match a rebuild."""
    return {b.name: b.as_dict() for b in store.memory_breakdowns()}


def run(seed: int, seconds: int, trace: bool, size: str = "full") -> Dict:
    params = SIZES[size]
    rng = np.random.default_rng(seed)
    graph = support.financial_graph(params["vertices"], params["edges"])
    alpha = fraud.amount_alpha(graph)
    batch_size = params["batch"]
    rounds = params["rounds"]
    per_round = max(1, round(params["batches_per_second"] * seconds / rounds))
    num_batches = rounds * per_round
    # The stream is drawn like the base graph's own transfers.
    arrivals = support.financial_graph(
        params["vertices"], num_batches * batch_size, seed=int(rng.integers(2**31))
    )
    batches, checks = [], []
    for number in range(num_batches):
        window = slice(number * batch_size, (number + 1) * batch_size)
        src = arrivals.edge_src[window]
        batches.append(
            (
                src,
                arrivals.edge_dst[window],
                arrivals.edge_labels[window],
                {name: arrivals.edge_props.column(name)[window] for name in PROPERTIES},
            )
        )
        checks.append(make_checks(rng, graph, alpha, src, params["checks_per_batch"]))
    warmup = make_checks(rng, graph, alpha, arrivals.edge_src, params["checks_per_batch"])
    checkpoints = set(
        rng.choice(num_batches, size=min(params["checkpoints"], num_batches), replace=False)
        .tolist()
    )

    tracer = Tracer() if trace else None
    setup = support.repeated_setup(
        lambda clock: support.build_fraud_database(graph, alpha, clock),
        rounds,
        keep=rounds,
        tracer=tracer,
    )

    def client(dbs, phase_tracer=None) -> StreamClient:
        tally = support.Tally(attempted=num_batches * params["checks_per_batch"])
        for db in dbs:
            for check in fresh_checks(graph, alpha, warmup):
                layers.run_query(db, check.query, "count", None)
        return StreamClient(dbs, per_round, checkpoints, tally, phase_tracer)

    untraced = client(setup.kept)
    if trace:
        traced_checks = [fresh_checks(graph, alpha, c) for c in checks]
        twins = [
            support.build_fraud_database(graph, alpha, support.BuildClock())
            for _ in range(rounds)
        ]
        traced = client(twins, tracer)
        wall, traced_wall = support.interleaved(
            num_batches,
            lambda number: untraced.step(number, batches[number], checks[number]),
            lambda number: traced.step(number, batches[number], traced_checks[number]),
        )
        check_stream(traced, traced_checks, alpha, graph.num_edges, batch_size, traced.tally)
    else:
        gc.collect()
        started = time.perf_counter()
        for number, batch in enumerate(batches):
            untraced.step(number, batch, checks[number])
        wall = time.perf_counter() - started
    tally = untraced.tally
    check_stream(untraced, checks, alpha, graph.num_edges, batch_size, tally)
    db = untraced.dbs[-1]
    edges = num_batches * batch_size
    checks_latency = support.latency_metrics(untraced.check_latencies)
    out = {
        "tally": tally,
        "end_to_end": {
            "setup_s": setup.seconds,
            "qps": len(untraced.check_latencies) / wall,
            **support.latency_metrics(untraced.batch_latencies),
            "index_bytes_per_edge": db.memory_report().total / db.graph.num_edges,
            "ingest_edges_per_s": edges / wall,
            "freshness_p50_ms": 1000 * statistics.median(untraced.freshness),
            "check_latency_p50_ms": checks_latency["latency_p50_ms"],
            "check_latency_p95_ms": checks_latency["latency_p95_ms"],
        },
        "extra": {
            "rounds": rounds,
            "batches": num_batches,
            "checks": len(untraced.check_latencies),
            "wall_s": wall,
        },
    }
    if trace:
        tally.absorb(traced.tally)
        traced_db = traced.dbs[-1]
        per_layer = layers.empty_layers()
        per_layer.update(layers.query_layers(tracer.spans))
        per_layer.update(
            maintenance_layers(tracer.spans, [m.stats for m in traced.maintainers])
        )
        per_layer.update(
            layers.index_layers(
                setup.build_seconds, support.index_bytes(traced_db), traced_db.graph.num_edges
            )
        )
        per_layer["trace.overhead"] = traced_wall / wall - 1.0
        out["per_layer"] = per_layer
        out["tracer"] = tracer
    return out


def maintenance_layers(spans, stats) -> Dict[str, float]:
    """Maintenance times per batch and counters summed over the rounds."""
    def total(field: str) -> int:
        return sum(getattr(round_stats, field) for round_stats in stats)

    return {
        "index.maintenance.insert_ms": layers.mean_ms(spans, "index.maintenance.insert_edges"),
        "index.maintenance.flush_ms": layers.mean_ms(spans, "index.maintenance.flush"),
        "index.maintenance.ep_probes_per_edge": total("edge_partitioned_probes")
        / max(total("inserted_edges"), 1),
        "index.maintenance.secondary_predicate_evaluations": total(
            "secondary_predicate_evaluations"
        ),
        "index.maintenance.merges": total("merges"),
    }
