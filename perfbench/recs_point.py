"""``recs-point``: per-user MagicRecs requests through ``Database``, serial.

Why this workload: it loads planning and the operator/storage path with no
writes, server or parallel backends.  Requests anchor MR1-MR3 on one user
(``a1.ID = u``) with ``u`` drawn Zipf(1.0) over a seeded permutation of the
users, so the distinct (pattern, user) keys far exceed the plan cache's 64
entries: this is the workload whose working set exceeds the cache.

Correctness: every answer is checked for shape (a count, or at most ``limit``
rows anchored on ``u``); a seeded sample of requests is replayed on a ``D``
database with no secondary index, whose counts must equal the served counts;
a sampled limited collect must return ``min(limit, count)`` rows with the
count taken from the oracle, each a match checked against the graph's edge
arrays directly.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import Database, ReproError, cmp, prop
from repro.workloads import magicrecs

import layers
import support
from spans import Tracer

#: Workload sizes; ``smoke`` runs the same code on a tiny graph.
SIZES = {
    "full": dict(
        vertices=40_000,
        edges=600_000,
        requests_per_second=200,
        warmup=200,
        oracle_samples=40,
        setup_repeats=5,
    ),
    "smoke": dict(
        vertices=400,
        edges=4_000,
        requests_per_second=20,
        warmup=10,
        oracle_samples=8,
        setup_repeats=2,
    ),
}

#: (pattern, sink, share of requests).
MIX = (
    ("MR1", "collect", 0.40),
    ("MR2", "collect", 0.25),
    ("MR3", "collect", 0.15),
    ("MR1", "count", 0.20),
)
LIMIT = 50
BUILDERS = {"MR1": magicrecs.build_mr1, "MR2": magicrecs.build_mr2, "MR3": magicrecs.build_mr3}


@dataclass
class Request:
    pattern: str
    mode: str
    user: int
    query: object

    @property
    def limit(self) -> Optional[int]:
        return LIMIT if self.mode == "collect" else None


def anchored(pattern: str, alpha: int, user: int):
    query = BUILDERS[pattern](alpha)
    query.add_predicate(cmp(prop("a1", "ID"), "=", int(user)))
    return query


def make_requests(rng, users: np.ndarray, alpha: int, count: int) -> List[Request]:
    """A seeded request sequence; each request gets its own query object.

    ``users`` is the seeded permutation that ranks users by popularity; a
    request draws its rank from Zipf(1.0) and its kind from the mix.
    """
    cdf = np.cumsum(1.0 / np.arange(1, len(users) + 1))
    ranks = np.searchsorted(cdf / cdf[-1], rng.random(count))
    kinds = rng.choice(len(MIX), size=count, p=[share for *_, share in MIX])
    requests = []
    for rank, kind in zip(ranks, kinds):
        pattern, mode = MIX[kind][:2]
        user = int(users[rank])
        requests.append(Request(pattern, mode, user, anchored(pattern, alpha, user)))
    return requests


class Client:
    """Serves the request sequence one request at a time, recording answers."""

    def __init__(self, db, requests, tally, tracer: Optional[Tracer] = None) -> None:
        self.db = db
        self.requests = requests
        self.tally = tally
        self.tracer = tracer
        self.answers: List[object] = [None] * len(requests)
        self.latencies: List[float] = []

    def step(self, position: int) -> None:
        request = self.requests[position]
        started = time.perf_counter()
        try:
            if self.tracer is None:
                answer = layers.run_query(self.db, request.query, request.mode, request.limit)
            else:
                answer = layers.traced_query(
                    self.tracer, self.db, position, request.query, request.mode, request.limit
                )
        except ReproError as error:
            self.tally.fail("raised", f"request {position}: {error!r}")
            return
        self.latencies.append(time.perf_counter() - started)
        self.answers[position] = answer


def check_answers(graph, alpha, requests, answers, samples, tally) -> None:
    """Shape-check every answer; replay the sampled ones on a ``D`` oracle."""
    for position, (request, answer) in enumerate(zip(requests, answers)):
        if answer is None:
            continue  # already counted as raised
        if request.mode == "count":
            ok = isinstance(answer, int) and answer >= 0
        else:
            ok = len(answer) <= LIMIT and all(row["a1"] == request.user for row in answer)
        if not ok:
            tally.fail("wrong", f"request {position}: malformed answer")
    oracle = Database(graph)
    lookup = support.EdgeLookup(graph)
    for position in samples:
        request, answer = requests[position], answers[position]
        if answer is None:
            continue
        fresh = anchored(request.pattern, alpha, request.user)
        expected = oracle.count(fresh, parallelism=1)
        if request.mode == "count":
            problem = None if answer == expected else f"count {answer} != {expected}"
        else:
            problem = support.check_limited_rows(lookup, fresh, answer, min(LIMIT, expected))
        if problem is not None:
            tally.fail("wrong", f"request {position}: {problem}")


def run(seed: int, seconds: int, trace: bool, size: str = "full") -> Dict:
    params = SIZES[size]
    rng = np.random.default_rng(seed)
    graph = support.social_graph(params["vertices"], params["edges"])
    alpha = magicrecs.time_threshold(graph)
    count = max(1, round(params["requests_per_second"] * seconds))
    users = rng.permutation(graph.num_vertices)
    warmup = make_requests(rng, users, alpha, params["warmup"])
    requests = make_requests(rng, users, alpha, count)
    samples = sorted(
        rng.choice(count, size=min(params["oracle_samples"], count), replace=False)
    )

    tracer = Tracer() if trace else None
    setup = support.repeated_setup(
        lambda clock: support.build_recs_database(graph, clock),
        params["setup_repeats"],
        keep=2 if trace else 1,
        tracer=tracer,
    )

    def client(db, phase_requests, phase_tracer=None) -> Client:
        for request in warmup:
            layers.run_query(db, request.query, request.mode, request.limit)
        return Client(db, phase_requests, support.Tally(attempted=count), phase_tracer)

    untraced = client(setup.kept[0], requests)
    if trace:
        # Fresh query objects: a query graph caches its own fingerprint.
        traced_requests = [
            Request(r.pattern, r.mode, r.user, anchored(r.pattern, alpha, r.user))
            for r in requests
        ]
        traced = client(setup.kept[1], traced_requests, tracer)
        wall, traced_wall = support.interleaved(count, untraced.step, traced.step)
        check_answers(graph, alpha, traced_requests, traced.answers, samples, traced.tally)
    else:
        gc.collect()
        started = time.perf_counter()
        for position in range(count):
            untraced.step(position)
        wall = time.perf_counter() - started
    tally = untraced.tally
    check_answers(graph, alpha, requests, untraced.answers, samples, tally)
    db = untraced.db

    result = {
        "tally": tally,
        "end_to_end": {
            "setup_s": setup.seconds,
            "qps": len(untraced.latencies) / wall,
            **support.latency_metrics(untraced.latencies),
            "index_bytes_per_edge": db.memory_report().total / db.graph.num_edges,
        },
        "extra": {"requests": count, "wall_s": wall},
    }
    if trace:
        tally.absorb(traced.tally)
        per_layer = layers.empty_layers()
        per_layer.update(layers.query_layers(tracer.spans))
        per_layer.update(
            layers.index_layers(setup.build_seconds, support.index_bytes(db), db.graph.num_edges)
        )
        per_layer["trace.overhead"] = traced_wall / wall - 1.0
        result["per_layer"] = per_layer
        result["tracer"] = tracer
    return result
