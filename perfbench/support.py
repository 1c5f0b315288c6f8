"""Shared pieces of the three workloads: index set-ups, timing, checks."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import multiprocessing
import platform
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import Database, Direction
from repro.bench.harness import available_cpus, config_d, vpt_view_and_config
from repro.graph.generators import (
    FinancialGraphSpec,
    SocialGraphSpec,
    generate_financial_graph,
    generate_social_graph,
)
from repro.workloads import fraud

from spans import Tracer

#: Generator seed of the datasets.  The graphs are fixed and ``--seed``
#: drives only the requests and arrivals: the fraud mix's global queries
#: ran 3x slower on some seeded graphs than on others (18 to 58 qps over
#: three seeds), which would make the figures depend on the graph drawn.
DATASET_SEED = 2021

#: The benchmark definition at the repository root.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@functools.lru_cache(maxsize=1)
def benchmark() -> Dict[str, object]:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    return {metric["name"]: metric["unit"] for metric in benchmark()[kind]}


#: Index kinds reported by the per-layer ``index.<kind>.*`` metrics.
INDEX_KINDS = ("primary", "vertex_partitioned", "edge_partitioned")


def environment() -> Dict[str, object]:
    """The machine facts every result records next to its numbers."""
    return {
        "available_cpus": available_cpus(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def social_graph(vertices: int, edges: int):
    """The follower graph of ``recs-point``."""
    return generate_social_graph(SocialGraphSpec(vertices, edges, seed=DATASET_SEED))


def financial_graph(vertices: int, edges: int, seed: int = DATASET_SEED):
    """The transfer graph of the fraud workloads (other seeds draw arrivals)."""
    return generate_financial_graph(FinancialGraphSpec(vertices, edges, seed=seed))


# ----------------------------------------------------------------------
# set-up: the index configurations the workloads run on
# ----------------------------------------------------------------------
class BuildClock:
    """Times each index build of one set-up, as a span too when tracing."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.seconds: Dict[str, float] = {kind: 0.0 for kind in INDEX_KINDS}

    @contextmanager
    def index(self, kind: str):
        span = self.tracer.span(f"index.{kind}.build") if self.tracer else nullcontext()
        with span:
            started = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[kind] += time.perf_counter() - started


def build_recs_database(graph, clock: BuildClock) -> Database:
    """``D+VPt``: primary indexes plus the time-sorted forward VP index."""
    with clock.index("primary"):
        db = Database(graph, primary_config=config_d())
    view, config = vpt_view_and_config()
    with clock.index("vertex_partitioned"):
        db.create_vertex_index(
            view, directions=(Direction.FORWARD,), config=config, name="VPt"
        )
    return db


def build_fraud_database(graph, alpha: int, clock: BuildClock) -> Database:
    """``D+VPc+EPc``: city-sorted VP indexes both ways plus the money-flow EP."""
    with clock.index("primary"):
        db = Database(graph, primary_config=config_d())
    view, config = fraud.vpc_view_and_config()
    with clock.index("vertex_partitioned"):
        db.create_vertex_index(
            view,
            directions=(Direction.FORWARD, Direction.BACKWARD),
            config=config,
            name="VPc",
        )
    view, config = fraud.epc_view_and_config(alpha)
    with clock.index("edge_partitioned"):
        db.create_edge_index(view, config=config, name="EPc")
    return db


@dataclass
class SetupResult:
    """Median set-up time over repeated builds, and the builds kept."""

    seconds: float
    kept: List[object]
    build_seconds: Dict[str, float]


def repeated_setup(
    build: Callable[[BuildClock], object],
    repeats: int,
    keep: int,
    tracer: Optional[Tracer] = None,
    teardown: Callable[[object], None] = lambda built: None,
) -> SetupResult:
    """Build ``repeats`` times; report the median wall time of one build.

    A single build of a second or so varies by a quarter on a small shared
    machine, so the reported set-up time is the median of several.  The last
    ``keep`` builds are returned for the timed phases (each phase of a
    workload that writes needs a fresh database); the others are torn down.
    With a tracer, every build is a ``setup`` span whose children are the
    index builds.
    """
    walls: List[float] = []
    per_index: Dict[str, List[float]] = {kind: [] for kind in INDEX_KINDS}
    kept: List[object] = []
    for attempt in range(repeats):
        gc.collect()
        clock = BuildClock(tracer)
        root = tracer.span("setup", request=f"setup-{attempt}") if tracer else nullcontext()
        with root:
            started = time.perf_counter()
            built = build(clock)
            walls.append(time.perf_counter() - started)
        for kind in INDEX_KINDS:
            per_index[kind].append(clock.seconds[kind])
        if attempt >= repeats - keep:
            kept.append(built)
        else:
            teardown(built)
        del built
    return SetupResult(
        seconds=statistics.median(walls),
        kept=kept,
        build_seconds={k: statistics.median(v) for k, v in per_index.items()},
    )


def interleaved(
    steps: int, untraced: Callable[[int], object], traced: Callable[[int], object]
) -> Tuple[float, float]:
    """Run each step untraced and traced back to back; returns both total times.

    The side that goes first alternates from step to step, so both runs see
    the same machine: this small shared host drifts by a fifth in speed from
    one ten-second window to the next, which two runs made one after the
    other would read as tracing overhead.
    """
    sides = (untraced, traced)
    walls = [0.0, 0.0]
    gc.collect()
    for step in range(steps):
        for side in (0, 1) if step % 2 == 0 else (1, 0):
            started = time.perf_counter()
            sides[side](step)
            walls[side] += time.perf_counter() - started
    return walls[0], walls[1]


def index_bytes(db: Database) -> Dict[str, int]:
    """Index bytes per kind, from the store's memory breakdowns."""
    store = db.store
    return {
        "primary": sum(b.total for b in store.primary.memory_breakdowns()),
        "vertex_partitioned": sum(
            index.memory_breakdown().total for index in store.vertex_indexes
        ),
        "edge_partitioned": sum(
            index.memory_breakdown().total for index in store.edge_indexes
        ),
    }


def latency_metrics(latencies: List[float]) -> Dict[str, float]:
    """p50, p95 and p99 of per-request latencies given in seconds, in ms."""
    values = np.asarray(latencies, dtype=np.float64) * 1000.0
    return {
        f"latency_p{q}_ms": float(np.percentile(values, q)) for q in (50, 95, 99)
    }


@dataclass
class Tally:
    """Attempted requests and the ones that raised, were refused or wrong."""

    attempted: int = 0
    raised: int = 0
    refused: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.raised + self.refused + self.wrong

    def fail(self, outcome: str, note: str) -> None:
        """Count one failure as ``raised``, ``refused`` or ``wrong``."""
        setattr(self, outcome, getattr(self, outcome) + 1)
        if len(self.notes) < 10:
            self.notes.append(note)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.raised += other.raised
        self.refused += other.refused
        self.wrong += other.wrong
        self.notes += other.notes

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
def row_key(row: Dict[str, int]) -> Tuple:
    return tuple(sorted(row.items()))


class EdgeLookup:
    """Edge IDs between two vertices, read from the graph's edge arrays.

    Independent of every index: one sort of the (src, dst) pairs.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        keys = graph.edge_src.astype(np.int64) * graph.num_vertices + graph.edge_dst
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def between(self, src: int, dst: int) -> np.ndarray:
        key = src * self.graph.num_vertices + dst
        lo, hi = np.searchsorted(self.keys, [key, key + 1])
        return self.order[lo:hi]


def edge_bindings(lookup: EdgeLookup, query, row: Dict[str, int]) -> int:
    """How many edge bindings make a returned vertex row a match of ``query``.

    Rows bind vertices only; with parallel edges one vertex row stands for
    several matches, so a correct answer may repeat a row up to this many
    times.  0 means the row is not a match.
    """
    if set(row) != set(query.vertex_names):
        return 0
    graph = lookup.graph
    schema = graph.schema
    names, candidates = [], []
    for name, edge in query.edges.items():
        edge_ids = lookup.between(row[edge.src], row[edge.dst])
        if edge.label is not None:
            code = schema.edge_label_code(edge.label)
            edge_ids = edge_ids[graph.edge_labels[edge_ids] == code]
        names.append(name)
        candidates.append(edge_ids.tolist())
    binding = {name: ("vertex", value) for name, value in row.items()}
    total = 0
    for choice in itertools.product(*candidates):
        binding.update((name, ("edge", edge_id)) for name, edge_id in zip(names, choice))
        total += bool(query.predicate.evaluate(graph, binding))
    return total


def check_limited_rows(lookup: EdgeLookup, query, rows, expected: int) -> Optional[str]:
    """Why a ``collect(limit=)`` answer is wrong, or ``None`` when it is right.

    The answer must hold ``expected`` rows, ``min(limit, count)`` as an
    oracle found it, and be part of the full result: each distinct row is a
    match, repeated at most as often as it has edge bindings.
    """
    if len(rows) != expected:
        return f"{len(rows)} rows, oracle expects {expected}"
    for key, times in Counter(row_key(row) for row in rows).items():
        bindings = edge_bindings(lookup, query, dict(key))
        if times > bindings:
            return f"row {dict(key)} returned {times}x, has {bindings} matches"
    return None
