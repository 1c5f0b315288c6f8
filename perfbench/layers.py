"""Per-layer metrics of the traced run, and the traced request path.

Every workload reports every ``per_layer`` metric of ``BENCHMARK.json``; a layer a workload
does not load reads 0 there (for example ``index.maintenance.*`` on the
read-only workloads), which is the prediction the layer table makes.

Times are means per request (per batch for ``index.maintenance``), counts
are means per request unless the name says otherwise; admission, pool and
merge counts are totals over the run.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

from repro.query import ExecutionStats

from spans import Span, Tracer
from support import INDEX_KINDS, metric_units

#: ``ExecutionStats.operator_seconds`` stage names -> metric name.
_STAGES = {
    "scan": "query.operators.scan_s",
    "extend": "query.operators.extend_s",
    "multi-extend": "query.operators.multi_extend_s",
    "filter": "query.operators.filter_s",
}


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def mean_ms(spans: Iterable[Span], name: str) -> float:
    """Mean duration in ms of the spans called ``name``."""
    return 1000 * mean(s.duration for s in spans if s.name == name)


def run_query(db, query, mode: str, limit: Optional[int], stats=None, executor=None):
    """Execute a planned or unplanned query through the matching sink."""
    if executor is None:
        if mode == "collect":
            return db.collect(query, limit=limit, parallelism=1)
        if mode == "count":
            return db.count(query, parallelism=1)
        return db.exists(query, parallelism=1)
    if mode == "collect":
        return executor.collect(query, limit=limit, stats=stats)
    if mode == "count":
        return executor.count(query, stats=stats)
    return executor.exists(query, stats=stats)


def traced_query(tracer: Tracer, db, request_id, query, mode: str, limit=None):
    """One serial request split into fingerprint, plan and execute spans.

    The untraced path is ``Database.collect/count/exists(parallelism=1)``,
    which does the same three steps inside one call.
    """
    with tracer.span("request", request=request_id):
        with tracer.span("query.pattern.fingerprint"):
            query.fingerprint()
        hits = db.plan_cache.stats.hits
        with tracer.span("query.plan") as planned:
            plan = db.plan(query)
        planned.counters["hit"] = db.plan_cache.stats.hits - hits
        stats = ExecutionStats()
        with tracer.span("query.execute") as executed:
            answer = run_query(
                db, plan, mode, limit, stats=stats, executor=db.executor(parallelism=1)
            )
        executed.counters.update(execution_counters(stats))
    return answer


def execution_counters(stats: ExecutionStats) -> Dict[str, float]:
    counters = {
        "predicate_evaluations": stats.predicate_evaluations,
        "intermediate_rows": stats.intermediate_rows,
        "lists_accessed": stats.lists_accessed,
        "list_entries_fetched": stats.list_entries_fetched,
        "output_rows": stats.output_rows,
    }
    for label, seconds in stats.operator_seconds.items():
        stage = label.split(":", 1)[1]
        counters[stage + "_s"] = counters.get(stage + "_s", 0.0) + seconds
    return counters


def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in metric_units("per_layer")}


def query_layers(spans: List[Span]) -> Dict[str, float]:
    """Query and storage metrics from traced requests' child spans."""
    plans = [span for span in spans if span.name == "query.plan"]
    hits = [span for span in plans if span.counters["hit"]]
    misses = [span for span in plans if not span.counters["hit"]]
    executes = [span for span in spans if span.name == "query.execute"]
    out = {
        "query.pattern.fingerprint_ms": mean_ms(spans, "query.pattern.fingerprint"),
        "query.optimizer.plan_miss_ms": 1000 * mean(s.duration for s in misses),
        "query.plan_cache.plan_hit_ms": 1000 * mean(s.duration for s in hits),
        "query.plan_cache.hit_ratio": len(hits) / len(plans) if plans else 0.0,
        "query.executor.execute_ms": mean_ms(executes, "query.execute"),
    }
    out.update(execution_layers([s.counters for s in executes]))
    return out


def execution_layers(counters: List[Dict[str, float]]) -> Dict[str, float]:
    """Operator and storage metrics: means per request of execution counters."""
    if not counters:
        return {}
    out = {
        metric: mean(c.get(stage + "_s", 0.0) for c in counters)
        for stage, metric in _STAGES.items()
    }
    for key, metric in (
        ("predicate_evaluations", "query.operators.predicate_evaluations"),
        ("intermediate_rows", "query.operators.intermediate_rows"),
        ("lists_accessed", "storage.lists_accessed"),
        ("list_entries_fetched", "storage.list_entries_fetched"),
    ):
        out[metric] = mean(c[key] for c in counters)
    rows = sum(c["output_rows"] for c in counters)
    entries = sum(c["list_entries_fetched"] for c in counters)
    out["storage.entries_per_output_row"] = entries / rows if rows else 0.0
    return out


def index_layers(build_seconds: Dict[str, float], index_bytes: Dict[str, int], edges: int):
    """Build time per index kind (median set-up) and bytes per graph edge."""
    out = {}
    for kind in INDEX_KINDS:
        out[f"index.{kind}.build_s"] = build_seconds[kind]
        out[f"index.{kind}.bytes_per_edge"] = index_bytes[kind] / edges
    return out
