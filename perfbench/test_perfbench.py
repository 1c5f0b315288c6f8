"""Smoke tests of the benchmark: tiny sizes, every workload and its oracle.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import support
from spans import Span, Tracer



def test_workload_names_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in support.benchmark()["workloads"])


def test_layer_map_covers_every_per_layer_metric_once():
    mapping = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
    mapped = [name for row in mapping["mapping"] for name in row["layer_metrics"]]
    assert sorted(mapped) == sorted(support.metric_units("per_layer"))


def test_self_time_subtracts_the_union_of_children():
    root = Span(1, "request", 0.0, 10.0, None, 7)
    overlapping = [Span(2, "a", 1.0, 3.0, 1, 7), Span(3, "b", 2.0, 4.0, 1, 7)]
    child = Span(4, "c", 6.0, 7.0, 1, 7)
    grandchild = Span(5, "d", 6.2, 6.5, 4, 7)
    selfs = spans.self_times([root, *overlapping, child, grandchild])
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(0.7)
    assert selfs[5] == pytest.approx(0.3)
    # Overlapping children cover the root twice, so the request does not add up.
    assert spans.request_balance([root, *overlapping, child, grandchild]) > 0.9
    assert spans.request_balance([root, child, grandchild]) == pytest.approx(0.0)


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()
    for request in range(3):
        with tracer.span("request", request=request):
            with tracer.span("step") as step:
                step.counters["rows"] = request
                with tracer.span("inner"):
                    sum(range(1000))
            with tracer.span("step"):
                pass
    assert len(tracer.spans) == 12
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        assert span.request is not None
        if span.name != "request":
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    assert spans.request_balance(tracer.spans) < 1e-9


def test_interleaved_alternates_which_side_goes_first():
    calls = []
    untraced, traced = support.interleaved(
        4, lambda step: calls.append(("untraced", step)), lambda step: calls.append(("traced", step))
    )
    assert [side for side, _ in calls] == ["untraced", "traced", "traced", "untraced"] * 2
    assert [step for _, step in calls] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert untraced >= 0 and traced >= 0


def test_limited_rows_check_rejects_wrong_answers():
    from repro.graph.generators import SocialGraphSpec, generate_social_graph
    from repro.workloads import magicrecs

    import recs_point

    graph = generate_social_graph(SocialGraphSpec(200, 2_000, seed=5))
    alpha = magicrecs.time_threshold(graph)
    db = support.build_recs_database(graph, support.BuildClock())
    lookup = support.EdgeLookup(graph)
    user = int(np.argmax(np.bincount(graph.edge_src, minlength=200)))
    query = recs_point.anchored("MR1", alpha, user)
    rows = db.collect(query, limit=5)
    full = db.count(query)
    assert rows and support.check_limited_rows(lookup, query, rows, min(5, full)) is None
    assert support.check_limited_rows(lookup, query, rows[:4], min(5, full)) is not None
    wrong = next(
        dict(rows[0], a3=other)
        for other in range(200)
        if support.edge_bindings(lookup, query, dict(rows[0], a3=other)) == 0
    )
    assert support.check_limited_rows(lookup, query, [wrong, *rows[1:]], min(5, full))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_untraced(workload, tmp_path):
    line, summary = run.run_workload(workload, 3, 1, False, "smoke", tmp_path)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(support.metric_units("end_to_end"))
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert summary["end_to_end"]["error_rate"]["value"] == 0
    assert set(summary["environment"]) == {"available_cpus", "start_method", "python", "numpy"}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced(workload, tmp_path):
    line, summary = run.run_workload(workload, 4, 1, True, "smoke", tmp_path)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(support.metric_units("per_layer"))
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert summary["request_balance_s"] < run.BALANCE_TOLERANCE_S
    written = (tmp_path / f"{workload}-seed4.spans.jsonl").read_text().splitlines()
    names = {json.loads(record)["name"] for record in written}
    assert {"setup", "index.primary.build"} <= names
    assert "request" in names


def test_same_seed_same_work(tmp_path):
    first, _ = run.run_workload("fraud-stream", 9, 1, True, "smoke", tmp_path)
    second, _ = run.run_workload("fraud-stream", 9, 1, True, "smoke", tmp_path)
    counters = (
        "query.operators.predicate_evaluations",
        "storage.list_entries_fetched",
        "index.maintenance.ep_probes_per_edge",
        "index.maintenance.merges",
    )
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name]
