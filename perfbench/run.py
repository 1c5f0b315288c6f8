"""The repository benchmark: three seeded, closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload recs-point --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring for why it was chosen):

* ``recs-point``   — per-user MagicRecs requests through ``Database``, serial
  (:mod:`recs_point`): planning plus the operator/storage path, a working
  set larger than the plan cache.
* ``fraud-stream`` — 1,000-transfer batches inserted and flushed, each
  followed by 20 anchored fraud checks (:mod:`fraud_stream`): index
  maintenance beside reads, a plan cache made cold by every flush.
* ``fraud-served`` — a read-only fraud mix from two closed-loop clients
  through ``DatabaseServer`` at ``parallelism=2`` (:mod:`fraud_served`):
  admission, morsel dispatch and early-exit sinks, a working set that fits
  the plan cache.

Every run does a fixed amount of work.  The graphs are fixed datasets; the
seed fixes the request sequence (and the stream's arrivals), and
``--seconds`` fixes its length (the request count is a nominal rate on a
2-core machine times ``--seconds``), so the same seed and seconds give the
same work and the same counters and only times vary.
Set-up is timed as the median of several builds.  Answers are checked
against an independent path; a wrong answer counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
sequence untraced and traced, taking turns step by step on twin databases
(slice by slice on the one server of ``fraud-served``), reports the
per-layer metrics (with ``trace.overhead``, traced wall over untraced wall
minus 1) and writes the spans, as JSON lines, under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON summary with every end-to-end figure and its unit (with
``error_rate``, and ``fraud-stream``'s ``ingest_edges_per_s`` and
``freshness_p50_ms`` and per-check latencies), the request counts and the
machine facts.  Metric names and units come from ``BENCHMARK.json``.
``--size smoke`` runs the same code on tiny graphs for the tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fraud_served  # noqa: E402
import fraud_stream  # noqa: E402
import recs_point  # noqa: E402
import spans  # noqa: E402
import support  # noqa: E402

WORKLOADS = {
    "recs-point": recs_point,
    "fraud-stream": fraud_stream,
    "fraud-served": fraud_served,
}

#: Units of the figures the summary line adds: the p99, ``fraud-stream``'s
#: write-side metrics and per-check latencies, and the failure share that
#: ``failed``/``attempted`` also carry.  The p99 is not gated: on
#: ``recs-point`` it sits where the latency jumps to the few heavy MR3
#: requests, so which users a seed draws moves it by a quarter between runs.
#: The per-check latencies are not gated either: the checks are half MF4 and
#: half MF5, so their median falls in the gap between the two and jumps.
SUMMARY_UNITS = {
    "latency_p99_ms": "ms",
    "ingest_edges_per_s": "edges/s",
    "freshness_p50_ms": "ms",
    "check_latency_p50_ms": "ms",
    "check_latency_p95_ms": "ms",
    "error_rate": "ratio",
}

#: The tolerance on a traced request's self times adding up to its duration.
BALANCE_TOLERANCE_S = 1e-6


def run_workload(name: str, seed: int, seconds: int, trace: bool, size: str, out_dir: Path):
    """Run one workload; returns (result object, summary object)."""
    result = WORKLOADS[name].run(seed=seed, seconds=seconds, trace=trace, size=size)
    tally = result["tally"]
    figures = {**result["end_to_end"], "error_rate": tally.error_rate}
    end_to_end = support.metric_units("end_to_end")
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "environment": support.environment(),
        "end_to_end": {
            metric: {"value": value, "unit": end_to_end.get(metric) or SUMMARY_UNITS[metric]}
            for metric, value in figures.items()
        },
        **result["extra"],
    }
    if tally.notes:
        summary["failures"] = tally.notes[:10]
    correct = tally.failed == 0
    if trace:
        tracer = result["tracer"]
        balance = spans.request_balance(tracer.spans)
        correct = correct and balance <= BALANCE_TOLERANCE_S
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}"
        tracer.write(out_dir / f"{stem}.spans.jsonl")
        summary["self_time_s"] = spans.self_time_by_name(tracer.spans)
        summary["request_balance_s"] = balance
        summary["per_layer"] = result["per_layer"]
        with open(out_dir / f"{stem}.summary.json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        reported = {
            metric: {"value": result["per_layer"][metric], "unit": unit}
            for metric, unit in support.metric_units("per_layer").items()
        }
    else:
        reported = {
            metric: {"value": result["end_to_end"][metric], "unit": unit}
            for metric, unit in end_to_end.items()
        }
    line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }
    return line, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    line, summary = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, HERE / "out"
    )
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
