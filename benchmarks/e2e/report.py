"""Order statistics, golden normalization, the compare rule and trace
summarization for the end-to-end benchmark.

Kept free of ``repro`` imports: the benchmark judges the program, so its
arithmetic must not change when the program does. ``test_tooling.py``
checks that :func:`nearest_rank` agrees with ``repro.evaluation.stats``.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# -- order statistics ----------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: ``sorted[ceil(f*n) - 1]``, clamped."""
    if not sorted_values:
        raise ValueError("nearest_rank of an empty sequence")
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Q1, median and Q3 as ``statistics.quantiles(values, n=4)`` gives
    them (the acceptance check's definition); every median the
    benchmark reports is this Q2."""
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    return quartiles(values)[1]


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


#: Percentiles considered for a timing's tail, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.9, 0.75)


def describe(values: Sequence[float]) -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {median(ordered):.6g}"
    for fraction in TAIL_PERCENTILES:
        if n - math.ceil(fraction * n) >= 10:
            text += f", p{fraction * 100:g} {nearest_rank(ordered, fraction):.6g}"
            break
    text = f"{text} (n={n})"
    if n <= 12:
        text += ": " + " ".join(f"{v:.4g}" for v in values)
    return text


# -- goldens --------------------------------------------------------------------

#: full_evaluation.py lines that carry timings or cache accounting.
_VOLATILE = re.compile(
    r"^(\[.* in [0-9.]+s\]|full evaluation complete.*|disk cache:.*)$"
)


def normalize_eval_output(text: str) -> str:
    """Strip the ``[... in Xs]``, ``full evaluation complete`` and
    ``disk cache:`` lines; everything else must match byte for byte."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not _VOLATILE.match(line.rstrip("\n"))
    )


# -- the compare rule -------------------------------------------------------------

MIN_PAIRS = 10
WIN_SHARE = 0.9

#: End-to-end metrics that only serve-mixed has. BENCHMARK.json cannot
#: carry them: the result line of an untraced run reports exactly its
#: ``end_to_end`` metrics, on every workload. So an untraced serve-mixed
#: run prints them before the result line and ``--record`` stores them
#: beside it, and ``compare`` judges them with these bounds (set from
#: the spread of ten runs; see README.md).
WORKLOAD_METRICS: Dict[str, Tuple[dict, ...]] = {
    "serve-mixed": (
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "hot_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "hot_ms.p99", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "cold_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "cold_ms.p90", "unit": "ms", "better": "lower", "bound": 0.25},
    ),
}


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Dict[str, object]:
    """One metric on one workload, ``parent[i]`` paired with ``change[i]``.

    A gain needs at least :data:`MIN_PAIRS` pairs, the change winning at
    least :data:`WIN_SHARE` of them (ties count for neither), and a median
    gap larger than the parent's own quartile distance. Otherwise, with a
    bound: a spread wider than the bound is ``unresolved``, or ``better``
    when every change run beats every parent run; a median worse by more
    than the bound is a ``regression``; anything else is ``no change``.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    if len(parent) < MIN_PAIRS:
        verdict = "too few pairs"
    elif wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1:
        verdict = "gain"
    elif bound is None:
        verdict = "no gain"
    elif spread(parent) > bound:
        all_better = (
            max(change) < min(parent) if better == "lower"
            else min(change) > max(parent)
        )
        verdict = "better" if all_better else "unresolved"
    elif -gap > bound * abs(p_med):
        verdict = "regression"
    else:
        verdict = "no change"
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "verdict": verdict,
    }


def pair_records(
    parent: Iterable[dict], change: Iterable[dict]
) -> Dict[str, List[Tuple[dict, Optional[dict]]]]:
    """Each untraced parent run with the change's run of the same
    (workload, seed), or None if the change has none; by workload, in
    seed order. A run is the result object with its workload's own
    metrics merged into ``metrics``."""
    def index(records):
        out = {}
        for rec in records:
            if not rec.get("trace"):
                result = dict(rec["result"])
                result["metrics"] = {
                    **result["metrics"], **rec.get("workload_metrics", {})
                }
                out[(rec["workload"], rec["seed"])] = result
        return out

    p, c = index(parent), index(change)
    pairs: Dict[str, List[Tuple[dict, Optional[dict]]]] = {}
    for key in sorted(p):
        pairs.setdefault(key[0], []).append((p[key], c.get(key)))
    return pairs


def more_failures(pairs: List[Tuple[dict, Optional[dict]]]) -> bool:
    """A change run is missing, not correct, or failed more operations
    than its parent run."""
    return any(
        c is None or not c["correct"] or c["failed"] > p["failed"]
        for p, c in pairs
    )


def compare_rows(
    parent: Iterable[dict], change: Iterable[dict], benchmark: dict
) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric. Where the change fails
    more than the parent, every row of the workload reads ``failures``:
    a faster run that does less, or wrong, work is no gain."""
    rows = []
    for workload, pairs in pair_records(parent, change).items():
        failures = more_failures(pairs)
        complete = [(a, b) for a, b in pairs if b is not None]
        metrics = list(benchmark["end_to_end"])
        metrics += WORKLOAD_METRICS.get(workload, ())
        for metric in metrics:
            name = metric["name"]
            p = [a["metrics"][name]["value"] for a, _ in complete]
            c = [b["metrics"][name]["value"] for _, b in complete]
            row = judge(p, c, metric["better"], metric["bound"])
            if failures:
                row["verdict"] = "failures"
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    head = (
        f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>28s} "
        f"{'change q1/med/q3':>28s} {'wins':>7s}  verdict"
    )
    lines = [head]
    for r in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        lines.append(
            f"{r['workload']:12s} {r['metric']:12s} {fmt(r['parent']):>28s} "
            f"{fmt(r['change']):>28s} {r['wins']:>3d}/{r['pairs']:<3d}  "
            f"{r['verdict']}"
        )
    return "\n".join(lines)


# -- trace summarization -------------------------------------------------------------

#: (metric, unit, source). Sources: ("self"|"calls", span),
#: ("counter", name), or a derived name handled in layer_metrics.
TABLES = (
    "figure1", "table1", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9", "table10", "table11", "table12",
    "robustness",
)
LAYER_METRICS: Tuple[Tuple[str, str, tuple], ...] = (
    ("kernel.build_kernel.s", "s", ("self", "kernel.build_kernel")),
    ("kernel.build_kernel.calls", "count", ("calls", "kernel.build_kernel")),
    ("kernel.functions", "count", ("counter", "kernel.functions")),
    ("profiling.profile.s", "s", ("self", "profiling.profile")),
    ("profiling.profile.calls", "count", ("calls", "profiling.profile")),
    ("engine.run_syscall.s", "s", ("self", "engine.run_syscall")),
    ("engine.run_syscall.invocations", "count",
     ("counter", "engine.run_syscall.invocations")),
    ("engine.run_function.s", "s", ("self", "engine.run_function")),
    ("engine.run_function.calls", "count", ("calls", "engine.run_function")),
    ("engine.profile.s", "s", ("counter", "engine.profile.s")),
    ("engine.measure.s", "s", ("counter", "engine.measure.s")),
    ("engine.throughput.s", "s", ("counter", "engine.throughput.s")),
    ("engine.stack.s", "s", ("counter", "engine.stack.s")),
    ("engine.ticks.s", "s", ("counter", "engine.ticks.s")),
    ("engine.spec.s", "s", ("counter", "engine.spec.s")),
    ("engine.other.s", "s", ("counter", "engine.other.s")),
) + tuple(
    (f"cpu.{key}", "count", ("counter", f"cpu.{key}"))
    for key in ("calls", "icalls", "rets", "defended_icalls",
                "defended_rets", "ijumps")
) + (
    ("workloads.measure_benchmark.s", "s",
     ("self", "workloads.measure_benchmark")),
    ("workloads.measure_benchmark.calls", "count",
     ("calls", "workloads.measure_benchmark")),
    ("workloads.measure_throughput.s", "s",
     ("self", "workloads.measure_throughput")),
    ("workloads.measure_ticks.s", "s", ("self", "workloads.measure_ticks")),
    ("workloads.measure_spec_slowdown.s", "s",
     ("self", "workloads.measure_spec_slowdown")),
) + tuple(
    (f"{span}.{kind}", "s" if kind == "s" else "count",
     ("self" if kind == "s" else "calls", span))
    for span in (
        "passes.lift", "passes.lower", "passes.icp.plan", "passes.icp.apply",
        "passes.inline.plan", "passes.inline.apply",
        "passes.default_inline.plan", "passes.default_inline.apply",
        "hardening.stamp",
    )
    for kind in ("s", "calls")
) + (
    ("core.build_variant.s", "s", ("self", "core.build_variant")),
    ("core.build_variant.calls", "count", ("calls", "core.build_variant")),
    ("core.warm_prefix.s", "s", ("self", "core.warm_prefix")),
) + tuple(
    (f"core.{key}", "count", ("counter", f"core.{key}"))
    for key in ("prefix_builds", "prefix_delta_builds", "prefix_memory_hits",
                "prefix_disk_hits", "prefix_chunks_decoded",
                "prefix_chunks_reused", "prefix_decode_failures")
) + (
    ("core.prefix_hit_ratio", "ratio", ("derived",)),
    ("evaluation.cache.get.s", "s", ("self", "evaluation.cache.get")),
    ("evaluation.cache.put.s", "s", ("self", "evaluation.cache.put")),
) + tuple(
    (f"evaluation.cache.{key}", "count" if key != "bytes" else "bytes",
     ("counter", f"evaluation.cache.{key}"))
    for key in ("gets", "puts", "hits", "misses")
) + (
    ("evaluation.cache.hit_ratio", "ratio", ("derived",)),
    ("evaluation.cache.bytes", "bytes", ("counter", "evaluation.cache.bytes")),
    ("evaluation.harness.measure.s", "s",
     ("self", "evaluation.harness.measure")),
    ("evaluation.harness.measure.calls", "count",
     ("calls", "evaluation.harness.measure")),
    ("evaluation.harness.measure_many.wait_s", "s",
     ("self", "evaluation.harness.measure_many")),
    ("evaluation.harness.prewarm.s", "s",
     ("self", "evaluation.harness.prewarm")),
    ("evaluation.harness.measure_jumpswitches.s", "s",
     ("self", "evaluation.harness.measure_jumpswitches")),
    ("evaluation.harness.retries", "count",
     ("counter", "evaluation.harness.retries")),
    ("evaluation.harness.failed_cells", "count",
     ("counter", "evaluation.harness.failed_cells")),
) + tuple(
    (f"evaluation.tables.{name}.s", "s", ("self", f"evaluation.tables.{name}"))
    for name in TABLES
) + (
    ("analysis.security_metrics.s", "s",
     ("self", "analysis.security_metrics")),
) + tuple(
    (f"serve.{key}", "count", ("serve", key))
    for key in ("inline_hits", "single_flight_hits", "cells_evaluated",
                "batches", "errors")
) + (
    ("serve.measure.p50_ms", "ms", ("serve", "measure.p50_ms")),
    ("serve.measure.p99_ms", "ms", ("serve", "measure.p99_ms")),
    ("trace.overhead", "ratio", ("run", "overhead")),
    ("trace.coverage", "ratio", ("run", "coverage")),
    ("trace.processes", "count", ("run", "processes")),
)


def read_spans(trace_dir: Path) -> List[dict]:
    records = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def merge_spans(records: List[dict], root_pid: int) -> dict:
    """Aggregates and counters summed over processes, plus the root
    process's span coverage."""
    agg: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    pids = set()
    coverage = 0.0
    for rec in records:
        if rec["agg"] or rec["events"]:
            pids.add(rec["pid"])
        for name, (calls, total, own) in rec["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if rec["pid"] == root_pid and "exit" in rec:
            wall = rec["exit"] - rec["start"]
            coverage = rec["covered"] / wall if wall > 0 else 0.0
    return {
        "agg": agg,
        "counters": counters,
        "processes": len(pids),
        "coverage": coverage,
    }


def chrome_trace(records: List[dict]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events = []
    for rec in records:
        for name, tid, start_us, dur_us in rec["events"]:
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start_us,
                "dur": dur_us,
                "pid": rec["pid"],
                "tid": tid,
            })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def layer_metrics(
    merged: dict, serve: Dict[str, float], run: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric by name; layers a run never entered read 0."""
    agg, counters = merged["agg"], merged["counters"]
    out: Dict[str, float] = {}
    for name, _unit, source in LAYER_METRICS:
        kind = source[0]
        if kind == "self":
            value = agg.get(source[1], (0, 0.0, 0.0))[2]
        elif kind == "calls":
            value = agg.get(source[1], (0, 0.0, 0.0))[0]
        elif kind == "counter":
            value = counters.get(source[1], 0)
        elif kind == "serve":
            value = serve.get(source[1], 0)
        elif kind == "run":
            value = run.get(source[1], 0)
        else:
            value = 0.0
        out[name] = value
    hits = out["core.prefix_memory_hits"] + out["core.prefix_disk_hits"]
    lookups = hits + out["core.prefix_builds"]
    out["core.prefix_hit_ratio"] = hits / lookups if lookups else 0.0
    gets = out["evaluation.cache.gets"]
    out["evaluation.cache.hit_ratio"] = (
        out["evaluation.cache.hits"] / gets if gets else 0.0
    )
    return out


def layer_units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in LAYER_METRICS}
