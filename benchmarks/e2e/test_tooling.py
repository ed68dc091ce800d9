"""Tests for the end-to-end benchmark's own tooling.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_tooling.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import statistics
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_tracer_module():
    """The trace hook, loaded under another name and without installing
    itself (``E2E_TRACE_DIR`` unset)."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace_hook", HERE / "trace_hook" / "sitecustomize.py"
    )
    module = importlib.util.module_from_spec(spec)
    env = os.environ.pop("E2E_TRACE_DIR", None)
    try:
        spec.loader.exec_module(module)
    finally:
        if env is not None:
            os.environ["E2E_TRACE_DIR"] = env
    return module


def test_nearest_rank_agrees_with_repro_stats():
    from repro.evaluation.stats import nearest_rank

    rng = random.Random(11)
    for n in (1, 2, 3, 4, 10, 99, 100, 101, 1000):
        values = sorted(rng.random() for _ in range(n))
        for fraction in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0):
            assert report.nearest_rank(values, fraction) == nearest_rank(
                values, fraction
            )


def test_describe_reports_the_highest_percentile_with_ten_beyond():
    assert report.describe([3.0, 1.0, 2.0]) == "median 2 (n=3): 3 1 2"
    text = report.describe([float(i) for i in range(1, 1001)])
    assert text == "median 500.5, p99 990 (n=1000)"
    assert "p90" in report.describe([float(i) for i in range(100)])


def test_one_median_everywhere():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 9, 10):
        values = [rng.random() for _ in range(n)]
        q1, q2, q3 = report.quartiles(values)
        assert report.median(values) == q2 == statistics.median(values)
        assert report.spread(values) == (q3 - q1) / q2
        if n >= 2:
            assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))


def test_golden_normalizer_strips_only_volatile_lines():
    raw = (
        "Table 1: per-branch overhead\n"
        "retpolines   1   21\n"
        "\n"
        "[Table 1 regenerated in 0.4s]\n"
        "\n"
        "[measurements prefetched with 2 jobs in 3.1s]\n"
        "note: [kept] in brackets\n"
        "disk cache: 212 hits, 0 misses (.repro-cache/)\n"
        "full evaluation complete in 9.9s\n"
    )
    assert report.normalize_eval_output(raw) == (
        "Table 1: per-branch overhead\n"
        "retpolines   1   21\n"
        "\n"
        "\n"
        "note: [kept] in brackets\n"
    )
    golden = (HERE / "golden" / "eval.txt").read_text(encoding="utf-8")
    assert report.normalize_eval_output(golden) == golden


def _judge(parent, change, better="lower", bound=0.1):
    return report.judge(parent, change, better, bound)["verdict"]


def test_compare_rule_on_synthetic_samples():
    rng = random.Random(5)
    parent = [10.0 + rng.uniform(-0.1, 0.1) for _ in range(10)]
    faster = [p * 0.8 for p in parent]
    assert _judge(parent, faster) == "gain"
    # Higher-is-better metrics win in the other direction.
    assert _judge(parent, faster, better="higher") == "regression"
    assert _judge(parent, [p * 1.05 for p in parent]) == "no change"
    assert _judge(parent, [p * 1.2 for p in parent]) == "regression"
    # Nine of ten is enough; eight is not.
    nine = faster[:9] + [parent[9] * 1.01]
    assert _judge(parent, nine) == "gain"
    eight = faster[:8] + [p * 1.01 for p in parent[8:]]
    assert _judge(parent, eight) != "gain"
    # The median gap must exceed the parent's own quartile distance.
    noisy = [10.0, 14.0] * 5
    assert _judge(noisy, [v - 0.5 for v in noisy], bound=0.5) != "gain"
    # A parent spread wider than the bound leaves the verdict open...
    assert _judge(noisy, [v * 1.01 for v in noisy]) == "unresolved"
    # ...unless every change run beats every parent run.
    assert _judge(noisy, [9.0] * 9 + [9.5]) == "better"
    assert _judge(parent[:9], faster[:9]) == "too few pairs"
    # Ties count for neither side.
    assert report.judge(parent, parent, "lower", 0.1)["wins"] == 0


def _records(workload, scale, failed=lambda seed: 0):
    """Ten untraced run records whose every metric is ``scale`` times a
    seed-dependent value; ``failed(seed)`` operations failed."""
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def metrics(table):
        return {
            m["name"]: {"value": scale * (10 + 0.1 * (seed % 3)), "unit": m["unit"]}
            for m in table
        }

    out = []
    for seed in range(1, 11):
        out.append({
            "workload": workload, "seed": seed, "trace": 0,
            "result": {
                "correct": failed(seed) == 0, "attempted": 20,
                "failed": failed(seed), "metrics": metrics(benchmark["end_to_end"]),
            },
            "workload_metrics": metrics(report.WORKLOAD_METRICS.get(workload, ())),
        })
    return out


def test_compare_rows_pair_runs_by_workload_and_seed():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rows = report.compare_rows(
        _records("eval-cold", 1.0), _records("eval-cold", 0.5), benchmark
    )
    assert [r["metric"] for r in rows] == [m["name"] for m in benchmark["end_to_end"]]
    # peak_rss_mb is lower-is-better too; halving every metric wins all.
    assert {r["verdict"] for r in rows} == {"gain"}
    assert "eval-cold" in report.format_rows(rows)


def test_compare_judges_serve_mixed_client_metrics():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parent = _records("serve-mixed", 1.0)
    change = _records("serve-mixed", 1.5)
    rows = {r["metric"]: r for r in report.compare_rows(parent, change, benchmark)}
    own = [m["name"] for m in report.WORKLOAD_METRICS["serve-mixed"]]
    assert set(rows) == {m["name"] for m in benchmark["end_to_end"]} | set(own)
    assert rows["hot_ms.p99"]["verdict"] == "regression"
    assert rows["cold_ms.p90"]["verdict"] == "regression"
    assert rows["req_per_s"]["verdict"] == "gain"  # higher is better


def test_compare_reports_failures_instead_of_a_gain():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parent = _records("eval-cold", 1.0)

    def verdicts(change):
        return {r["verdict"] for r in report.compare_rows(parent, change, benchmark)}

    # Faster, but one run's output differed from the golden.
    assert verdicts(_records("eval-cold", 0.5, lambda s: s == 4)) == {"failures"}
    # A change run that printed no result at all.
    assert verdicts(_records("eval-cold", 0.5)[:-1]) == {"failures"}
    # Both sides fail alike: the change fails no more than its parent,
    # but its runs are still not correct.
    both = lambda s: 1  # noqa: E731
    assert verdicts(_records("eval-cold", 0.5, both)) == {"failures"}
    # A parent that failed does not block a change that fails less.
    parent = _records("eval-cold", 1.0, both)
    assert verdicts(_records("eval-cold", 0.5)) == {"gain"}


def test_tracer_self_time_is_total_minus_children_across_a_fork(tmp_path):
    hook = load_tracer_module()
    ticks = iter(range(1000))
    tracer = hook.Tracer(str(tmp_path), clock=lambda: float(next(ticks)))

    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    pid = os.fork()
    if pid == 0:  # child: what os.register_at_fork runs, then its own work
        code = 1
        try:
            tracer.after_fork_in_child()
            child_outer = tracer.enter("child.outer")
            for _ in range(2):
                tracer.exit(tracer.enter("child.leaf"))
            tracer.exit(child_outer)  # depth 0: flushes
            tracer.exit(inner)  # a parent frame: ignored in the child
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    tracer.exit(tracer.enter("leaf"))
    tracer.exit(inner)
    tracer.exit(outer)

    records = report.read_spans(tmp_path)
    assert {rec["pid"] for rec in records} == {os.getpid(), pid}

    def spans(of_pid):
        """name -> (calls, total, self) of one process."""
        return {
            name: tuple(values)
            for rec in records if rec["pid"] == of_pid
            for name, values in rec["agg"].items()
        }

    parent, child = spans(os.getpid()), spans(pid)
    assert set(parent) == {"outer", "inner", "leaf"}
    assert set(child) == {"child.outer", "child.leaf"}
    assert parent["outer"][2] == parent["outer"][1] - parent["inner"][1]
    assert parent["inner"][2] == parent["inner"][1] - parent["leaf"][1]
    assert parent["leaf"][2] == parent["leaf"][1] > 0
    assert child["child.leaf"][0] == 2
    assert child["child.outer"][2] == (
        child["child.outer"][1] - child["child.leaf"][1]
    )
    merged = report.merge_spans(records, root_pid=os.getpid())
    assert merged["processes"] == 2


def test_engine_time_is_charged_to_the_enclosing_layer(tmp_path):
    hook = load_tracer_module()
    ticks = iter(range(1000))
    tracer = hook.Tracer(str(tmp_path), clock=lambda: float(next(ticks)))
    measure = tracer.enter("workloads.measure_benchmark")
    syscall = tracer.enter("engine.run_syscall")
    tracer.exit(tracer.enter("engine.run_function"))  # self 1
    tracer.exit(syscall)  # self 2
    tracer.exit(measure)
    tracer.exit(tracer.enter("engine.run_function"))  # no layer: other
    counters = {}
    for rec in report.read_spans(tmp_path):
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
        assert all(e[0].startswith("workloads") for e in rec["events"])
    assert counters == {"engine.measure.s": 3.0, "engine.other.s": 1.0}


def test_import_sites_are_rebound_to_the_wrapper(tmp_path, monkeypatch):
    hook = load_tracer_module()
    tracer = hook.Tracer(str(tmp_path))
    defining = types.ModuleType("repro_fake.generator")
    exec("def build(n):\n    return list(range(n))\n", vars(defining))
    importer = types.ModuleType("repro_fake.harness")
    importer.build = defining.build
    monkeypatch.setitem(sys.modules, "repro_fake.harness", importer)
    monkeypatch.setattr(
        hook, "TARGETS", (("repro_fake.generator", "build", "fake.build"),)
    )
    hook.Instrumenter(tracer).instrument(defining)
    assert importer.build is defining.build
    assert importer.build(3) == [0, 1, 2]
    assert [r["agg"]["fake.build"][0] for r in report.read_spans(tmp_path)] == [1]


def test_serve_plan_is_seeded_and_stratified():
    plan = run.serve_plan(3, 4)
    assert plan == run.serve_plan(3, 4)
    assert plan != run.serve_plan(4, 4)
    cells = run.serve_cells()
    seen = set()
    for block in plan:
        assert len(block) == run.SERVE_BLOCK
        cold = [c for c in block if c.startswith("cold:")]
        assert sorted(int(c.split(":")[1]) for c in cold) == list(range(run.COLD_LEVELS))
        assert all(c in cells for c in block)
        assert not seen & set(cold)
        seen |= set(cold)
    budgets = [b for _, b, _ in cells.values() if b is not None]
    assert len(set(budgets)) == len(budgets)
    assert all(0.0 < b < 1.0 for b in budgets)
    # A shorter stream is a prefix of the longest, which the goldens cover.
    assert run.serve_plan(3, 2) == plan[:2]
    golden = run.load_golden("serve.json")
    assert sorted(golden) == [str(s) for s in range(run.SERVE_STREAMS)]
    for stream, expected in golden.items():
        longest = run.serve_plan(int(stream), run.COLD_VARIANTS)
        assert set(expected) == {c for block in longest for c in block} | {
            c for c in cells if c.startswith("hot:")
        }


def test_benchmark_json_matches_the_benchmark_and_the_limits():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    names = [w["name"] for w in benchmark["workloads"]]
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()
    )
    assert {k: m["unit"] for k, m in end_to_end.items()} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == (
        report.layer_units()
    )
    assert len(json.dumps(benchmark)) <= 64 * 1024
    # Metrics of one workload only live in the benchmark, not in
    # BENCHMARK.json, whose end-to-end metrics every workload reports.
    assert set(report.WORKLOAD_METRICS) <= set(run.WORKLOADS)
    for metrics in report.WORKLOAD_METRICS.values():
        for metric in metrics:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["name"] not in names
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25


def test_a_server_that_never_gets_ready_still_gives_a_result(tmp_path, monkeypatch):
    def never_ready(*args, **kwargs):
        raise run.ServerStartError("repro serve never became ready")

    monkeypatch.setattr(run, "Server", never_ready)
    monkeypatch.setattr(run, "WORK", tmp_path)
    for trace, units in ((False, run.END_TO_END_UNITS), (True, report.layer_units())):
        result, own = run.run_workload("serve-mixed", 7, 6.0, trace)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] > 0
        assert set(result["metrics"]) == set(units)
        assert set(own) == (
            set() if trace else {m["name"] for m in report.WORKLOAD_METRICS["serve-mixed"]}
        )
        json.dumps(result, allow_nan=False)
