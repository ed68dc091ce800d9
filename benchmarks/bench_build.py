"""Build-engine benchmarks: staged sweeps, delta ladders, prewarmed grids.

Three benchmarks, all recording absolute seconds to ``BENCH_build.json``
at the repo root (track them against the record history):

- ``staged_variant_build``: the defense sweep the staged engine exists
  for — N hardening configurations at one shared optimization budget,
  which run ICP + inlining once per distinct optimization prefix and
  stamp each defense onto a copy-on-write clone. Timed against an empty
  cache and again against the populated cache, which must serve every
  prefix from disk (a replay of its decision trace). Records the cache's
  per-kind disk usage and the mean bytes per ``prefix`` entry.
- ``prefix_delta_ladder``: the budget ladder the delta engine exists for
  — one profile, many budgets in the fine-grained tuning regime, each
  derived from the shared decision basis by re-transforming only touched
  functions. Timed over ``warm_prefix`` (prefix derivation only), per
  budget and as the mean *added* budget (everything after the first,
  which pays basis construction).
- ``prefix_prewarm_sweep``: a cold fast-grid sweep with parallel prefix
  prewarming over delta-derived budget slices, then a parallel
  measurement fan-out over the warmed cache — and the same sweep run
  serially without prewarming, whose CSV must be bit-identical.

Runs as a pytest benchmark (``pytest benchmarks/bench_build.py``,
``REPRO_BENCH_FAST=1`` for the small kernel) or as a script
(``python benchmarks/bench_build.py [--fast] [--strict-git]``), which
records all three.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

if __package__ in (None, ""):  # script mode: make `from _meta import` work
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _meta import stamp, write_record

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.evaluation.cache import DiskCache
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.evaluation.sweepengine import SweepGrid, run_sweep
from repro.hardening.defenses import DefenseConfig
from repro.kernel.generator import build_kernel
from repro.kernel.spec import DEFAULT_SPEC, SmallSpec
from repro.workloads.lmbench import BY_NAME, lmbench_workload

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_build.json"

#: The sweep: every defense selection of Table 12 at one lax budget.
DEFENSES = (
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
)

#: Timing repetitions; each mode reports its fastest run.
REPS = 2

#: Budget ladder for the delta benchmark: one profile, many budgets, in
#: the fine-grained tuning regime the delta engine targets — decisions
#: touch a bounded slice of the module, so the apply phase stays small.
#: (Near budget 1.0 the decisions touch almost every function; the
#: staged/prewarm benchmarks cover that end of the range.)
DELTA_BUDGETS = (0.3, 0.4, 0.5, 0.6, 0.7)

#: Worker processes for the prewarm sweep's parallel arm (the serial arm
#: is, by definition, one). Capped so CI runners aren't oversubscribed.
PREWARM_JOBS = max(2, min(8, os.cpu_count() or 4))


def _sweep(pipeline: PibePipeline, configs, profile) -> float:
    start = time.perf_counter()
    for config in configs:
        pipeline.build_variant(config, profile)
    return time.perf_counter() - start


def run_build_bench(fast: bool) -> Dict[str, Any]:
    """Time the defense sweep cold and warm; returns the record."""
    spec = SmallSpec() if fast else DEFAULT_SPEC
    ops_scale = 0.05 if fast else 0.02
    kernel = build_kernel(spec)
    profile = PibePipeline(kernel).profile(
        lmbench_workload(ops_scale=ops_scale), iterations=1
    )
    configs = [PibeConfig.lax(d) for d in DEFENSES]

    cold = None
    warm = None
    warm_pipeline = None
    warm_cache = None
    usage = None
    for _ in range(REPS):
        with tempfile.TemporaryDirectory(prefix="bench-build-") as tmp:
            cache = DiskCache(Path(tmp))
            cold_pipeline = PibePipeline(kernel, cache=cache)
            t = _sweep(cold_pipeline, configs, profile)
            cold = t if cold is None else min(cold, t)
            assert cold_pipeline.stats["prefix_builds"] > 0

            warm_cache = DiskCache(Path(tmp))
            warm_pipeline = PibePipeline(kernel, cache=warm_cache)
            t = _sweep(warm_pipeline, configs, profile)
            warm = t if warm is None else min(warm, t)
            usage = warm_cache.disk_usage()

    # The warm sweep must be served from the persisted prefixes: disk
    # hits on the "prefix" kind, zero prefix rebuilds.
    prefix_stats = warm_cache.stats()["by_kind"].get("prefix", {})
    assert prefix_stats.get("hits", 0) > 0, warm_cache.stats()
    assert warm_pipeline.stats["prefix_disk_hits"] > 0, warm_pipeline.stats
    assert warm_pipeline.stats["prefix_builds"] == 0, warm_pipeline.stats

    record = {
        "benchmark": "staged_variant_build",
        "kernel": type(spec).__name__,
        "defenses": [d.label() for d in DEFENSES],
        "budget": {"icp": configs[0].icp_budget, "inline": configs[0].inline_budget},
        "reps": REPS,
        "staged_cold_seconds": round(cold, 4),
        "staged_warm_seconds": round(warm, 4),
        "pipeline_stats": dict(warm_pipeline.stats),
        "prefix_cache": prefix_stats,
        "disk_usage": usage,
        "prefix_entry_bytes": round(
            usage["prefix"]["bytes"] / usage["prefix"]["entries"]
        ),
    }
    return record


def run_delta_bench(fast: bool) -> Dict[str, Any]:
    """Budget ladder: every prefix derived from one decision basis."""
    spec = SmallSpec() if fast else DEFAULT_SPEC
    ops_scale = 0.05 if fast else 0.02
    kernel = build_kernel(spec)
    profile = PibePipeline(kernel).profile(
        lmbench_workload(ops_scale=ops_scale), iterations=1
    )
    configs = [
        PibeConfig(
            defenses=DefenseConfig.all_defenses(),
            icp_budget=budget,
            inline_budget=budget,
            lax_heuristics=True,
        )
        for budget in DELTA_BUDGETS
    ]

    # Timed via warm_prefix: prefix derivation only, without the
    # hardening stamp downstream.
    delta_times = None
    pipeline = None
    for _ in range(REPS):
        pipeline = PibePipeline(kernel)
        times = []
        for config in configs:
            start = time.perf_counter()
            pipeline.warm_prefix(config, profile)
            times.append(time.perf_counter() - start)
        if delta_times is None or sum(times) < sum(delta_times):
            delta_times = times
    assert pipeline.stats["prefix_delta_builds"] == len(configs)

    # The first budget pays decision-basis construction; every budget
    # *added* after it is a pure delta.
    delta_added = sum(delta_times[1:]) / (len(configs) - 1)
    return {
        "benchmark": "prefix_delta_ladder",
        "kernel": type(spec).__name__,
        "budgets": list(DELTA_BUDGETS),
        "reps": REPS,
        "delta_ladder_seconds": [round(t, 4) for t in delta_times],
        "delta_added_budget_seconds": round(delta_added, 4),
        "pipeline_stats": dict(pipeline.stats),
    }


def run_prewarm_bench(fast: bool) -> Dict[str, Any]:
    """Cold fast-grid sweep, serial and with parallel prewarming.

    The serial arm runs one worker and builds every optimized prefix
    inside the measurement loop. The prewarm arm runs the same grid with
    parallel prefix prewarming across the worker pool, each slice
    deriving its budgets from a shared decision basis, with measurement
    fanned out over the warmed disk cache. The workload profile is
    seeded into both arms' cache directories up front and the security
    attachment is skipped, so everything timed is build-and-measure
    work. Both arms must emit bit-identical CSVs.
    """
    budgets = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999999)
    grid = SweepGrid(
        budgets=budgets,
        defenses=(
            DefenseConfig.retpolines_only(),
            DefenseConfig.llvm_cfi_only(),
            DefenseConfig.all_defenses(),
        ),
        workloads=("lmbench",),
        scales=("default",),
        seeds=1,
    )
    benches = [BY_NAME["read"]]
    kernel = build_kernel(DEFAULT_SPEC)
    reps = 1 if fast else REPS

    with tempfile.TemporaryDirectory(prefix="bench-prewarm-") as seed_dir:
        # Profile once and copy the cache entries into each arm: the
        # profile is input to both arms, not work either one changes.
        seed_settings = EvalSettings(
            profile_iterations=1,
            profile_ops_scale=0.02,
            measure_ops_scale=0.02,
            jobs=1,
            cache_dir=seed_dir,
        )
        with EvalContext(seed_settings, kernel=kernel) as ctx:
            ctx.profile("lmbench")

        def arm(jobs: int, prewarm: bool):
            with tempfile.TemporaryDirectory(prefix="bench-prewarm-") as tmp:
                shutil.copytree(
                    Path(seed_dir) / "profile", Path(tmp) / "profile"
                )
                settings = EvalSettings(
                    profile_iterations=1,
                    profile_ops_scale=0.02,
                    measure_ops_scale=0.02,
                    jobs=jobs,
                    cache_dir=tmp,
                )
                start = time.perf_counter()
                result = run_sweep(
                    grid,
                    settings,
                    benches=benches,
                    jobs=jobs,
                    kernels={"default": kernel},
                    prewarm=prewarm,
                    security=False,
                )
                return time.perf_counter() - start, result

        serial_seconds = None
        prewarm_seconds = None
        serial = prewarmed = None
        for _ in range(reps):
            t, serial = arm(1, prewarm=False)
            serial_seconds = t if serial_seconds is None else min(serial_seconds, t)
            t, prewarmed = arm(PREWARM_JOBS, prewarm=True)
            prewarm_seconds = (
                t if prewarm_seconds is None else min(prewarm_seconds, t)
            )
    assert prewarmed.to_csv() == serial.to_csv(), "prewarm CSV diverged"

    return {
        "benchmark": "prefix_prewarm_sweep",
        "fast": fast,
        "budgets": list(budgets),
        "defenses": [d.label() for d in grid.defenses],
        "cells": grid.cell_count,
        "jobs": PREWARM_JOBS,
        "reps": reps,
        "serial_cold_seconds": round(serial_seconds, 4),
        "prewarm_seconds": round(prewarm_seconds, 4),
        # The serial arm's counters: the prewarm arm builds every prefix
        # in worker processes, so its own pipeline counts nothing.
        "pipeline_stats": serial.stats["pipeline"],
    }


def _write(record, strict: bool = None) -> None:
    stamp(record, strict=strict)
    write_record(RECORD_PATH, record)
    print(f"\n{record['benchmark']} benchmark ({RECORD_PATH.name}):")
    print(json.dumps(record, indent=2))


def test_staged_build_sweep():
    _write(run_build_bench(bool(os.environ.get("REPRO_BENCH_FAST"))))


def test_prefix_delta_ladder():
    _write(run_delta_bench(bool(os.environ.get("REPRO_BENCH_FAST"))))


def test_prefix_prewarm_sweep():
    _write(run_prewarm_bench(bool(os.environ.get("REPRO_BENCH_FAST"))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="small kernel, reduced profile"
    )
    parser.add_argument(
        "--strict-git",
        action="store_true",
        help="refuse to record results from a dirty working tree",
    )
    args = parser.parse_args(argv)
    strict = args.strict_git or None
    _write(run_build_bench(args.fast), strict=strict)
    _write(run_delta_bench(args.fast), strict=strict)
    _write(run_prewarm_bench(args.fast), strict=strict)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
