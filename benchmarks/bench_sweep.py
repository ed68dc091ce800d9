"""Sweep-engine scale benchmark: grid throughput and cache economics.

The sweep engine fans a (defense x budget x workload) grid through the
staged build pipeline and the measurement disk cache, so its cost model
has two regimes:

- **cold**: every cell pays profile + prefix build + stamp + measure;
- **warm**: a repeated grid is served from the measurement cache, and a
  *grown* grid (new defenses, same budgets) stamps onto already-built
  optimization prefixes — per-cell cost must drop, i.e. total cost is
  sublinear in grid size.

Three timed runs against one cache directory record the economics to
``BENCH_build.json`` at the repo root:

- ``cold``: base grid, empty cache;
- ``warm``: identical grid — asserts byte-identical CSV/report output,
  measurement-cache hits, and warm prefix reuse;
- ``grown``: the base grid plus extra defenses (same budgets) — asserts
  per-cell cost below the cold run's (the sublinearity bar), since the
  old cells are cache hits and the new cells reuse warm prefixes.

Runs as a pytest benchmark (``pytest benchmarks/bench_sweep.py``,
``REPRO_BENCH_FAST=1`` for the reduced grid) or as a script
(``python benchmarks/bench_sweep.py [--fast] [--strict-git]``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

if __package__ in (None, ""):  # script mode: make `from _meta import` work
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _meta import stamp, write_record

from repro.evaluation.harness import EvalSettings
from repro.evaluation.sweepengine import (
    SCALE_SPECS,
    SweepGrid,
    run_sweep,
)
from repro.hardening.defenses import DefenseConfig
from repro.kernel.generator import build_kernel
from repro.workloads.lmbench import BY_NAME

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_build.json"

#: Sublinearity bar: growing the grid by a factor k must cost less than
#: this fraction of k times the cold run (1.0 = merely linear).
MAX_GROWTH_COST_FRACTION = 0.75

BASE_DEFENSES = (
    DefenseConfig.retpolines_only(),
    DefenseConfig.llvm_cfi_only(),
)
EXTRA_DEFENSES = (
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
)


def _grids(fast: bool):
    budgets = (0.5, 0.999999) if fast else (0.5, 0.9, 0.99, 0.999999)
    base = SweepGrid(
        budgets=budgets,
        defenses=BASE_DEFENSES,
        workloads=("lmbench",),
        scales=("small",),
        seeds=2,
    )
    grown = dataclasses.replace(base, defenses=BASE_DEFENSES + EXTRA_DEFENSES)
    return base, grown


def _settings(cache_dir: str) -> EvalSettings:
    return EvalSettings(
        profile_iterations=1,
        profile_ops_scale=0.1,
        measure_ops_scale=0.1,
        cache_dir=cache_dir,
    )


def _timed(grid: SweepGrid, settings: EvalSettings, benches, kernels):
    start = time.perf_counter()
    result = run_sweep(grid, settings, benches=benches, kernels=kernels)
    return time.perf_counter() - start, result


def run_sweep_bench(fast: bool) -> Dict[str, Any]:
    """Measure the three cache regimes; returns the benchmark record."""
    base, grown = _grids(fast)
    bench_names = ("read", "write", "pipe") if fast else (
        "read", "write", "pipe", "select_tcp", "fstat"
    )
    benches = [BY_NAME[n] for n in bench_names]
    # One kernel for all three runs: a rebuilt kernel would carry shifted
    # site ids, so it would miss every profile, prefix and measured entry.
    kernels = {"small": build_kernel(SCALE_SPECS["small"])}

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        settings = _settings(tmp)
        cold_seconds, cold = _timed(base, settings, benches, kernels)
        warm_seconds, warm = _timed(base, settings, benches, kernels)
        grown_seconds, big = _timed(grown, settings, benches, kernels)

    # Warm rerun of the identical grid: the analysis output must be
    # byte-identical and served from the measurement cache.
    assert warm.to_csv() == cold.to_csv(), "warm CSV diverged"
    assert warm.render_report("text") == cold.render_report("text")
    warm_pipeline = warm.stats["pipeline"]
    warm_prefix_hits = (
        warm_pipeline["prefix_memory_hits"] + warm_pipeline["prefix_disk_hits"]
    )
    assert warm.stats["disk_cache"]["hits"] > 0, warm.stats
    assert warm_pipeline["prefix_builds"] == 0, warm_pipeline
    assert warm_prefix_hits > 0, warm_pipeline

    # Growing the grid reuses the warm prefixes: per-cell cost must be
    # sublinear versus the cold run.
    cold_per_cell = cold_seconds / base.cell_count
    grown_per_cell = grown_seconds / grown.cell_count
    growth_fraction = grown_per_cell / cold_per_cell
    assert growth_fraction < MAX_GROWTH_COST_FRACTION, (
        f"grown grid cost {grown_per_cell:.4f}s/cell vs cold "
        f"{cold_per_cell:.4f}s/cell (fraction {growth_fraction:.2f}, "
        f"bar {MAX_GROWTH_COST_FRACTION})"
    )
    grown_pipeline = big.stats["pipeline"]
    assert grown_pipeline["prefix_builds"] == 0, grown_pipeline

    return {
        "benchmark": "sweep_engine",
        "fast": fast,
        "budgets": list(base.budgets),
        "defenses": [d.label() for d in grown.defenses],
        "benches": list(bench_names),
        "seeds": base.seeds,
        "base_cells": base.cell_count,
        "grown_cells": grown.cell_count,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "grown_seconds": round(grown_seconds, 4),
        "cold_cells_per_sec": round(base.cell_count / cold_seconds, 3),
        "warm_cells_per_sec": round(base.cell_count / warm_seconds, 3),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
        "growth_cost_fraction": round(growth_fraction, 3),
        "max_growth_cost_fraction": MAX_GROWTH_COST_FRACTION,
        "warm_prefix_hits": warm_prefix_hits,
        "warm_disk_cache": warm.stats["disk_cache"],
        "grown_pipeline_stats": grown_pipeline,
        "crossovers": len(cold.crossovers),
    }


def _check_and_write(record: Dict[str, Any], strict=None) -> None:
    stamp(record, strict=strict)
    write_record(RECORD_PATH, record)
    print(f"\nsweep-engine benchmark ({RECORD_PATH.name}):")
    print(json.dumps(record, indent=2))


def test_sweep_scale():
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    _check_and_write(run_sweep_bench(fast))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="reduced grid and bench set"
    )
    parser.add_argument(
        "--strict-git",
        action="store_true",
        help="refuse to record results from a dirty working tree",
    )
    args = parser.parse_args(argv)
    record = run_sweep_bench(args.fast)
    _check_and_write(record, strict=args.strict_git or None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
