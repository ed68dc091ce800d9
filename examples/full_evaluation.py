#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Equivalent of the artifact's ``run_artifact.sh`` + ``generate_tables.sh``:
runs the whole experiment matrix and prints each table with the paper's
reference numbers in the footnotes.

Run:  python examples/full_evaluation.py [--fast] [--jobs N]

``--fast`` uses the reduced kernel and scales (minutes -> seconds);
``--jobs N`` fans the independent measurement cells out over N worker
processes before the tables render. Profiles and measurements persist in
``.repro-cache/`` so a repeat run skips them; ``--no-cache`` disables
that (``--engine reference`` forces the slow oracle interpreter — results
are identical, only wall time changes).
"""

import argparse
import dataclasses
import sys
import time

from repro.core.config import PibeConfig
from repro.engine.compiled import DEFAULT_ENGINE, ENGINES
from repro.evaluation import tables
from repro.evaluation.cache import CACHE_DIR_NAME
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig
from repro.tools.cli import use_eval_gc_policy
from repro.workloads.lmbench import TABLE3_BENCHMARKS


def _measured_configs():
    """The (config, benches, workload) cells the tables below will ask
    for, grouped for :meth:`EvalContext.measure_many` prefetching."""
    all_def = DefenseConfig.all_defenses()
    retp = DefenseConfig.retpolines_only()
    lmbench = [
        PibeConfig.lto_baseline(),
        PibeConfig.pibe_baseline(),
        PibeConfig.hardened(retp),
        PibeConfig.hardened(retp, icp_budget=0.99999),
        PibeConfig.hardened(DefenseConfig.ret_retpolines_only()),
        PibeConfig.lax(DefenseConfig.ret_retpolines_only()),
        PibeConfig.hardened(DefenseConfig.lvi_only()),
        PibeConfig.lax(DefenseConfig.lvi_only()),
        PibeConfig.hardened(all_def),
        PibeConfig.hardened(all_def, icp_budget=0.99999),
        PibeConfig.hardened(all_def, icp_budget=0.99999, inline_budget=0.99),
        PibeConfig.hardened(all_def, icp_budget=0.99999, inline_budget=0.999),
        PibeConfig.hardened(
            all_def, icp_budget=0.99999, inline_budget=0.999999
        ),
        PibeConfig.lax(all_def),
        PibeConfig(
            defenses=all_def,
            icp_budget=0.999999,
            inline_budget=0.999999,
            use_default_inliner=True,
        ),
    ]
    table3 = [
        PibeConfig.lto_baseline(),
        PibeConfig.hardened(retp),
        PibeConfig.hardened(retp, icp_budget=0.99),
        PibeConfig.hardened(retp, icp_budget=0.99999),
    ]
    apache = [PibeConfig.lax(all_def)]
    return [
        (lmbench, None, "lmbench"),
        (table3, TABLE3_BENCHMARKS, "lmbench"),
        (apache, None, "apache"),
    ]


def main(argv=None):
    if argv is None:  # run as the program: this process is ours
        use_eval_gc_policy()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="reduced kernel and scales"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for parallel measurement (default: 1)",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=DEFAULT_ENGINE,
        help="execution engine (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"don't persist results under {CACHE_DIR_NAME}/",
    )
    args = parser.parse_args(argv)

    settings = dataclasses.replace(
        EvalSettings.fast() if args.fast else EvalSettings(),
        engine=args.engine,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else CACHE_DIR_NAME,
    )
    ctx = EvalContext(settings)

    total_start = time.perf_counter()
    if args.jobs > 1:
        # Fan the measurement cells out across workers up front; the
        # table generators below then hit the warm in-memory caches.
        for configs, benches, workload in _measured_configs():
            if benches is None:
                ctx.measure_many(configs, workload_name=workload)
            else:
                ctx.measure_many(configs, benches, workload_name=workload)
        elapsed = time.perf_counter() - total_start
        print(f"[measurements prefetched with {args.jobs} jobs in {elapsed:.1f}s]\n")

    for _, label, run in tables.EXPERIMENTS:
        start = time.perf_counter()
        result = run(ctx)
        elapsed = time.perf_counter() - start
        print(result.table.to_text())
        print(f"[{label} regenerated in {elapsed:.1f}s]\n")
    if ctx.cache is not None:
        stats = ctx.cache.stats()
        print(
            f"disk cache: {stats['hits']} hits, {stats['misses']} misses "
            f"({ctx.cache.root}/)"
        )
    print(
        f"full evaluation complete in "
        f"{time.perf_counter() - total_start:.1f}s"
    )


if __name__ == "__main__":
    sys.exit(main())
