#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Equivalent of the artifact's ``run_artifact.sh`` + ``generate_tables.sh``:
runs the whole experiment matrix and prints each table with the paper's
reference numbers in the footnotes.

Run:  python examples/full_evaluation.py [--fast] [--jobs N]

``--fast`` uses the reduced kernel and scales (minutes -> seconds);
``--jobs N`` lets each table fan its own measurement cells out over N
worker processes. Profiles and measurements persist in
``.repro-cache/`` so a repeat run skips them; ``--no-cache`` disables
that (``--engine reference`` forces the slow oracle interpreter — results
are identical, only wall time changes).
"""

import argparse
import dataclasses
import sys
import time

from repro.engine.compiled import DEFAULT_ENGINE, ENGINES
from repro.evaluation import tables
from repro.evaluation.cache import CACHE_DIR_NAME
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.tools.cli import use_eval_gc_policy


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
