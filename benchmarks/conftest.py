"""Shared benchmark fixtures.

One :class:`EvalContext` per session: the kernel, profiling runs, built
variants and per-config measurements are cached, so each table's harness
only pays for the work unique to it.

Environment knobs:

- ``REPRO_BENCH_FAST=1`` — reduced scale (smaller kernel, fewer profiling
  iterations); the shapes still hold, absolute census numbers shrink.
- ``REPRO_BENCH_ENGINE=reference|compiled`` — execution engine (results
  are identical either way; the compiled engine is just faster).
- ``REPRO_BENCH_JOBS=N`` — worker processes for parallel measurement.
- ``REPRO_BENCH_CACHE=<dir>`` — persist profiles/measurements on disk so
  repeat benchmark sessions skip them (``1`` selects ``.repro-cache``;
  unset or ``0`` disables).
"""

import dataclasses
import os

import pytest

from repro.engine.compiled import DEFAULT_ENGINE
from repro.evaluation.cache import CACHE_DIR_NAME
from repro.evaluation.harness import EvalContext, EvalSettings


def _cache_dir():
    value = os.environ.get("REPRO_BENCH_CACHE", "")
    if value in ("", "0"):
        return None
    return CACHE_DIR_NAME if value == "1" else value


def _settings() -> EvalSettings:
    engine = os.environ.get("REPRO_BENCH_ENGINE", DEFAULT_ENGINE)
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    cache_dir = _cache_dir()
    if os.environ.get("REPRO_BENCH_FAST"):
        return dataclasses.replace(
            EvalSettings.fast(), engine=engine, jobs=jobs, cache_dir=cache_dir
        )
    return EvalSettings(
        profile_iterations=3,
        profile_ops_scale=1.0,
        measure_ops_scale=0.5,
        engine=engine,
        jobs=jobs,
        cache_dir=cache_dir,
    )


@pytest.fixture(scope="session")
def eval_ctx() -> EvalContext:
    return EvalContext(_settings())


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    return bool(os.environ.get("REPRO_BENCH_FAST"))


def emit(result_table) -> None:
    """Print a rendered table (visible with ``pytest -s`` and in the
    captured section of failing runs)."""
    print()
    print(result_table.to_text())
    print()
