"""Load-generator benchmark for the evaluation server (``repro serve``).

The server exists to amortize cold-start: kernel generation, profiling,
prefix builds and cache warm-up are paid once per process instead of
once per request. This benchmark quantifies that on the acceptance grid
— 5 defense selections x 2 workloads — three ways:

- ``cold_cli``: the per-invocation CLI path. Each cell constructs a
  fresh :class:`EvalContext` (kernel build + profile + variant +
  measurement, no disk cache) exactly like a one-shot ``repro
  benchmark`` run would.
- ``server_first_pass``: one client pass over the grid against a fresh
  server — the server's own cold path (prefix builds, cache fills).
- ``warm load``: N client threads hammer the warm server with the grid
  for several rounds; every request is timed, yielding requests/sec and
  p50/p99 latency. This is the number the CI budget asserts:
  ``warm_vs_cold_speedup = warm_rps / cold_cli_rps >= MIN_SPEEDUP``.

Server results are also checked **bit-identical** against
:meth:`EvalContext.measure_many` run inline — the service layer may
never change a measurement, only its latency.

Runs as a pytest benchmark (``pytest benchmarks/bench_serve.py``,
``REPRO_BENCH_FAST=1`` for the small kernel) or as a script::

    python benchmarks/bench_serve.py [--fast] [--strict-git]
        [--unix SOCK | --host H --port P]   # target a running server
        [--threads N] [--rounds N] [-o latency-report.json]

Without ``--unix``/``--port`` a server is self-hosted in-process (same
settings as the oracle, so the comparison is exact). When targeting an
external server it must run with matching settings (``repro serve
--fast`` for ``--fast`` here), or the bit-identical check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

if __package__ in (None, ""):  # script mode: make `from _meta import` work
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _meta import stamp, write_record

from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer, run_server

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: The acceptance grid: every Table-12 defense selection, both training
#: workloads.
DEFENSES = (
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
)
WORKLOADS = ("lmbench", "apache")
BENCHES = ("null", "read")

#: Acceptance bar: warm server throughput vs the per-invocation cold path.
MIN_SPEEDUP = 5.0


def bench_settings(fast: bool) -> EvalSettings:
    """The settings of ``repro serve`` / ``repro serve --fast``, so a
    load run against an externally started server produces bit-identical
    numbers to the inline oracle."""
    return EvalSettings.fast() if fast else EvalSettings()


def grid_cells() -> List[Tuple[PibeConfig, str]]:
    configs = [PibeConfig.lax(d) for d in DEFENSES]
    return [(c, w) for w in WORKLOADS for c in configs]


def measure_cold_cli(
    settings: EvalSettings, cells: List[Tuple[PibeConfig, str]], sample: int
) -> float:
    """Seconds per request on the per-invocation path: every cell pays a
    fresh context (kernel build, profiling, prefix build), like a
    one-shot CLI run. Returns the mean over ``sample`` cells."""
    times = []
    for config, workload in cells[:sample]:
        start = time.perf_counter()
        with EvalContext(settings) as ctx:
            ctx.measure(config, benches=_bench_objs(), workload_name=workload)
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def _bench_objs():
    from repro.workloads.lmbench import BY_NAME

    return tuple(BY_NAME[name] for name in BENCHES)


def _inline_oracle(
    settings: EvalSettings, cells: List[Tuple[PibeConfig, str]]
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Ground truth: measure the whole grid inline in one context."""
    oracle: Dict[Tuple[str, str], Dict[str, float]] = {}
    with EvalContext(settings) as ctx:
        for workload in WORKLOADS:
            configs = [c for c, w in cells if w == workload]
            results = ctx.measure_many(
                configs, benches=_bench_objs(), workload_name=workload
            )
            assert results.failure_report.ok, results.failure_report.summary()
            for config, values in zip(configs, results):
                oracle[(config.label(), workload)] = values
    return oracle


def _one_pass(
    client: ServeClient,
    cells: List[Tuple[PibeConfig, str]],
    latencies_ms: Optional[List[float]] = None,
) -> Dict[Tuple[str, str], Dict[str, float]]:
    out = {}
    for config, workload in cells:
        start = time.perf_counter()
        result = client.measure(config, benches=list(BENCHES), workload=workload)
        if latencies_ms is not None:
            latencies_ms.append((time.perf_counter() - start) * 1000.0)
        out[(config.label(), workload)] = result["results"]
    return out


def run_serve_bench(
    fast: bool,
    threads: int = 4,
    rounds: int = 5,
    unix: Optional[str] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    cold_sample: Optional[int] = None,
) -> Dict[str, Any]:
    settings = bench_settings(fast)
    cells = grid_cells()
    if cold_sample is None:
        cold_sample = 3 if fast else len(cells)

    oracle = _inline_oracle(settings, cells)
    cold_per_request = measure_cold_cli(settings, cells, cold_sample)

    own_server = unix is None and port is None
    server: Optional[ReproServer] = None
    server_thread: Optional[threading.Thread] = None
    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if own_server:
        tmpdir = tempfile.TemporaryDirectory(prefix="bench-serve-")
        unix = os.path.join(tmpdir.name, "repro.sock")
        server = ReproServer(
            dataclasses.replace(
                settings, cache_dir=os.path.join(tmpdir.name, "cache")
            ),
            unix_path=unix,
        )
        server_thread = threading.Thread(
            target=run_server, args=(server,), daemon=True
        )
        server_thread.start()
        deadline = time.monotonic() + 60
        while not os.path.exists(unix):
            if time.monotonic() > deadline:
                raise RuntimeError("server socket never appeared")
            time.sleep(0.05)

    def make_client() -> ServeClient:
        if unix:
            return ServeClient(unix=unix)
        return ServeClient(host=host, port=port)

    try:
        # -- server cold pass (its prefix builds + cache fills) ------------
        with make_client() as client:
            start = time.perf_counter()
            first_pass = _one_pass(client, cells)
            first_pass_seconds = time.perf_counter() - start
        assert first_pass == oracle, "server results differ from inline oracle"

        # -- warm load ------------------------------------------------------
        latencies_by_thread: List[List[float]] = [[] for _ in range(threads)]
        mismatches: List[str] = []

        def worker(slot: int) -> None:
            with make_client() as client:
                for _ in range(rounds):
                    passed = _one_pass(client, cells, latencies_by_thread[slot])
                    if passed != oracle:
                        mismatches.append(f"thread {slot}")
                        return

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        start = time.perf_counter()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        wall = time.perf_counter() - start
        assert not mismatches, f"warm results diverged: {mismatches}"

        latencies = sorted(
            ms for per_thread in latencies_by_thread for ms in per_thread
        )
        assert latencies, "no warm requests recorded"
        total_requests = len(latencies)
        warm_rps = total_requests / wall

        with make_client() as client:
            server_stats = client.stats()["server"]
    finally:
        if own_server:
            try:
                with make_client() as client:
                    client.shutdown()
            except OSError:
                pass
            server_thread.join(timeout=30)
            tmpdir.cleanup()

    def pct(fraction: float) -> float:
        rank = min(len(latencies) - 1, int(fraction * len(latencies)))
        return latencies[rank]

    cold_rps = 1.0 / cold_per_request
    return {
        "benchmark": "serve_load",
        "kernel": type(settings.spec).__name__,
        "grid": {
            "defenses": [d.label() for d in DEFENSES],
            "workloads": list(WORKLOADS),
            "benches": list(BENCHES),
            "cells": len(cells),
        },
        "load": {"threads": threads, "rounds": rounds},
        "cold_cli_seconds_per_request": round(cold_per_request, 4),
        "cold_cli_rps": round(cold_rps, 3),
        "cold_cli_sampled_cells": cold_sample,
        "server_first_pass_seconds": round(first_pass_seconds, 4),
        "warm_requests": total_requests,
        "warm_wall_seconds": round(wall, 4),
        "warm_rps": round(warm_rps, 1),
        "warm_p50_ms": round(pct(0.50), 3),
        "warm_p99_ms": round(pct(0.99), 3),
        "warm_vs_cold_speedup": round(warm_rps / cold_rps, 1),
        "min_speedup": MIN_SPEEDUP,
        "bit_identical": True,
        "server_counters": dict(sorted(server_stats["counters"].items())),
        "server_endpoints": server_stats["endpoints"],
    }


def _check_and_write(
    record: Dict[str, Any],
    strict: Optional[bool] = None,
    report_path: Optional[str] = None,
) -> None:
    stamp(record, strict=strict)
    write_record(RECORD_PATH, record)
    print(f"\nserve load benchmark ({RECORD_PATH.name}):")
    print(json.dumps(record, indent=2))
    if report_path:
        Path(report_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {report_path}")
    assert record["warm_vs_cold_speedup"] >= record["min_speedup"], (
        f"warm server throughput only {record['warm_vs_cold_speedup']}x the "
        f"per-invocation cold path, bar {record['min_speedup']}x"
    )


def test_serve_load():
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    _check_and_write(run_serve_bench(fast))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true")
    parser.add_argument(
        "--strict-git", action="store_true",
        help="refuse to record results from a dirty working tree",
    )
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--unix", help="target a running server (unix socket)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument(
        "-o", "--output", help="also write the record here (CI artifact)"
    )
    args = parser.parse_args(argv)
    record = run_serve_bench(
        args.fast,
        threads=args.threads,
        rounds=args.rounds,
        unix=args.unix,
        host=args.host,
        port=args.port,
    )
    _check_and_write(
        record, strict=args.strict_git or None, report_path=args.output
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
