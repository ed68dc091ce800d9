"""The LMBench-like latency suite (paper Section 8, Tables 2/3/5).

Twenty latency benchmarks matching the paper's rows. Each maps to the
synthetic kernel entry exercising the same subsystem path. Per-bench
operation counts are scaled inversely to path weight so a full suite run
stays fast while heavy benches still accumulate stable statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.base import Benchmark, Workload

#: The full suite, in the paper's Table 2 row order.
LMBENCH_BENCHMARKS: List[Benchmark] = [
    Benchmark("null", (("getppid", 1),), default_ops=400),
    Benchmark("read", (("read", 1),), default_ops=300),
    Benchmark("write", (("write", 1),), default_ops=300),
    Benchmark("open", (("open", 1),), default_ops=200),
    Benchmark("stat", (("stat", 1),), default_ops=250),
    Benchmark("fstat", (("fstat", 1),), default_ops=300),
    Benchmark("af_unix", (("af_unix", 1),), default_ops=150),
    Benchmark("fork/exit", (("fork_exit", 1),), default_ops=60),
    Benchmark("fork/exec", (("fork_exec", 1),), default_ops=50),
    Benchmark("fork/shell", (("fork_shell", 1),), default_ops=30),
    Benchmark("pipe", (("pipe", 1),), default_ops=200),
    Benchmark("select_file", (("select_file", 1),), default_ops=80),
    Benchmark("select_tcp", (("select_tcp", 1),), default_ops=50),
    Benchmark("tcp_conn", (("tcp_conn", 1),), default_ops=120),
    Benchmark("udp", (("udp", 1),), default_ops=200),
    Benchmark("tcp", (("tcp", 1),), default_ops=180),
    Benchmark("mmap", (("mmap", 1),), default_ops=100),
    Benchmark("page_fault", (("page_fault", 1),), default_ops=400),
    Benchmark("sig_install", (("sig_install", 1),), default_ops=400),
    Benchmark("sig_dispatch", (("sig_dispatch", 1),), default_ops=250),
]

BY_NAME: Dict[str, Benchmark] = {b.name: b for b in LMBENCH_BENCHMARKS}


def resolve_benches(names: Optional[Sequence[str]]) -> Tuple[Benchmark, ...]:
    """Benchmark objects from names (default: the full suite)."""
    if names is None:
        return tuple(LMBENCH_BENCHMARKS)
    try:
        return tuple(BY_NAME[name] for name in names)
    except KeyError as exc:
        raise ValueError(
            f"unknown benchmark {exc.args[0]!r} (known: {sorted(BY_NAME)})"
        ) from None


#: The retpoline-sensitive subset used in Table 3.
TABLE3_BENCHMARKS: List[Benchmark] = [
    BY_NAME[name]
    for name in (
        "null",
        "read",
        "write",
        "open",
        "stat",
        "fstat",
        "select_tcp",
        "udp",
        "tcp",
        "tcp_conn",
        "af_unix",
        "pipe",
    )
]


#: Approximate per-op latencies (µs) from the paper's Table 2 LTO column.
#: LMBench time-budgets each bench, so cheap operations run orders of
#: magnitude more often than expensive ones — the source of the profile's
#: heavy-tailed weight distribution and of the paper's observation that
#: "workload imbalance complicates the selection of an optimal threshold"
#: (Section 5.2).
PAPER_LATENCIES_US = {
    "null": 0.14,
    "read": 0.2,
    "write": 0.17,
    "open": 0.78,
    "stat": 0.4,
    "fstat": 0.21,
    "af_unix": 3.79,
    "fork/exit": 64.57,
    "fork/exec": 158.59,
    "fork/shell": 418.62,
    "pipe": 2.28,
    "select_file": 4.37,
    "select_tcp": 9.38,
    "tcp_conn": 8.01,
    "udp": 3.81,
    "tcp": 4.61,
    "mmap": 8.73,
    "page_fault": 0.11,
    "sig_install": 0.2,
    "sig_dispatch": 0.67,
}


def engine_workload(ops_scale: float = 1.0) -> Workload:
    """The engine-throughput stress mix paired with ``ScaledSpec``.

    A read/write-heavy blend of the hottest syscall paths (matching the
    LMBench profile's weight distribution) used by
    ``benchmarks/bench_engine.py`` to measure events/sec at the 10×
    kernel scale. Kept here, next to the profiling workloads, so the
    bench and any ad-hoc throughput experiment exercise the same mix.
    """
    counts = {
        "read": 400,
        "write": 400,
        "stat": 150,
        "open": 100,
        "select_file": 60,
        "mmap": 60,
        "pipe": 100,
    }
    components = tuple(
        (BY_NAME[name], max(1, int(round(ops * ops_scale))))
        for name, ops in counts.items()
    )
    return Workload(name="engine-mix", components=components)


def lmbench_workload(
    ops_scale: float = 1.0, time_budget_us: float = 120.0
) -> Workload:
    """The LMBench profiling workload.

    Each bench runs for the same simulated time budget, so per-bench
    operation counts are inversely proportional to per-op latency — the
    paper collects edge counts from 11 iterations of exactly this
    configuration.
    """
    components = []
    for bench in LMBENCH_BENCHMARKS:
        latency = PAPER_LATENCIES_US[bench.name]
        ops = max(1, int(round(time_budget_us * ops_scale / latency)))
        components.append((bench, ops))
    return Workload(name="lmbench3", components=tuple(components))
