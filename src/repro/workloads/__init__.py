"""Workloads: LMBench-like latency suite, SPEC-like userspace suite,
ApacheBench training workload, and macro throughput applications."""

from repro.workloads.apachebench import APACHE_REQUEST_BATCH, apachebench_workload
from repro.workloads.base import (
    CLOCK_HZ,
    BenchResult,
    Benchmark,
    Workload,
    measure_benchmark,
    measure_benchmark_median,
    measure_suite,
    profile_workload,
)
from repro.workloads.lmbench import (
    BY_NAME,
    LMBENCH_BENCHMARKS,
    TABLE3_BENCHMARKS,
    lmbench_workload,
)
from repro.workloads.macro import (
    ALL_MACROBENCHMARKS,
    APACHE,
    DBENCH,
    MacroBenchmark,
    NGINX,
    ThroughputResult,
    measure_throughput,
)
from repro.workloads.microbench import (
    CALL_KINDS,
    build_microbench_module,
    measure_all_ticks,
    measure_ticks,
)
from repro.workloads.spec import (
    SPEC_COMPONENTS,
    SpecComponent,
    build_spec_module,
    geomean_slowdown,
    measure_all_spec_slowdowns,
    measure_spec_slowdown,
)

#: Training workloads by name (factories taking ``ops_scale``): profiling
#: in the harness and the CLI, sweep grids and the serve protocol all
#: resolve names here.
TRAINING_WORKLOADS = {
    "lmbench": lmbench_workload,
    "apache": apachebench_workload,
}

__all__ = [
    "ALL_MACROBENCHMARKS",
    "APACHE",
    "APACHE_REQUEST_BATCH",
    "BY_NAME",
    "BenchResult",
    "Benchmark",
    "CALL_KINDS",
    "CLOCK_HZ",
    "DBENCH",
    "LMBENCH_BENCHMARKS",
    "MacroBenchmark",
    "NGINX",
    "SPEC_COMPONENTS",
    "SpecComponent",
    "TABLE3_BENCHMARKS",
    "TRAINING_WORKLOADS",
    "ThroughputResult",
    "Workload",
    "apachebench_workload",
    "build_microbench_module",
    "build_spec_module",
    "geomean_slowdown",
    "lmbench_workload",
    "measure_all_spec_slowdowns",
    "measure_all_ticks",
    "measure_benchmark",
    "measure_benchmark_median",
    "measure_spec_slowdown",
    "measure_suite",
    "measure_throughput",
    "measure_ticks",
    "profile_workload",
]
