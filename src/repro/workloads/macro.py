"""Macrobenchmarks: Nginx, Apache and DBench throughput (paper Table 7).

Each application is modelled as a request/operation batch over the
synthetic kernel, weighted to match the app's character the paper
describes: Nginx is the lightweight event server (most kernel-bound, so
most sensitive to kernel defenses), Apache's MPM-event does more userspace
work per request (we add a userspace cycle allowance that dilutes kernel
overhead), and DBench is a tmpfs file-server mix.

Throughput is reported the way the paper does: requests/sec (or MB/sec),
with degradation expressed relative to the vanilla LTO baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.engine.names import DEFAULT_ENGINE
from repro.ir.module import Module
from repro.workloads.base import CLOCK_HZ, Benchmark, timing_sink_for


@dataclass(frozen=True)
class MacroBenchmark:
    """A throughput application model."""

    name: str
    #: kernel entries per reported unit of work (request / dbench op)
    batch: Benchmark
    #: units of work represented by one batch execution
    units_per_batch: float
    #: userspace cycles spent per unit (not subject to kernel hardening)
    userspace_cycles_per_unit: float
    #: throughput unit label
    unit: str


#: Nginx: 4-byte static page, sendfile-ish fast path, tiny userspace cost.
NGINX = MacroBenchmark(
    name="Nginx",
    batch=Benchmark(
        "nginx_batch",
        (
            ("recvfrom", 4),
            ("stat", 4),
            ("open", 1),
            ("read", 4),
            ("tcp", 4),
            ("select_tcp", 1),  # event-loop readiness scan
        ),
        default_ops=1,
    ),
    units_per_batch=4.0,
    userspace_cycles_per_unit=2_000.0,
    unit="req/sec",
)

#: Apache MPM-event: heavier userspace per request, extra logging write.
APACHE = MacroBenchmark(
    name="Apache",
    batch=Benchmark(
        "apache_batch",
        (
            ("recvfrom", 4),
            ("stat", 4),
            ("open", 1),
            ("read", 4),
            ("tcp", 4),
            ("write", 1),
        ),
        default_ops=1,
    ),
    units_per_batch=4.0,
    userspace_cycles_per_unit=9_000.0,
    unit="req/sec",
)

#: DBench on tmpfs: file-server operation mix, throughput in MB/sec.
DBENCH = MacroBenchmark(
    name="DBench",
    batch=Benchmark(
        "dbench_batch",
        (
            ("open", 2),
            ("read", 6),
            ("write", 6),
            ("stat", 3),
            ("fstat", 2),
            ("mmap", 1),
        ),
        default_ops=1,
    ),
    units_per_batch=1.0,
    userspace_cycles_per_unit=4_000.0,
    unit="MB/sec",
)

ALL_MACROBENCHMARKS = (NGINX, APACHE, DBENCH)


@dataclass
class ThroughputResult:
    app: str
    unit: str
    throughput: float
    kernel_cycles_per_unit: float
    userspace_cycles_per_unit: float

    def degradation_vs(self, baseline: "ThroughputResult") -> float:
        """Relative throughput change vs a baseline (negative = slower)."""
        if baseline.throughput == 0:
            return 0.0
        return self.throughput / baseline.throughput - 1.0


def measure_throughput(
    module: Module,
    app: MacroBenchmark,
    batches: int = 40,
    seed: int = 11,
    costs: CostModel = DEFAULT_COSTS,
    engine: str = DEFAULT_ENGINE,
) -> ThroughputResult:
    """Run the app model and convert cycles to units/sec throughput."""
    from repro.engine.compiled import create_interpreter

    timing = timing_sink_for(module, engine, costs=costs)
    interpreter = create_interpreter(module, [timing], seed=seed, engine=engine)
    for _ in range(batches):
        app.batch.run(interpreter, ops=1)
    kernel_per_unit = timing.cycles / (batches * app.units_per_batch)
    total_per_unit = kernel_per_unit + app.userspace_cycles_per_unit
    return ThroughputResult(
        app=app.name,
        unit=app.unit,
        throughput=CLOCK_HZ / total_per_unit,
        kernel_cycles_per_unit=kernel_per_unit,
        userspace_cycles_per_unit=app.userspace_cycles_per_unit,
    )
