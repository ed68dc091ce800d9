"""Workload/benchmark abstractions.

A :class:`Benchmark` is one latency measurement: a fixed sequence of kernel
entry invocations constituting a single *operation* (e.g. one pipe
ping-pong). A :class:`Workload` is a weighted mix of benchmarks used for
profiling (the paper's LMBench and ApacheBench training workloads).

``measure_benchmark`` runs a benchmark against a (possibly hardened)
module under the timing model and reports per-operation latency;
``profile_workload`` runs a workload against a profiling build and
returns the merged edge profile (the paper merges 11 iterations),
counting call edges on the vectorized engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.cpu.counting import CountingTimingModel
from repro.cpu.timing import TimingModel
from repro.engine.compiled import DEFAULT_ENGINE, create_interpreter
from repro.engine.interpreter import ExecutionLimits, Interpreter
from repro.ir.module import Module
from repro.profiling.profile_data import EdgeProfile
from repro.profiling.profiler import KernelProfiler

#: Nominal clock for converting cycles to wall time (Skylake-ish 3.7 GHz).
CLOCK_HZ = 3.7e9


@dataclass(frozen=True)
class Benchmark:
    """One latency benchmark.

    ``syscalls`` lists (entry name, invocations) making up a single
    operation; ``default_ops`` controls how many operations a measurement
    runs (heavier benches run fewer).
    """

    name: str
    syscalls: Tuple[Tuple[str, int], ...]
    default_ops: int = 200

    def run(
        self,
        interpreter: Interpreter,
        ops: Optional[int] = None,
    ) -> int:
        """Execute ``ops`` operations; returns the operation count."""
        count = ops if ops is not None else self.default_ops
        for _ in range(count):
            for syscall, times in self.syscalls:
                interpreter.run_syscall(syscall, times=times)
        return count

    @property
    def entries_per_op(self) -> int:
        return sum(times for _, times in self.syscalls)


@dataclass(frozen=True)
class Workload:
    """A named mix of benchmarks used as a profiling input."""

    name: str
    components: Tuple[Tuple[Benchmark, int], ...]  # (bench, ops)


@dataclass
class BenchResult:
    """Outcome of one benchmark measurement."""

    benchmark: str
    ops: int
    cycles: float
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.ops if self.ops else 0.0

    @property
    def latency_us(self) -> float:
        return self.cycles_per_op / CLOCK_HZ * 1e6

    @property
    def ops_per_sec(self) -> float:
        return CLOCK_HZ / self.cycles_per_op if self.cycles else 0.0


def timing_sink_for(
    module: Module,
    engine: str,
    costs: CostModel = DEFAULT_COSTS,
    model_icache: bool = True,
):
    """The cycle-accounting sink matching an engine's measurement mode.

    The vectorized engine measures in *counting mode* (warm predictors,
    purely additive charges — see :mod:`repro.cpu.counting`); pairing it
    with the stateful :class:`TimingModel` would silently fall back to
    event-by-event replay and forfeit the speedup. The reference and
    compiled engines keep the stateful model. Counting-mode cycle totals
    are a different (coarser) measurement semantics, so results from
    different engines must never be mixed within one comparison — the
    harness bakes ``engine`` into every cache key for exactly this
    reason.
    """
    if engine == "vectorized":
        return CountingTimingModel(module, costs=costs)
    return TimingModel(module, costs=costs, model_icache=model_icache)


def measure_benchmark(
    module: Module,
    bench: Benchmark,
    ops: Optional[int] = None,
    seed: int = 7,
    costs: CostModel = DEFAULT_COSTS,
    model_icache: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> BenchResult:
    """Run one benchmark under the cycle model and report latency."""
    timing = timing_sink_for(
        module, engine, costs=costs, model_icache=model_icache
    )
    interpreter = create_interpreter(module, [timing], seed=seed, engine=engine)
    count = bench.run(interpreter, ops=ops)
    return BenchResult(
        benchmark=bench.name,
        ops=count,
        cycles=timing.cycles,
        counters=dict(timing.counters),
    )


def measure_benchmark_median(
    module: Module,
    bench: Benchmark,
    rounds: int = 5,
    ops: Optional[int] = None,
    seed: int = 7,
    costs: CostModel = DEFAULT_COSTS,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[BenchResult, float]:
    """Median-of-rounds measurement (the paper reports medians over 11
    runs, Section 8).

    Each round uses a distinct seed (distinct stochastic path choices —
    the model's analogue of run-to-run variance). Returns the median
    round's result and the relative spread ``(max - min) / median``.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    results = [
        measure_benchmark(
            module, bench, ops=ops, seed=seed + i, costs=costs, engine=engine
        )
        for i in range(rounds)
    ]
    results.sort(key=lambda r: r.cycles_per_op)
    median = results[len(results) // 2]
    spread = (
        (results[-1].cycles_per_op - results[0].cycles_per_op)
        / median.cycles_per_op
        if median.cycles_per_op
        else 0.0
    )
    return median, spread


def measure_suite(
    module: Module,
    benches: Sequence[Benchmark],
    ops_scale: float = 1.0,
    seed: int = 7,
    costs: CostModel = DEFAULT_COSTS,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, BenchResult]:
    """Measure every benchmark in a suite; returns name -> result."""
    results: Dict[str, BenchResult] = {}
    for bench in benches:
        ops = max(1, int(bench.default_ops * ops_scale))
        results[bench.name] = measure_benchmark(
            module, bench, ops=ops, seed=seed, costs=costs, engine=engine
        )
    return results


def profile_workload(
    module: Module,
    workload: Workload,
    iterations: int = 11,
    seed: int = 3,
    ops_scale: float = 1.0,
    lbr_capacity: int = 32,
    engine: str = DEFAULT_ENGINE,
) -> EdgeProfile:
    """Collect and merge edge profiles over ``iterations`` workload runs.

    An edge profile is a sum of call-edge counts, so it fits the
    vectorized engine's counting contract: every engine but
    ``reference`` (the event-by-event oracle) collects it there. Every
    engine yields the same profile per seed.
    """
    if engine == "compiled":
        engine = "vectorized"
    merged = EdgeProfile(workload=workload.name)
    for i in range(iterations):
        profiler = KernelProfiler(
            workload=workload.name, lbr_capacity=lbr_capacity
        )
        interpreter = create_interpreter(
            module,
            [profiler],
            seed=seed + i,
            limits=ExecutionLimits(max_steps=50_000_000),
            engine=engine,
        )
        for bench, ops in workload.components:
            bench.run(interpreter, ops=max(1, int(ops * ops_scale)))
        merged.merge(profiler.finish())
    return merged
