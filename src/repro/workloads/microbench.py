"""Branch-cost microbenchmarks (paper Table 1, left columns).

Measures the per-branch tick overhead of each defense exactly the way the
paper does: a tight loop calling an empty function through a direct call,
an indirect call, or a virtual call (with the target unpredictable), run
once uninstrumented and once per defense configuration; the difference in
cycles per iteration is the reported overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.cpu.timing import TimingModel
from repro.engine.compiled import create_interpreter
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_module
from repro.ir.function import Function
from repro.ir.module import FunctionPointerTable, Module
from repro.ir.types import FunctionAttr

CALL_KINDS = ("dcall", "icall", "vcall")

#: iterations per measurement loop
DEFAULT_ITERATIONS = 2000


def build_microbench_module(kind: str) -> Module:
    """A userspace module: ``driver`` invokes an empty callee ``kind``-style
    once per invocation (two alternating callees keep the target
    unpredictable for icall/vcall, as in the paper's setup)."""
    if kind not in CALL_KINDS:
        raise ValueError(f"kind must be one of {CALL_KINDS}, got {kind!r}")
    module = Module(name=f"microbench-{kind}")

    for name in ("empty_a", "empty_b"):
        callee = Function(name, num_params=0, subsystem="micro")
        IRBuilder(callee).ret()
        module.add_function(callee)
    module.add_fptr_table(
        FunctionPointerTable("micro_targets", ["empty_a", "empty_b"])
    )

    # The measurement loop itself lives in the (uninstrumented) benchmark
    # harness in the paper's setup; BOOT_ONLY exempts the driver's own
    # return from backward-edge hardening the same way.
    driver = Function(
        "driver",
        num_params=0,
        subsystem="micro",
        attrs={FunctionAttr.BOOT_ONLY},
    )
    b = IRBuilder(driver)
    if kind == "dcall":
        b.call("empty_a", num_args=0)
    else:
        # Single runtime target: the overheads of Table 1 are defined
        # relative to a warm, predicted baseline in our cost model (the
        # per-defense constants already price in the loss of prediction).
        b.icall(
            {"empty_a": 1},
            num_args=0,
            fptr_table="micro_targets",
            vcall=(kind == "vcall"),
        )
    b.ret()
    module.add_function(driver)
    return module


def _measure_cycles(
    module: Module, iterations: int, costs: CostModel
) -> float:
    timing = TimingModel(module, costs=costs, model_icache=False)
    create_interpreter(module, [timing], seed=5).run_function(
        "driver", times=iterations
    )
    return timing.cycles


def measure_ticks(
    config: DefenseConfig,
    kind: str,
    iterations: int = DEFAULT_ITERATIONS,
    costs: CostModel = DEFAULT_COSTS,
    baselines: Optional[Dict[str, float]] = None,
) -> float:
    """Per-call tick overhead of ``config`` for one call kind.

    ``baselines`` lets a caller measuring several configs with the same
    ``iterations`` and ``costs`` measure each kind's unhardened baseline
    once: it maps a kind to its baseline cycles and is filled on first
    use.
    """
    # Userspace measurement: no kernel entry charge.
    costs = dataclasses.replace(costs, kernel_entry=0.0)
    baseline_module = build_microbench_module(kind)
    if baselines is None:
        baselines = {}
    baseline = baselines.get(kind)
    if baseline is None:
        baseline = baselines[kind] = _measure_cycles(
            baseline_module, iterations, costs
        )

    hardened_module = clone_module(baseline_module)
    HardeningPass(config).run(hardened_module)
    hardened_module.bump_version()
    hardened = _measure_cycles(hardened_module, iterations, costs)
    return (hardened - baseline) / iterations


def measure_all_ticks(
    configs: Dict[str, DefenseConfig],
    iterations: int = DEFAULT_ITERATIONS,
) -> Dict[str, Dict[str, float]]:
    """Config label -> {dcall/icall/vcall -> ticks} (Table 1 left side),
    measuring each kind's unhardened baseline once."""
    baselines: Dict[str, float] = {}
    return {
        label: {
            kind: measure_ticks(
                config, kind, iterations=iterations, baselines=baselines
            )
            for kind in CALL_KINDS
        }
        for label, config in configs.items()
    }
