"""SPEC CPU2006-like userspace suite (paper Table 1, right column).

Eight synthetic components with the call-profile character of familiar
SPEC benchmarks: C components are direct-call and branch heavy, C++
components (omnetpp, xalancbmk, povray stand-ins) are virtual-dispatch
heavy, mcf/libquantum stand-ins are memory/arith loops with few calls.
Per-defense slowdown is the geometric mean across components — the number
the paper uses to justify focusing on transient defenses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.cpu.timing import TimingModel
from repro.engine.compiled import create_interpreter
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.types import FunctionAttr
from repro.kernel.helpers import define, leaf, ops_table


@dataclass(frozen=True)
class SpecComponent:
    """Shape of one synthetic SPEC component's inner loop."""

    name: str
    arith: int
    loads: int
    stores: int
    dcalls: int
    icalls: int
    vcalls: int
    inner_trips: int = 8


#: Component mix: call densities chosen to reproduce Table 1's ordering
#: (LVI > ret-retpolines > retpolines on SPEC).
SPEC_COMPONENTS: Tuple[SpecComponent, ...] = (
    SpecComponent("perlbench", arith=90, loads=25, stores=10, dcalls=3, icalls=2, vcalls=0),
    SpecComponent("gcc", arith=110, loads=30, stores=12, dcalls=3, icalls=1, vcalls=0),
    SpecComponent("mcf", arith=60, loads=45, stores=8, dcalls=1, icalls=0, vcalls=0),
    SpecComponent("sjeng", arith=120, loads=25, stores=10, dcalls=2, icalls=1, vcalls=0),
    SpecComponent("libquantum", arith=150, loads=30, stores=12, dcalls=0, icalls=0, vcalls=0),
    SpecComponent("omnetpp", arith=70, loads=25, stores=8, dcalls=2, icalls=0, vcalls=5),
    SpecComponent("xalancbmk", arith=80, loads=28, stores=9, dcalls=2, icalls=0, vcalls=4),
    SpecComponent("povray", arith=100, loads=22, stores=8, dcalls=2, icalls=0, vcalls=3),
)


def build_spec_module(
    components: Tuple[SpecComponent, ...] = SPEC_COMPONENTS,
) -> Module:
    """Construct the userspace suite as one module with an entry per
    component (``run_<name>``)."""
    module = Module(name="spec2006")

    # Shared callees: small helpers and a virtual-method cluster.
    leaf(module, "spec_helper_a", "spec", work=3, loads=1, stores=1, params=2)
    leaf(module, "spec_helper_b", "spec", work=4, loads=2, stores=1, params=2)
    leaf(module, "spec_helper_c", "spec", work=2, loads=1, stores=0, params=1)
    for m in ("area", "transform", "visit"):
        leaf(module, f"vmethod_{m}", "spec", work=3, loads=2, stores=1, params=2)
    ops_table(
        module, "spec_vtable", [f"vmethod_{m}" for m in ("area", "transform", "visit")]
    )
    leaf(module, "fnptr_cb_a", "spec", work=3, loads=1, stores=1, params=1)
    leaf(module, "fnptr_cb_b", "spec", work=2, loads=1, stores=1, params=1)
    ops_table(module, "spec_callbacks", ["fnptr_cb_a", "fnptr_cb_b"])

    helpers = ("spec_helper_a", "spec_helper_b", "spec_helper_c")
    for comp in components:
        # Exported program entry points (kept as roots by dead-code
        # elimination, like the kernel's syscall handlers).
        body = define(
            module,
            f"run_{comp.name}",
            "spec",
            params=1,
            frame=64,
            attrs=[FunctionAttr.SYSCALL_ENTRY],
        )

        def inner(b, comp=comp):
            b.work(arith=comp.arith, loads=comp.loads, stores=comp.stores)
            for i in range(comp.dcalls):
                b.call(helpers[i % len(helpers)], args=2)
            for _ in range(comp.icalls):
                b.icall(
                    {"fnptr_cb_a": 3, "fnptr_cb_b": 1},
                    args=1,
                    table="spec_callbacks",
                )
            for j in range(comp.vcalls):
                method = ("area", "transform", "visit")[j % 3]
                b.icall(
                    {f"vmethod_{method}": 1},
                    args=2,
                    table="spec_vtable",
                    vcall=True,
                )

        body.loop(comp.inner_trips, inner)
        body.done()
    return module


def measure_spec_slowdown(
    config: DefenseConfig,
    iterations: int = 60,
    costs: CostModel = DEFAULT_COSTS,
    components: Tuple[SpecComponent, ...] = SPEC_COMPONENTS,
    baselines: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-component slowdown (fraction) of ``config`` vs uninstrumented.

    ``baselines`` lets a caller measuring several configs with the same
    ``iterations``, ``costs`` and ``components`` measure each component's
    unhardened baseline once: it maps a component name to its baseline
    cycles and is filled on first use.
    """
    costs = dataclasses.replace(costs, kernel_entry=0.0)
    baseline_module = build_spec_module(components)
    hardened_module = clone_module(baseline_module)
    HardeningPass(config).run(hardened_module)
    hardened_module.bump_version()
    if baselines is None:
        baselines = {}

    slowdowns: Dict[str, float] = {}
    for comp in components:
        entry = f"run_{comp.name}"
        base = baselines.get(comp.name)
        if base is None:
            timing = TimingModel(
                baseline_module, costs=costs, model_icache=False
            )
            create_interpreter(baseline_module, [timing], seed=9).run_function(
                entry, times=iterations
            )
            base = baselines[comp.name] = timing.cycles
        hard = TimingModel(hardened_module, costs=costs, model_icache=False)
        create_interpreter(hardened_module, [hard], seed=9).run_function(
            entry, times=iterations
        )
        slowdowns[comp.name] = hard.cycles / base - 1.0
    return slowdowns


def measure_all_spec_slowdowns(
    configs: Dict[str, DefenseConfig],
    iterations: int = 60,
) -> Dict[str, Dict[str, float]]:
    """Config label -> per-component slowdown (Table 1 right side),
    measuring each component's unhardened baseline once."""
    baselines: Dict[str, float] = {}
    return {
        label: measure_spec_slowdown(
            config, iterations=iterations, baselines=baselines
        )
        for label, config in configs.items()
    }


def geomean_slowdown(slowdowns: Dict[str, float]) -> float:
    """Geometric-mean slowdown over components (paper's cpu2006 column)."""
    product = 1.0
    for value in slowdowns.values():
        product *= 1.0 + value
    return product ** (1.0 / len(slowdowns)) - 1.0 if slowdowns else 0.0
