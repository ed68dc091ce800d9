"""Trace-driven cycle model: consumes interpreter events and accumulates a
cycle count, combining base instruction costs, BTB/RSB prediction,
per-defense flat charges (Table 1) and i-cache locality.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.cpu.btb import BTB
from repro.cpu.costs import DEFAULT_COSTS, CostModel, NONTRANSIENT_COSTS
from repro.cpu.icache import ICache
from repro.cpu.rsb import RSB
from repro.engine.trace import TraceSink
from repro.hardening.harden import applied_config
from repro.hardening.lowering import site_expansion_units
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import Module
from repro.ir.types import ATTR_VCALL, INSTRUCTION_SIZE_BYTES


def function_footprint_bytes(func: Function) -> int:
    """Lowered code footprint: IR size plus defense expansion."""
    units = func.size()
    for inst in func.instructions():
        if inst.attrs.get("defense") is not None:
            units += site_expansion_units(inst)
    return units * INSTRUCTION_SIZE_BYTES


#: Footprints shared by every TimingModel over the same module build —
#: keyed by module identity, discarded when ``module.version`` moves.
_FOOTPRINT_CACHE: "WeakKeyDictionary[Module, Tuple[int, Dict[str, int]]]" = (
    WeakKeyDictionary()
)


def _module_footprints(module: Module) -> Dict[str, int]:
    version = getattr(module, "version", 0)
    entry = _FOOTPRINT_CACHE.get(module)
    if entry is None or entry[0] != version:
        entry = (version, {})
        _FOOTPRINT_CACHE[module] = entry
    return entry[1]


def _footprint(module: Module, name: str) -> int:
    """Footprint of ``module``'s function ``name`` (an unknown name counts
    as one instruction), memoized per module version."""
    shared = _module_footprints(module)
    fp = shared.get(name)
    if fp is None:
        func = module.functions.get(name)
        fp = (
            INSTRUCTION_SIZE_BYTES
            if func is None
            else function_footprint_bytes(func)
        )
        shared[name] = fp
    return fp


class TimingModel(TraceSink):
    """Cycle-accounting trace sink.

    Parameters
    ----------
    module:
        The program being executed (provides defense config and function
        footprints).
    costs:
        Timing constants; defaults to the Table 1 calibration.
    model_icache:
        Disable to measure pure branch economics (used by the Table 1
        microbenchmarks, which run fully warm).
    """

    def __init__(
        self,
        module: Module,
        costs: CostModel = DEFAULT_COSTS,
        model_icache: bool = True,
    ) -> None:
        self.module = module
        self.costs = costs
        self.cycles = 0.0
        self.ops = 0
        config = applied_config(module)
        self._ambient = [
            NONTRANSIENT_COSTS[d] for d in sorted(
                config.nontransient, key=lambda d: d.value
            )
        ]
        self.btb = BTB()
        self.rsb = RSB()
        self.icache: Optional[ICache] = None
        if model_icache:
            # The callback closes over the module only: a bound method
            # would make every model a reference cycle through its cache.
            self.icache = ICache(
                footprint_of=functools.partial(_footprint, module),
                capacity_bytes=costs.icache_capacity_bytes,
                line_bytes=costs.icache_line_bytes,
                miss_base=costs.icache_miss_base,
                miss_per_line=costs.icache_miss_per_line,
                max_lines_charged=costs.icache_max_lines_charged,
            )
        self._tokens = itertools.count(1)
        self._call_stack: List[int] = []
        self.counters: Dict[str, int] = {
            "calls": 0,
            "icalls": 0,
            "rets": 0,
            "defended_icalls": 0,
            "defended_rets": 0,
            "ijumps": 0,
        }
        #: cycles charged purely for defense instrumentation, per tag —
        #: the quantity PIBE's elimination minimizes
        self.defense_cycles_charged: Dict[str, float] = {}

    def _charge_defense(self, tag: str) -> float:
        cost = self.costs.defense_cost(tag)
        self.defense_cycles_charged[tag] = (
            self.defense_cycles_charged.get(tag, 0.0) + cost
        )
        return cost

    @property
    def total_defense_cycles(self) -> float:
        return sum(self.defense_cycles_charged.values())

    # -- trace sink callbacks -----------------------------------------------

    def on_run_start(self, entry: str) -> None:
        self.ops += 1
        self.cycles += self.costs.kernel_entry
        token = next(self._tokens)
        self._call_stack.append(token)
        self.rsb.push(token)

    def on_run_end(self, entry: str) -> None:
        if self._call_stack:
            self._call_stack.pop()

    def on_enter(self, func: Function) -> None:
        if self.icache is not None:
            self.cycles += self.icache.enter(func.name)

    def on_mix(
        self, arith: int, load: int, store: int, cmp: int, fence: int, br: int
    ) -> None:
        c = self.costs
        self.cycles += (
            arith * c.arith
            + load * c.load
            + store * c.store
            + cmp * c.cmp
            + fence * c.fence
            + br * c.branch
        )

    def on_call(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        self.counters["calls"] += 1
        self.cycles += self.costs.call
        for ambient in self._ambient:
            self.cycles += ambient.dcall
        token = next(self._tokens)
        self._call_stack.append(token)
        self.rsb.push(token)

    def on_icall(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        self.counters["icalls"] += 1
        c = self.costs
        is_vcall = bool(inst.attrs.get(ATTR_VCALL))
        if is_vcall:
            self.cycles += c.vcall_extra_load
        tag = inst.attrs.get("defense")
        if tag is not None:
            self.counters["defended_icalls"] += 1
            # Defense inhibits target prediction: flat charge, no BTB.
            self.cycles += c.icall_predicted + self._charge_defense(tag)
        else:
            assert inst.site_id is not None
            if self.btb.access(inst.site_id, callee.name):
                self.cycles += c.icall_predicted
            else:
                self.cycles += c.icall_predicted + c.btb_miss
        for ambient in self._ambient:
            self.cycles += ambient.vcall if is_vcall else ambient.icall
        token = next(self._tokens)
        self._call_stack.append(token)
        self.rsb.push(token)

    def on_ret(self, inst: Instruction, func: Function) -> None:
        self.counters["rets"] += 1
        c = self.costs
        stack = self._call_stack
        actual = stack.pop() if stack else -1
        tag = inst.attrs.get("defense")
        if tag is not None:
            self.counters["defended_rets"] += 1
            # Defended returns do not consult the RSB for prediction; keep
            # the model's RSB in sync without scoring it.
            if self.rsb.depth:
                self.rsb.pop_silent()
            self.cycles += c.ret + self._charge_defense(tag)
        else:
            if self.rsb.pop_predict(actual):
                self.cycles += c.ret
            else:
                self.cycles += c.ret + c.rsb_miss

    def on_ijump(self, inst: Instruction, func: Function) -> None:
        self.counters["ijumps"] += 1
        c = self.costs
        tag = inst.attrs.get("defense")
        if tag is not None:
            self.cycles += c.ijump_predicted + self._charge_defense(tag)
        else:
            self.cycles += c.ijump_predicted
        # Jump-table dispatch includes the bounds check + table load in IR.

    # -- results ---------------------------------------------------------------

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.ops if self.ops else 0.0

    def __repr__(self) -> str:
        return (
            f"<TimingModel cycles={self.cycles:.0f} ops={self.ops} "
            f"per-op={self.cycles_per_op:.1f}>"
        )
