"""Counting-mode cost model: cycles as a pure function of event counts.

The stateful :class:`~repro.cpu.timing.TimingModel` replays an execution
event by event, threading BTB/RSB/i-cache state through the stream — the
right model for studying predictor economics, but inherently sequential:
every event costs a Python callback. Counting mode is the measurement
contract of the vectorized engine (:mod:`repro.engine.vectorized`): all
predictors run *warm* (defended branches take their flat Table-1 charge,
undefended branches their predicted-hit cost, no i-cache), so total cycles
reduce to a dot product of integer event counts with per-bucket unit
costs.

Two producers feed the same accounting:

- :class:`CountingTimingModel` used as an ordinary trace sink (reference
  or compiled engine) increments one integer bucket per event;
- the vectorized engine accumulates per-superblock execution counts and
  delivers the very same integer buckets in one batch via
  :meth:`CountingTimingModel.absorb_counts`.

Because both paths produce identical integer :class:`CountSummary`
buckets and cycles are computed by the *single* canonical
:func:`counting_cycles` formula (fixed iteration order), the resulting
floats are bit-identical across engines — the property the differential
tests in ``tests/engine/test_vectorized.py`` pin.

A summary also carries three sparse *profile buckets* — per direct-call
site, per (indirect site, target) and per function — which the cost model
ignores. They let the vectorized engine deliver an edge profile to
:class:`~repro.profiling.profiler.KernelProfiler` in the same batch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.costs import DEFAULT_COSTS, NONTRANSIENT_COSTS, CostModel
from repro.engine.trace import TraceSink
from repro.hardening.harden import applied_config
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import Module
from repro.ir.types import ATTR_VCALL

#: Bucket key for an indirect call: ``(defense tag or None, is_vcall)``.
IcallKey = Tuple[Optional[str], bool]


class CountSummary:
    """Integer event totals of one (partial) execution.

    Everything a counting-mode measurement needs is here: straight-line
    instruction totals, control-flow event counts, and per-defense-tag
    breakdowns for indirect calls, returns and indirect jumps. Summaries
    add; they never carry floats.

    The profile buckets ``direct`` (call site id -> count), ``indirect``
    ((icall site id, target) -> count) and ``invocations`` (function name
    -> count) hold the call edges behind ``calls``, ``icalls`` and
    ``enters``. Only :meth:`add`, :meth:`add_scaled` and equality see
    them; cycles, counters, event totals and :meth:`as_dict` do not.
    """

    __slots__ = (
        "ops",
        "enters",
        "arith",
        "load",
        "store",
        "cmp",
        "fence",
        "br",
        "calls",
        "icalls",
        "rets",
        "ijumps",
        "direct",
        "indirect",
        "invocations",
    )

    def __init__(self) -> None:
        self.ops = 0
        self.enters = 0
        self.arith = 0
        self.load = 0
        self.store = 0
        self.cmp = 0
        self.fence = 0
        self.br = 0
        self.calls = 0
        self.icalls: Dict[IcallKey, int] = {}
        self.rets: Dict[Optional[str], int] = {}
        self.ijumps: Dict[Optional[str], int] = {}
        self.direct: Dict[int, int] = {}
        self.indirect: Dict[Tuple[int, str], int] = {}
        self.invocations: Dict[str, int] = {}

    # -- algebra -----------------------------------------------------------

    def add(self, other: "CountSummary") -> None:
        self.ops += other.ops
        self.enters += other.enters
        self.arith += other.arith
        self.load += other.load
        self.store += other.store
        self.cmp += other.cmp
        self.fence += other.fence
        self.br += other.br
        self.calls += other.calls
        for key, n in other.icalls.items():
            self.icalls[key] = self.icalls.get(key, 0) + n
        for tag, n in other.rets.items():
            self.rets[tag] = self.rets.get(tag, 0) + n
        for tag, n in other.ijumps.items():
            self.ijumps[tag] = self.ijumps.get(tag, 0) + n
        self.add_profile(other, 1)

    def add_scaled(self, other: "CountSummary", k: int) -> None:
        """Accumulate ``k`` executions' worth of ``other`` — the pure-python
        half of the vectorized engine's count flush."""
        self.ops += other.ops * k
        self.enters += other.enters * k
        self.arith += other.arith * k
        self.load += other.load * k
        self.store += other.store * k
        self.cmp += other.cmp * k
        self.fence += other.fence * k
        self.br += other.br * k
        self.calls += other.calls * k
        for key, n in other.icalls.items():
            self.icalls[key] = self.icalls.get(key, 0) + n * k
        for tag, n in other.rets.items():
            self.rets[tag] = self.rets.get(tag, 0) + n * k
        for tag, n in other.ijumps.items():
            self.ijumps[tag] = self.ijumps.get(tag, 0) + n * k
        self.add_profile(other, k)

    def add_profile(self, other: "CountSummary", k: int) -> None:
        """Accumulate ``k`` times ``other``'s profile buckets only."""
        for site, n in other.direct.items():
            self.direct[site] = self.direct.get(site, 0) + n * k
        for edge, n in other.indirect.items():
            self.indirect[edge] = self.indirect.get(edge, 0) + n * k
        for name, n in other.invocations.items():
            self.invocations[name] = self.invocations.get(name, 0) + n * k

    # -- views -------------------------------------------------------------

    @property
    def instructions(self) -> int:
        """Straight-line instructions executed (mix totals)."""
        return (
            self.arith + self.load + self.store + self.cmp + self.fence
            + self.br
        )

    def total_events(self) -> int:
        """The engine's unit of work: every simulated instruction and
        control-flow event, regardless of how it was delivered."""
        return (
            self.ops
            + self.enters
            + self.instructions
            + self.calls
            + sum(self.icalls.values())
            + sum(self.rets.values())
            + sum(self.ijumps.values())
        )

    def counters(self) -> Dict[str, int]:
        """The :class:`~repro.cpu.timing.TimingModel`-compatible counter
        dict (calls/icalls/rets/defended_*/ijumps)."""
        icalls = sum(self.icalls.values())
        defended_icalls = sum(
            n for (tag, _), n in self.icalls.items() if tag is not None
        )
        rets = sum(self.rets.values())
        defended_rets = sum(
            n for tag, n in self.rets.items() if tag is not None
        )
        return {
            "calls": self.calls,
            "icalls": icalls,
            "rets": rets,
            "defended_icalls": defended_icalls,
            "defended_rets": defended_rets,
            "ijumps": sum(self.ijumps.values()),
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (tag keys flattened) for bench records."""
        return {
            "ops": self.ops,
            "enters": self.enters,
            "arith": self.arith,
            "load": self.load,
            "store": self.store,
            "cmp": self.cmp,
            "fence": self.fence,
            "br": self.br,
            "calls": self.calls,
            "icalls": {
                f"{tag or '-'}|{'v' if vcall else 'i'}": n
                for (tag, vcall), n in sorted(
                    self.icalls.items(), key=lambda kv: str(kv[0])
                )
            },
            "rets": {
                tag or "-": n for tag, n in sorted(
                    self.rets.items(), key=lambda kv: str(kv[0])
                )
            },
            "ijumps": {
                tag or "-": n for tag, n in sorted(
                    self.ijumps.items(), key=lambda kv: str(kv[0])
                )
            },
            "total_events": self.total_events(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSummary):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in CountSummary.__slots__
        )

    def __repr__(self) -> str:
        return (
            f"<CountSummary ops={self.ops} events={self.total_events()}>"
        )


def ambient_costs(module: Module):
    """The module's classical-defense ambient cost rows, in the same
    canonical order :class:`~repro.cpu.timing.TimingModel` charges them."""
    config = applied_config(module)
    return [
        NONTRANSIENT_COSTS[d]
        for d in sorted(config.nontransient, key=lambda d: d.value)
    ]


def defense_cycles_charged(
    summary: CountSummary, costs: CostModel
) -> Dict[str, float]:
    """Per-tag defense instrumentation cycles — the quantity PIBE's
    elimination minimizes — as ``count x flat cost``."""
    per_tag: Dict[str, int] = {}
    for (tag, _), n in summary.icalls.items():
        if tag is not None:
            per_tag[tag] = per_tag.get(tag, 0) + n
    for tag, n in summary.rets.items():
        if tag is not None:
            per_tag[tag] = per_tag.get(tag, 0) + n
    for tag, n in summary.ijumps.items():
        if tag is not None:
            per_tag[tag] = per_tag.get(tag, 0) + n
    return {
        tag: per_tag[tag] * costs.defense_cost(tag)
        for tag in sorted(per_tag)
    }


def counting_cycles(
    summary: CountSummary, costs: CostModel, ambient
) -> float:
    """The canonical counting-mode cycle formula.

    Every counting-mode consumer — the sink accumulating events one by
    one and the vectorized engine delivering batched totals — computes
    cycles through this one function, so identical integer summaries
    yield bit-identical floats. Iteration over tag buckets is in sorted
    order for the same reason: float addition is not associative.
    """
    c = costs
    cycles = summary.ops * c.kernel_entry
    cycles += (
        summary.arith * c.arith
        + summary.load * c.load
        + summary.store * c.store
        + summary.cmp * c.cmp
        + summary.fence * c.fence
        + summary.br * c.branch
    )
    dcall_ambient = sum(a.dcall for a in ambient)
    icall_ambient = sum(a.icall for a in ambient)
    vcall_ambient = sum(a.vcall for a in ambient)
    cycles += summary.calls * (c.call + dcall_ambient)
    for (tag, vcall), n in sorted(
        summary.icalls.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
    ):
        unit = c.icall_predicted
        if vcall:
            unit += c.vcall_extra_load + vcall_ambient
        else:
            unit += icall_ambient
        if tag is not None:
            unit += c.defense_cost(tag)
        cycles += n * unit
    for tag, n in sorted(summary.rets.items(), key=lambda kv: str(kv[0])):
        unit = c.ret
        if tag is not None:
            unit += c.defense_cost(tag)
        cycles += n * unit
    for tag, n in sorted(summary.ijumps.items(), key=lambda kv: str(kv[0])):
        unit = c.ijump_predicted
        if tag is not None:
            unit += c.defense_cost(tag)
        cycles += n * unit
    return cycles


class CountingTimingModel(TraceSink):
    """Counting-mode cycle accounting, usable under any engine.

    As a plain trace sink (reference/compiled engines) it tallies one
    integer bucket per event. Under the vectorized engine it additionally
    receives batched :class:`CountSummary` deltas through
    :meth:`absorb_counts`; the engine binds :meth:`bind_flush` so reads
    of :attr:`cycles`/:attr:`counters` first drain any counts still held
    in the engine's vectors. The two delivery paths mix freely (the
    engine falls back to per-event delivery for behavior the vector path
    cannot express) and always sum to the same totals.
    """

    #: Marks this sink as able to consume batched count summaries — the
    #: vectorized engine's condition for keeping its vector path enabled.
    supports_counts = True

    def __init__(
        self, module: Module, costs: CostModel = DEFAULT_COSTS
    ) -> None:
        self.module = module
        self.costs = costs
        self.summary = CountSummary()
        self._ambient = ambient_costs(module)
        self._flush: Optional[Callable[[], None]] = None

    # -- batched delivery (vectorized engine) ------------------------------

    def bind_flush(self, flush: Callable[[], None]) -> None:
        """Called by the vectorized engine so property reads can drain
        counts still sitting in the engine's accumulators."""
        self._flush = flush

    def absorb_counts(self, summary: CountSummary) -> None:
        self.summary.add(summary)

    def _drain(self) -> None:
        if self._flush is not None:
            self._flush()

    # -- per-event delivery (reference/compiled engines, fallbacks) --------

    def on_run_start(self, entry: str) -> None:
        self.summary.ops += 1

    def on_enter(self, func: Function) -> None:
        self.summary.enters += 1

    def on_mix(
        self, arith: int, load: int, store: int, cmp: int, fence: int, br: int
    ) -> None:
        s = self.summary
        s.arith += arith
        s.load += load
        s.store += store
        s.cmp += cmp
        s.fence += fence
        s.br += br

    def on_call(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        self.summary.calls += 1

    def on_icall(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        key = (inst.attrs.get("defense"), bool(inst.attrs.get(ATTR_VCALL)))
        icalls = self.summary.icalls
        icalls[key] = icalls.get(key, 0) + 1

    def on_ret(self, inst: Instruction, func: Function) -> None:
        tag = inst.attrs.get("defense")
        rets = self.summary.rets
        rets[tag] = rets.get(tag, 0) + 1

    def on_ijump(self, inst: Instruction, func: Function) -> None:
        tag = inst.attrs.get("defense")
        ijumps = self.summary.ijumps
        ijumps[tag] = ijumps.get(tag, 0) + 1

    # -- results -----------------------------------------------------------

    @property
    def ops(self) -> int:
        self._drain()
        return self.summary.ops

    @property
    def cycles(self) -> float:
        self._drain()
        return counting_cycles(self.summary, self.costs, self._ambient)

    @property
    def cycles_per_op(self) -> float:
        ops = self.ops
        return self.cycles / ops if ops else 0.0

    @property
    def counters(self) -> Dict[str, int]:
        self._drain()
        return self.summary.counters()

    @property
    def defense_cycles_charged(self) -> Dict[str, float]:
        self._drain()
        return defense_cycles_charged(self.summary, self.costs)

    @property
    def total_defense_cycles(self) -> float:
        charged = self.defense_cycles_charged
        return sum(charged[tag] for tag in sorted(charged))

    @property
    def total_events(self) -> int:
        self._drain()
        return self.summary.total_events()

    def __repr__(self) -> str:
        return (
            f"<CountingTimingModel cycles={self.cycles:.0f} "
            f"ops={self.ops} events={self.total_events}>"
        )
