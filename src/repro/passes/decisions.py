"""The virtual decision space behind the decision/transform split.

The PIBE inliner and the default inliner are greedy policies over a small
set of per-function facts: the ordered call descriptors of every block,
profile weights, InlineCost, recursion/inlinability flags. None of those
facts require real IR to evaluate — so the decision phase of an inline
pass runs against a :class:`VirtualSpace`, a lightweight shadow of the
module holding exactly those facts, and emits an ordered
:class:`InlinePlan` of :class:`InlineStep` records. The apply phase
(:func:`repro.passes.inliner.apply_inline_steps`) replays the steps
against the real module with the real ``inline_call`` machinery, in the
exact order the policy decided them, so global id/serial allocation — and
therefore the output IR — is the same wherever a plan is applied: an
inliner's ``run`` (planned against :meth:`VirtualSpace.from_module`) and
the delta prefix engine (planned against a space over a shared basis)
produce bit-identical modules.

Virtual functions track only call descriptors (``VirtualSite``); plain
instructions participate solely through the precomputed ``base_cost`` and
the exact per-splice cost delta. A virtual splice mirrors
``inline_call``: the consumed site's block is truncated, the callee's
call descriptors are cloned (in callee body order) into appended blocks,
and the post-call descriptors move to an appended continuation —
preserving the program order a rescan or re-queue observes. Clones
receive fresh *negative* ids so they can never collide with real site
ids; the plan records the (clone, source) pairing that lets the replay
resolve each virtual id to the real site id minted by ``inline_call``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import ATTR_EDGE_COUNT, FunctionAttr, Opcode
from repro.passes.inline_cost import (
    STANDARD_INSTRUCTION_COST,
    instruction_cost,
)


class SiteSeed(NamedTuple):
    """Immutable descriptor of one real call instruction."""

    site_id: int
    opcode: Opcode
    callee: Optional[str]
    weight: int
    has_weight: bool
    num_args: int


@dataclass(frozen=True)
class FunctionSeed:
    """Everything the inline policies can observe about one function.

    ``blocks`` holds only blocks that contain at least one call
    descriptor; dropping empty blocks is safe because both policies only
    ever order decisions by the per-block call lists in block order.
    """

    name: str
    blocks: Tuple[Tuple[SiteSeed, ...], ...]
    calls_self: bool
    returns_count: int
    base_cost: int
    is_inlinable: bool
    is_optnone: bool
    subsystem: str


def seed_function(func: Function) -> FunctionSeed:
    """Scan one real function into its decision-phase summary."""
    blocks: List[Tuple[SiteSeed, ...]] = []
    calls_self = False
    returns_count = 0
    cost = 0
    for block in func.blocks.values():
        sites: List[SiteSeed] = []
        for inst in block.instructions:
            cost += instruction_cost(inst)
            if inst.opcode == Opcode.RET:
                returns_count += 1
            if inst.is_call:
                assert inst.site_id is not None
                weight = inst.attrs.get(ATTR_EDGE_COUNT)
                sites.append(
                    SiteSeed(
                        site_id=inst.site_id,
                        opcode=inst.opcode,
                        callee=inst.callee,
                        weight=0 if weight is None else weight,
                        has_weight=weight is not None,
                        num_args=inst.num_args,
                    )
                )
                if inst.opcode == Opcode.CALL and inst.callee == func.name:
                    calls_self = True
        if sites:
            blocks.append(tuple(sites))
    return FunctionSeed(
        name=func.name,
        blocks=tuple(blocks),
        calls_self=calls_self,
        returns_count=returns_count,
        base_cost=cost,
        is_inlinable=func.is_inlinable,
        is_optnone=func.has_attr(FunctionAttr.OPTNONE),
        subsystem=func.subsystem,
    )


class VirtualSite:
    """A mutable call descriptor inside the virtual space.

    ``vid`` equals the real site id for descriptors seeded from the
    module and is a fresh negative integer for virtual clones.
    """

    __slots__ = (
        "vid",
        "opcode",
        "callee",
        "weight",
        "has_weight",
        "num_args",
        "consumed",
        "block",
    )

    def __init__(
        self,
        vid: int,
        opcode: Opcode,
        callee: Optional[str],
        weight: int,
        has_weight: bool,
        num_args: int,
    ) -> None:
        self.vid = vid
        self.opcode = opcode
        self.callee = callee
        self.weight = weight
        self.has_weight = has_weight
        self.num_args = num_args
        self.consumed = False
        self.block: List["VirtualSite"] = []


class VirtualFunction:
    """One function's mutable call-descriptor CFG plus dynamic flags."""

    __slots__ = ("name", "blocks", "calls_self", "seed")

    def __init__(self, seed: FunctionSeed) -> None:
        self.name = seed.name
        self.blocks: List[List[VirtualSite]] = []
        self.calls_self = seed.calls_self
        self.seed = seed


@dataclass
class InlineStep:
    """One committed inline decision, in policy order.

    ``clones`` pairs each virtual clone id with the id of the callee
    descriptor it was cloned from, so the replay can chase
    ``InlineResult.new_call_sites`` and bind clone vids to the real site
    ids ``inline_call`` mints. ``ratio`` carries the PIBE inliner's
    constant-ratio inheritance factor (``None`` for the default inliner,
    which copies clone counts verbatim).
    """

    caller: str
    vid: int
    callee: str
    weight: int = 0
    invocations: int = 0
    ratio: Optional[float] = None
    clones: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class InlinePlan:
    """Ordered inline decisions plus the report the policy computed."""

    steps: List[InlineStep] = field(default_factory=list)
    report: object = None

    @property
    def touched_callers(self) -> frozenset:
        return frozenset(s.caller for s in self.steps)


class VirtualSpace:
    """A decision-phase shadow of one module.

    Functions materialize lazily from ``seed_fn`` (typically a mix of a
    shared per-profile seed cache for untouched functions and fresh scans
    for ICP-touched ones). All mutation happens through :meth:`splice`,
    which mirrors ``inline_call``'s effect on call-descriptor order.
    """

    def __init__(
        self,
        names: List[str],
        seed_fn: Callable[[str], FunctionSeed],
    ) -> None:
        self._names = list(names)
        self._present = set(self._names)
        self._seed_fn = seed_fn
        self._seeds: Dict[str, FunctionSeed] = {}
        self._functions: Dict[str, VirtualFunction] = {}
        self._sites: Dict[int, VirtualSite] = {}
        self._cost_deltas: Dict[str, int] = {}
        self._next_clone_vid = -1

    @classmethod
    def from_module(cls, module: Module) -> "VirtualSpace":
        """A space seeded by scanning ``module`` itself, function by
        function on first use — what the inliners' single-pass ``run``
        plans against."""
        return cls(
            list(module.functions),
            lambda name: seed_function(module.functions[name]),
        )

    # -- function access -----------------------------------------------------

    def has_function(self, name: str) -> bool:
        return name in self._present

    def seed(self, name: str) -> FunctionSeed:
        seed = self._seeds.get(name)
        if seed is None:
            seed = self._seed_fn(name)
            self._seeds[name] = seed
        return seed

    def function(self, name: str) -> Optional[VirtualFunction]:
        vf = self._functions.get(name)
        if vf is not None:
            return vf
        if name not in self._present:
            return None
        seed = self.seed(name)
        vf = VirtualFunction(seed)
        for block_seed in seed.blocks:
            block: List[VirtualSite] = []
            for s in block_seed:
                site = VirtualSite(
                    vid=s.site_id,
                    opcode=s.opcode,
                    callee=s.callee,
                    weight=s.weight,
                    has_weight=s.has_weight,
                    num_args=s.num_args,
                )
                site.block = block
                block.append(site)
                self._sites[site.vid] = site
            vf.blocks.append(block)
        self._functions[name] = vf
        return vf

    def is_recursive(self, name: str) -> bool:
        """Mirrors ``Function.is_recursive()``: a direct self-call exists.

        Self-calls are never consumed (both policies block them), so the
        flag only ever turns on — when a splice clones a call to the
        caller into the caller itself.
        """
        vf = self._functions.get(name)
        if vf is not None:
            return vf.calls_self
        return self.seed(name).calls_self

    # -- cost model ----------------------------------------------------------

    def cost(self, name: str) -> int:
        """Exact current InlineCost: seed cost plus splice deltas.

        Equals ``function_cost`` of the real function after the same
        splices: a splice replaces the call, ``5 + 5*args``, with the
        callee body, where cloned rets become equal-cost jumps, plus one
        jump to the continuation.
        """
        return self.seed(name).base_cost + self._cost_deltas.get(name, 0)

    # -- queries used by the policy drivers ------------------------------------

    def profiled_sites(self) -> List[Tuple[int, int, str]]:
        """(weight, vid, caller) for every profiled direct call, in module
        iteration order."""
        sites: List[Tuple[int, int, str]] = []
        for name in self._names:
            seed = self.seed(name)
            for block in seed.blocks:
                for s in block:
                    if s.opcode == Opcode.CALL and s.weight > 0:
                        sites.append((s.weight, s.site_id, name))
        return sites

    def locate(self, caller_name: str, vid: int) -> Optional[VirtualSite]:
        """The live descriptor for ``vid``, or ``None`` if it was consumed
        (the virtual analogue of a stale site-index entry)."""
        if self.function(caller_name) is None:
            return None
        site = self._sites.get(vid)
        if site is None or site.consumed:
            return None
        return site

    # -- mutation --------------------------------------------------------------

    def splice(
        self, caller_name: str, site: VirtualSite, callee_name: str
    ) -> Tuple[List[VirtualSite], List[Tuple[int, int]]]:
        """Virtually inline ``callee_name`` at ``site``.

        Returns the clone descriptors in ``InlineResult.new_call_sites``
        iteration order (callee body order) plus the (clone_vid,
        source_vid) pairs the replay needs.
        """
        caller = self.function(caller_name)
        callee = self.function(callee_name)
        assert caller is not None and callee is not None
        block = site.block
        pos = next(i for i, s in enumerate(block) if s is site)
        tail = block[pos + 1 :]
        del block[pos:]
        site.consumed = True

        clones: List[VirtualSite] = []
        pairs: List[Tuple[int, int]] = []
        new_blocks: List[List[VirtualSite]] = []
        for src_block in callee.blocks:
            new_block: List[VirtualSite] = []
            for src in src_block:
                vid = self._next_clone_vid
                self._next_clone_vid -= 1
                clone = VirtualSite(
                    vid=vid,
                    opcode=src.opcode,
                    callee=src.callee,
                    weight=src.weight,
                    has_weight=src.has_weight,
                    num_args=src.num_args,
                )
                clone.block = new_block
                new_block.append(clone)
                self._sites[vid] = clone
                clones.append(clone)
                pairs.append((vid, src.vid))
                if clone.opcode == Opcode.CALL and clone.callee == caller_name:
                    caller.calls_self = True
            if new_block:
                new_blocks.append(new_block)
        caller.blocks.extend(new_blocks)
        if tail:
            for s in tail:
                s.block = tail
            caller.blocks.append(tail)

        # The exact incremental cost update (see cost()).
        self._cost_deltas[caller_name] = self._cost_deltas.get(
            caller_name, 0
        ) + (
            self.cost(callee_name)
            - (
                STANDARD_INSTRUCTION_COST
                + STANDARD_INSTRUCTION_COST * site.num_args
            )
            + STANDARD_INSTRUCTION_COST
        )
        return clones, pairs
