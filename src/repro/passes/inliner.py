"""PIBE's profile-guided greedy inliner (paper Section 5.2).

Inlining here is a *security* transformation: every inlined call removes a
backward edge (the callee's return) from the dynamic path, which would
otherwise need costly transient-execution hardening. The algorithm:

Rule 1 — inline only hot call sites: a budget selects the hottest call
sites covering the requested percentage of cumulative execution count;
sites are processed hottest-first from a priority queue so cold inlining
can never block hot inlining.

Rule 2 — avoid excessive complexity in the caller: skip a site when the
caller's InlineCost exceeds a threshold (12,000), preventing poor stack
frame utilization from long merged call chains.

Rule 3 — skip callees whose own complexity exceeds a lower threshold
(3,000), so one big callee cannot deplete the caller's budget that many
small ones could use (Figure 1).

After inlining a call with execution count ``ε`` into a caller, the
callee's own call sites appear in the caller; each inherits a count equal
to its count in the callee scaled by ``ε / invocations(callee)`` —
Scheifler-style constant-ratio inheritance — and re-enters the queue if it
still qualifies as hot.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import Module
from repro.ir.clone import inline_call, record_inlined_promotion
from repro.ir.types import (
    ATTR_EDGE_COUNT,
    ATTR_VALUE_PROFILE,
    METADATA_INLINED_PROMOTED,
    Opcode,
)
from repro.passes.decisions import InlinePlan, InlineStep, VirtualSpace
from repro.passes.inline_cost import (
    DEFAULT_CALLEE_THRESHOLD,
    DEFAULT_CALLER_THRESHOLD,
)
from repro.passes.manager import ModulePass
from repro.profiling.profile_data import EdgeProfile


@dataclass
class InlineReport:
    """Inlining statistics backing Tables 8, 9 and 10."""

    budget: float
    #: total profiled direct-call weight in the module (post-ICP)
    total_profiled_weight: int = 0
    #: number of profiled direct call sites
    total_profiled_sites: int = 0
    #: weight of the initial hot candidate set (Table 9 "Ovr.")
    candidate_weight: int = 0
    #: initial hot candidate sites (Table 10 "Candidates")
    candidate_sites: int = 0
    inlined_sites: int = 0
    inlined_weight: int = 0
    #: static return instructions elided (became jumps) — Table 8
    returns_elided_sites: int = 0
    #: dynamic return weight elided — Table 8
    returns_elided_weight: int = 0
    blocked_rule2_weight: int = 0
    blocked_rule2_sites: int = 0
    blocked_rule3_weight: int = 0
    blocked_rule3_sites: int = 0
    blocked_other_weight: int = 0
    blocked_other_sites: int = 0
    #: blocked sites per caller subsystem (Table 9 discussion)
    blocked_by_subsystem: Dict[str, int] = field(default_factory=dict)

    @property
    def elided_weight_fraction(self) -> float:
        if not self.candidate_weight:
            return 0.0
        return self.returns_elided_weight / self.candidate_weight

    @property
    def blocked_weight(self) -> int:
        return (
            self.blocked_rule2_weight
            + self.blocked_rule3_weight
            + self.blocked_other_weight
        )

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        return (
            f"inlined {self.inlined_sites} sites "
            f"({self.elided_weight_fraction:.1%} of return weight elided); "
            f"blocked weight: rule2={self.blocked_rule2_weight} "
            f"rule3={self.blocked_rule3_weight} "
            f"other={self.blocked_other_weight}"
        )


class PibeInliner(ModulePass):
    """The profile-guided indirect-branch-eliminating inliner.

    Parameters
    ----------
    profile:
        Edge profile providing function invocation counts for the
        constant-ratio inheritance heuristic.
    budget:
        Fraction (0..1] of cumulative direct-call weight to attempt.
    caller_threshold / callee_threshold:
        Rule 2 / Rule 3 complexity limits.
    lax_heuristics:
        Paper's best configuration: run at a very high budget while
        disabling Rules 2 and 3 for sites hot enough to fit a 99% budget
        (where the size heuristics were measured to be counterproductive).
    max_operations:
        Safety valve against runaway re-queueing.
    """

    name = "pibe-inliner"

    def __init__(
        self,
        profile: EdgeProfile,
        budget: float = 0.999,
        caller_threshold: int = DEFAULT_CALLER_THRESHOLD,
        callee_threshold: int = DEFAULT_CALLEE_THRESHOLD,
        lax_heuristics: bool = False,
        lax_budget: float = 0.99,
        max_operations: int = 500_000,
    ) -> None:
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {budget}")
        self.profile = profile
        self.budget = budget
        self.caller_threshold = caller_threshold
        self.callee_threshold = callee_threshold
        self.lax_heuristics = lax_heuristics
        self.lax_budget = lax_budget
        self.max_operations = max_operations

    # -- main driver -----------------------------------------------------------
    #
    # The greedy policy runs against a VirtualSpace and records an
    # InlineStep trace that apply_inline_steps replays onto the module;
    # run() plans against a space seeded from the module itself.

    def run(self, module: Module) -> InlineReport:
        return self.apply_plan(
            module, self.plan(VirtualSpace.from_module(module))
        )

    def plan(self, space: VirtualSpace) -> InlinePlan:
        """Decision phase: run the policy against ``space`` without
        touching any IR, returning the ordered step trace + report."""
        report = InlineReport(budget=self.budget)
        steps: List[InlineStep] = []
        sites = sorted(space.profiled_sites(), key=lambda s: (-s[0], s[1]))
        report.total_profiled_sites = len(sites)
        report.total_profiled_weight = sum(w for w, _, _ in sites)

        limit = report.total_profiled_weight * self.budget
        lax_limit = report.total_profiled_weight * self.lax_budget
        candidates: List[Tuple[int, int, str]] = []
        cumulative = 0
        cutoff_weight = 0
        lax_cutoff_weight = 0
        for weight, site_id, caller in sites:
            if cumulative >= limit:
                break
            candidates.append((weight, site_id, caller))
            cutoff_weight = weight
            if cumulative < lax_limit:
                lax_cutoff_weight = weight
            cumulative += weight
        report.candidate_sites = len(candidates)
        report.candidate_weight = sum(w for w, _, _ in candidates)

        invocations: Dict[str, int] = defaultdict(
            int, dict(self.profile.invocations)
        )
        counter = itertools.count()
        heap: List[Tuple[int, int, int, str]] = [
            (-w, next(counter), sid, caller) for w, sid, caller in candidates
        ]
        heapq.heapify(heap)
        operations = 0

        while heap and operations < self.max_operations:
            neg_weight, _, vid, caller_name = heapq.heappop(heap)
            weight = -neg_weight
            operations += 1
            site = space.locate(caller_name, vid)
            if site is None:
                continue  # site disappeared under a previous transformation
            callee_name = site.callee
            assert callee_name is not None

            lax = self.lax_heuristics and weight >= lax_cutoff_weight > 0
            subsystem = space.seed(caller_name).subsystem

            # -- "other" blockers (optnone / noinline / recursion / asm) --
            if (
                not space.has_function(callee_name)
                or callee_name == caller_name
                or not space.seed(callee_name).is_inlinable
                or space.seed(caller_name).is_optnone
                or space.is_recursive(callee_name)
            ):
                report.blocked_other_weight += weight
                report.blocked_other_sites += 1
                self._count_block(report, subsystem)
                continue

            # -- Rule 2: caller complexity -------------------------------
            if not lax and space.cost(caller_name) > self.caller_threshold:
                report.blocked_rule2_weight += weight
                report.blocked_rule2_sites += 1
                self._count_block(report, subsystem)
                continue

            # -- Rule 3: callee complexity -------------------------------
            if not lax and space.cost(callee_name) > self.callee_threshold:
                report.blocked_rule3_weight += weight
                report.blocked_rule3_sites += 1
                self._count_block(report, subsystem)
                continue

            clones, pairs = space.splice(caller_name, site, callee_name)
            report.inlined_sites += 1
            report.inlined_weight += weight
            report.returns_elided_sites += space.seed(callee_name).returns_count
            report.returns_elided_weight += weight

            # Constant-ratio inheritance for the callee's own call sites.
            callee_invocations = max(invocations.get(callee_name, 0), weight, 1)
            ratio = weight / callee_invocations
            steps.append(
                InlineStep(
                    caller=caller_name,
                    vid=vid,
                    callee=callee_name,
                    weight=weight,
                    invocations=callee_invocations,
                    ratio=ratio,
                    clones=pairs,
                )
            )
            for clone in clones:
                if clone.has_weight:
                    clone.weight = int(clone.weight * ratio + 0.5)
                if clone.opcode == Opcode.CALL and clone.weight >= max(
                    cutoff_weight, 1
                ):
                    # Clones whose callee can never be inlined would be
                    # re-blocked on every pop, double-counting blocked
                    # weight; their original site was already accounted.
                    clone_callee_name = clone.callee or ""
                    if (
                        not space.has_function(clone_callee_name)
                        or not space.seed(clone_callee_name).is_inlinable
                        or space.is_recursive(clone_callee_name)
                    ):
                        continue
                    heapq.heappush(
                        heap,
                        (-clone.weight, next(counter), clone.vid, caller_name),
                    )
            invocations[callee_name] = max(
                invocations.get(callee_name, 0) - weight, 0
            )

        return InlinePlan(steps=steps, report=report)

    def apply_plan(self, module: Module, plan: InlinePlan) -> InlineReport:
        """Apply phase: replay ``plan`` onto the real module."""
        apply_inline_steps(module, plan.steps)
        return plan.report

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _build_index(func: Function) -> Dict[int, Tuple[str, int]]:
        """Full site_id -> (block_label, idx) map for one caller.

        Built once per caller; each splice then repairs it from its
        ``InlineResult.moved_sites``, the only calls whose position it
        changes: the clones it added and the tail it moved into the
        continuation, whose stale entries the update overwrites. The
        inlined call's own entry is popped.
        """
        index: Dict[int, Tuple[str, int]] = {}
        for label, block in func.blocks.items():
            for idx, inst in enumerate(block.instructions):
                if inst.site_id is not None:
                    index[inst.site_id] = (label, idx)
        return index

    @staticmethod
    def _inherit_counts(clone: Instruction, ratio: float) -> None:
        """Scale a cloned call site's profile metadata by the edge ratio.

        Counts round half-up rather than truncate: plain ``int()`` bled
        profile weight on every inheritance step (a site inherited through
        k levels lost up to k counts), breaking weight conservation for
        exactly-covering budgets.
        """
        if ATTR_EDGE_COUNT in clone.attrs:
            clone.attrs[ATTR_EDGE_COUNT] = int(
                clone.attrs[ATTR_EDGE_COUNT] * ratio + 0.5
            )
        if ATTR_VALUE_PROFILE in clone.attrs:
            clone.attrs[ATTR_VALUE_PROFILE] = [
                (target, int(count * ratio + 0.5))
                for target, count in clone.attrs[ATTR_VALUE_PROFILE]
            ]

    @staticmethod
    def _count_block(report: InlineReport, subsystem: Optional[str]) -> None:
        key = subsystem or "unknown"
        report.blocked_by_subsystem[key] = (
            report.blocked_by_subsystem.get(key, 0) + 1
        )


def apply_inline_steps(
    module: Module, steps: Sequence[InlineStep]
) -> None:
    """Replay a planned inline trace onto the real module.

    Splices run in exact plan order, so global site ids and inline label
    serials are minted in the decided sequence: a plan made against a
    space seeded from this module (``run``) and one made against a shared
    delta-engine basis replay to bit-identical modules. Negative
    (virtual clone) ids resolve through ``InlineResult.new_call_sites``
    as the real clones come into existence.
    """
    # Mark inlining provenance as available even if nothing gets inlined
    # (the static flow analysis keys on the entry's presence).
    module.metadata.setdefault(METADATA_INLINED_PROMOTED, [])
    vid_to_real: Dict[int, int] = {}
    indexes: Dict[str, Dict[int, Tuple[str, int]]] = {}
    for step in steps:
        caller = module.mutable(step.caller)
        index = indexes.get(step.caller)
        if index is None:
            index = PibeInliner._build_index(caller)
            indexes[step.caller] = index
        sid = step.vid if step.vid >= 0 else vid_to_real[step.vid]
        block_label, idx = index[sid]
        inst = caller.blocks[block_label].instructions[idx]
        callee = module.functions[step.callee]
        record_inlined_promotion(module, inst)
        result = inline_call(caller, block_label, idx, callee)
        index.pop(sid, None)
        index.update(result.moved_sites)
        if step.ratio is not None:
            for clones in result.new_call_sites.values():
                for clone in clones:
                    PibeInliner._inherit_counts(clone, step.ratio)
        for clone_vid, src_vid in step.clones:
            src_sid = src_vid if src_vid >= 0 else vid_to_real[src_vid]
            vid_to_real[clone_vid] = result.new_call_sites[src_sid][0].site_id
