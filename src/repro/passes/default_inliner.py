"""LLVM-style bottom-up PGO inliner — the baseline of Section 8.4.

The default inliner walks the call graph bottom-up (callees before callers)
and inlines a site whenever the callee's InlineCost fits a size threshold,
bumped for profile-hot sites. Its inlining order is *irrespective of
profiling weight*: within a caller, sites are visited in program order, so
earlier cold inlining can consume the caller's growth budget and inhibit
more beneficial hot inlining — the instability PIBE's hottest-first queue
avoids.

Like :class:`repro.passes.inliner.PibeInliner`, the policy runs against
a :class:`~repro.passes.decisions.VirtualSpace`
(:meth:`DefaultInliner.plan`), emitting an ordered step trace replayed
by :func:`repro.passes.inliner.apply_inline_steps`;
:meth:`DefaultInliner.run` plans against a space seeded from the
module, then applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.ir.module import Module
from repro.ir.types import Opcode
from repro.ir.callgraph import CallGraph
from repro.passes.decisions import (
    InlinePlan,
    InlineStep,
    VirtualFunction,
    VirtualSite,
    VirtualSpace,
)
from repro.passes.manager import ModulePass
from repro.profiling.profile_data import EdgeProfile


@dataclass
class DefaultInlineReport:
    inlined_sites: int = 0
    inlined_weight: int = 0
    returns_elided_sites: int = 0
    visited_sites: int = 0


class DefaultInliner(ModulePass):
    """Bottom-up size-threshold inliner.

    Parameters
    ----------
    profile:
        Used only to classify sites as hot (count > 0) — mirroring LLVM's
        hot-callsite threshold bump, not PIBE's weight ordering.
    cold_threshold:
        InlineCost limit for unprofiled sites (LLVM default inline
        threshold neighbourhood).
    hot_threshold:
        InlineCost limit for profile-hot sites (LLVM's hot threshold,
        3,000).
    caller_growth_limit:
        Stop growing a caller past this InlineCost.
    """

    name = "default-inliner"

    def __init__(
        self,
        profile: Optional[EdgeProfile] = None,
        cold_threshold: int = 45,
        hot_threshold: int = 90,
        caller_growth_limit: int = 2_400,
    ) -> None:
        # LLVM's default inline threshold is 225 (scaled ~5x down to 45 for
        # the synthetic kernel's smaller functions); the paper notes the
        # default inliner's decisions are made "solely based on size
        # complexity and inline hints", so the profile-hot bonus is modest.
        self.profile = profile
        self.cold_threshold = cold_threshold
        self.hot_threshold = hot_threshold
        self.caller_growth_limit = caller_growth_limit

    def run(self, module: Module) -> DefaultInlineReport:
        return self.apply_plan(
            module, self.plan(module, VirtualSpace.from_module(module))
        )

    def plan(self, module: Module, space: VirtualSpace) -> InlinePlan:
        """Decision phase against ``space``; ``module`` (the real pre-inline
        module) only supplies the bottom-up order."""
        report = DefaultInlineReport()
        steps: List[InlineStep] = []

        for caller_name in CallGraph(module).bottom_up_order():
            if (
                not space.has_function(caller_name)
                or space.seed(caller_name).is_optnone
            ):
                continue
            caller = space.function(caller_name)
            # Visit sites in program order (repeatedly, since inlining
            # introduces new sites mid-block).
            progress = True
            while progress:
                progress = False
                for site in _direct_calls(caller):
                    callee_name = site.callee or ""
                    if (
                        not space.has_function(callee_name)
                        or callee_name == caller_name
                        or not space.seed(callee_name).is_inlinable
                        or space.is_recursive(callee_name)
                    ):
                        continue
                    report.visited_sites += 1
                    weight = site.weight
                    threshold = (
                        self.hot_threshold if weight > 0 else self.cold_threshold
                    )
                    if space.cost(callee_name) > threshold:
                        continue
                    if space.cost(caller_name) > self.caller_growth_limit:
                        continue
                    _, pairs = space.splice(caller_name, site, callee_name)
                    steps.append(
                        InlineStep(
                            caller=caller_name,
                            vid=site.vid,
                            callee=callee_name,
                            weight=weight,
                            clones=pairs,
                        )
                    )
                    report.inlined_sites += 1
                    report.inlined_weight += weight
                    report.returns_elided_sites += space.seed(
                        callee_name
                    ).returns_count
                    progress = True
                    break
        return InlinePlan(steps=steps, report=report)

    def apply_plan(
        self, module: Module, plan: InlinePlan
    ) -> DefaultInlineReport:
        from repro.passes.inliner import apply_inline_steps

        apply_inline_steps(module, plan.steps)
        return plan.report


def _direct_calls(caller: VirtualFunction) -> Iterator[VirtualSite]:
    """The caller's direct call descriptors in program order (a snapshot
    of the block list; the driver stops iterating after each splice)."""
    for block in list(caller.blocks):
        for site in block:
            if site.opcode == Opcode.CALL:
                yield site
