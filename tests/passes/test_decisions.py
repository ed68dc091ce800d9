"""The virtual decision space must track the real module exactly: after
an inliner plans against a :class:`VirtualSpace` and the plan is applied,
every touched caller's virtual cost, call-descriptor order and recursion
flag equal what the real, transformed function reports."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_module
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import ATTR_EDGE_COUNT
from repro.passes.decisions import VirtualSpace
from repro.passes.default_inliner import DefaultInliner
from repro.passes.icp import IndirectCallPromotion
from repro.passes.inline_cost import function_cost
from repro.passes.inliner import PibeInliner
from repro.passes.jumptables import LowerSwitches
from repro.profiling.lifting import lift_profile
from repro.profiling.profile_data import EdgeProfile


def _virtual_blocks(space, name):
    """Per-block call descriptors of a virtual function, empty blocks
    dropped; clone descriptors (negative vids) carry no site id."""
    return [
        [
            (s.opcode, s.callee, s.weight, s.vid if s.vid >= 0 else None)
            for s in block
        ]
        for block in space.function(name).blocks
        if block
    ]


def _real_blocks(func, seeded_ids):
    """The same view of a real function; call sites minted by the apply
    phase (not present when the space was seeded) carry no site id."""
    blocks = []
    for block in func.blocks.values():
        calls = [
            (
                inst.opcode,
                inst.callee,
                inst.attrs.get(ATTR_EDGE_COUNT, 0),
                inst.site_id if inst.site_id in seeded_ids else None,
            )
            for inst in block.instructions
            if inst.is_call
        ]
        if calls:
            blocks.append(calls)
    return blocks


def _plan_apply_and_check(inliner, module):
    """Plan ``inliner`` against a space seeded from ``module``, apply the
    plan, and check every touched caller; returns the touched names."""
    seeded_ids = {
        inst.site_id for func in module for inst in func.call_sites()
    }
    space = VirtualSpace.from_module(module)
    if isinstance(inliner, DefaultInliner):
        plan = inliner.plan(module, space)
    else:
        plan = inliner.plan(space)
    inliner.apply_plan(module, plan)

    touched = sorted(plan.touched_callers)
    for name in touched:
        func = module.functions[name]
        assert space.cost(name) == function_cost(func), name
        assert _virtual_blocks(space, name) == _real_blocks(
            func, seeded_ids
        ), name
        assert space.is_recursive(name) == func.is_recursive(), name
    return touched


def _inliner(kind, profile, budget):
    if kind == "default":
        return DefaultInliner(profile=profile)
    return PibeInliner(profile, budget=budget, lax_heuristics=kind == "lax")


@pytest.mark.parametrize("budget", [0.3, 0.9, 0.999999])
@pytest.mark.parametrize("kind", ["lax", "strict", "default"])
def test_virtual_space_matches_applied_module(
    small_kernel, small_profile, kind, budget
):
    module = clone_module(small_kernel)
    lift_profile(module, small_profile)
    LowerSwitches(allow_jump_tables=True).run(module)
    IndirectCallPromotion(budget=budget).run(module)
    assert _plan_apply_and_check(
        _inliner(kind, small_profile, budget), module
    )


def test_virtual_space_tracks_recursion_created_by_a_splice():
    # a -> b -> a: inlining b into a clones b's call to a into a itself,
    # so a turns directly recursive in the space and in the module.
    module = Module("m")
    profile = EdgeProfile()
    for caller, callee, count in (("a", "b", 100), ("b", "a", 10)):
        func = Function(caller)
        builder = IRBuilder(func)
        profile.record_direct(builder.call(callee, num_args=0).site_id, count)
        builder.ret()
        module.add_function(func)
        profile.record_invocation(callee, count)
    lift_profile(module, profile)

    assert not module.functions["a"].is_recursive()
    assert _plan_apply_and_check(PibeInliner(profile, budget=1.0), module)
    assert module.functions["a"].is_recursive()
