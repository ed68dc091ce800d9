"""PIBE's greedy inliner: budget, rules, inheritance, accounting."""

import pytest

from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.types import ATTR_EDGE_COUNT, FunctionAttr, Opcode
from repro.ir.validate import validate_module
from repro.passes.inliner import PibeInliner
from repro.profiling.lifting import lift_profile
from repro.profiling.profile_data import EdgeProfile


def _make_module(counts, callee_sizes=None, callee_attrs=None):
    """One caller with a direct call per entry of ``counts``."""
    callee_sizes = callee_sizes or {}
    callee_attrs = callee_attrs or {}
    module = Module("m")
    profile = EdgeProfile()
    caller = Function("caller")
    b = IRBuilder(caller)
    for name, count in counts.items():
        size = callee_sizes.get(name, 3)
        module.add_function(
            build_leaf(name, work=size, attrs=callee_attrs.get(name))
        )
        inst = b.call(name, num_args=0)
        profile.record_direct(inst.site_id, count)
        profile.record_invocation(name, count)
    b.ret()
    module.add_function(caller)
    profile.record_invocation("caller", max(counts.values(), default=1))
    lift_profile(module, profile)
    return module, profile


def _remaining_callees(module):
    return {
        inst.callee
        for inst in module.get("caller").call_sites()
        if inst.opcode == Opcode.CALL
    }


def test_inlines_everything_at_full_budget():
    module, profile = _make_module({"a": 100, "b": 50, "c": 10})
    report = PibeInliner(profile, budget=1.0).run(module)
    validate_module(module)
    assert _remaining_callees(module) == set()
    assert report.inlined_sites == 3
    assert report.inlined_weight == 160
    assert report.returns_elided_sites == 3
    assert report.returns_elided_weight == 160


def test_budget_excludes_cold_tail():
    counts = {"hot": 9000, "warm": 900, "cold": 10}
    module, profile = _make_module(counts)
    PibeInliner(profile, budget=0.99).run(module)
    # hot+warm cover 99.9% of weight; cold is outside the 99% budget
    assert _remaining_callees(module) == {"cold"}


def test_rule2_blocks_fat_callers():
    module, profile = _make_module({"a": 100})
    # caller body (call + ret) costs 10, strictly above a threshold of 5
    report = PibeInliner(
        profile, budget=1.0, caller_threshold=5
    ).run(module)
    assert _remaining_callees(module) == {"a"}
    assert report.blocked_rule2_sites == 1
    assert report.blocked_rule2_weight == 100


def test_rule3_blocks_fat_callees():
    module, profile = _make_module(
        {"big": 100, "small": 90}, callee_sizes={"big": 500, "small": 2}
    )
    report = PibeInliner(
        profile, budget=1.0, callee_threshold=100
    ).run(module)
    assert _remaining_callees(module) == {"big"}
    assert report.blocked_rule3_sites == 1
    assert report.blocked_rule3_weight == 100
    assert report.inlined_sites == 1


def test_noinline_counts_as_other():
    module, profile = _make_module(
        {"locked": 80, "free": 70},
        callee_attrs={"locked": [FunctionAttr.NOINLINE]},
    )
    report = PibeInliner(profile, budget=1.0).run(module)
    assert _remaining_callees(module) == {"locked"}
    assert report.blocked_other_sites == 1
    assert report.blocked_other_weight == 80


def test_optnone_caller_blocked():
    module, profile = _make_module({"a": 50})
    module.get("caller").attrs.add(FunctionAttr.OPTNONE)
    report = PibeInliner(profile, budget=1.0).run(module)
    assert report.blocked_other_sites == 1
    assert _remaining_callees(module) == {"a"}


def test_recursive_callee_blocked():
    module = Module("m")
    rec = Function("rec")
    b = IRBuilder(rec)
    b.call("rec")
    b.ret()
    module.add_function(rec)
    caller = Function("caller")
    b = IRBuilder(caller)
    inst = b.call("rec")
    b.ret()
    module.add_function(caller)
    profile = EdgeProfile()
    profile.record_direct(inst.site_id, 10)
    lift_profile(module, profile)
    report = PibeInliner(profile, budget=1.0).run(module)
    assert report.blocked_other_sites >= 1
    assert report.inlined_sites == 0


def test_lax_heuristics_disable_rules_for_hot_prefix():
    module, profile = _make_module(
        {"big": 1000, "tiny": 1}, callee_sizes={"big": 500}
    )
    report = PibeInliner(
        profile,
        budget=0.999999,
        callee_threshold=100,
        lax_heuristics=True,
        lax_budget=0.99,
    ).run(module)
    # 'big' is inside the 99% prefix: Rule 3 is waived for it
    assert "big" not in _remaining_callees(module)
    assert report.blocked_rule3_weight == 0 or "tiny" in _remaining_callees(module)


def test_hottest_first_ordering():
    """Hotter sites must be inlined before colder ones can exhaust the
    caller budget (the core Rule 1 motivation)."""
    module, profile = _make_module(
        {"hot": 1000, "cold": 10},
        callee_sizes={"hot": 30, "cold": 30},
    )
    # caller budget only fits one of the two inlines (the caller costs
    # 15 before inlining and ~180 after absorbing one 33-instruction body)
    PibeInliner(
        profile, budget=1.0, caller_threshold=100
    ).run(module)
    assert "hot" not in _remaining_callees(module)
    assert "cold" in _remaining_callees(module)


def test_constant_ratio_inheritance_requeues_nested_sites():
    module = Module("m")
    module.add_function(build_leaf("leaf"))
    mid = Function("mid")
    b = IRBuilder(mid)
    nested = b.call("leaf", num_args=0)
    b.ret()
    module.add_function(mid)
    caller = Function("caller")
    b = IRBuilder(caller)
    outer = b.call("mid")
    b.ret()
    module.add_function(caller)

    profile = EdgeProfile()
    profile.record_direct(outer.site_id, 100)
    profile.record_direct(nested.site_id, 200)  # mid also called elsewhere
    profile.record_invocation("caller", 100)
    profile.record_invocation("mid", 200)
    profile.record_invocation("leaf", 200)
    lift_profile(module, profile)

    report = PibeInliner(profile, budget=1.0).run(module)
    validate_module(module)
    # hottest-first: the nested site (200) is inlined into mid, then mid
    # (100) into the caller — no direct calls survive anywhere hot
    assert report.inlined_sites == 2
    assert _remaining_callees(module) == set()
    assert report.inlined_weight == 300


def test_inherited_value_profiles_scaled():
    module = Module("m")
    module.add_function(build_leaf("t1"))
    module.add_function(build_leaf("t2"))
    mid = Function("mid", attrs=set())
    b = IRBuilder(mid)
    icall = b.icall({"t1": 1, "t2": 1})
    b.ret()
    module.add_function(mid)
    caller = Function("caller")
    b = IRBuilder(caller)
    outer = b.call("mid")
    b.ret()
    module.add_function(caller)

    profile = EdgeProfile()
    profile.record_direct(outer.site_id, 50)
    profile.record_indirect(icall.site_id, "t1", 60)
    profile.record_indirect(icall.site_id, "t2", 40)
    profile.record_invocation("mid", 100)
    lift_profile(module, profile)
    PibeInliner(profile, budget=1.0).run(module)

    cloned_icalls = [
        inst
        for inst in module.get("caller").call_sites()
        if inst.opcode == Opcode.ICALL
    ]
    assert len(cloned_icalls) == 1
    from repro.ir.types import ATTR_VALUE_PROFILE

    # ratio = 50 / 100 = 0.5
    assert cloned_icalls[0].attrs[ATTR_VALUE_PROFILE] == [("t1", 30), ("t2", 20)]


def test_bad_budget_rejected():
    with pytest.raises(ValueError):
        PibeInliner(EdgeProfile(), budget=0.0)
    with pytest.raises(ValueError):
        PibeInliner(EdgeProfile(), budget=1.5)


def test_report_candidate_accounting():
    module, profile = _make_module({"a": 70, "b": 20, "c": 10})
    report = PibeInliner(profile, budget=0.9).run(module)
    assert report.total_profiled_sites == 3
    assert report.total_profiled_weight == 100
    # 90% budget: a (70%) then b (90%) reach the limit
    assert report.candidate_sites == 2
    assert report.candidate_weight == 90


def test_inherit_counts_round_half_up():
    """Plain int() truncation bled one count per inheritance level; the
    regression: counts and value profiles round half-up."""
    from repro.ir.types import ATTR_VALUE_PROFILE

    caller = Function("f")
    b = IRBuilder(caller)
    inst = b.call("g")
    inst.attrs[ATTR_EDGE_COUNT] = 5
    inst.attrs[ATTR_VALUE_PROFILE] = [("t1", 3), ("t2", 1)]
    PibeInliner._inherit_counts(inst, 0.5)
    assert inst.attrs[ATTR_EDGE_COUNT] == 3  # 2.5 rounds up, not down to 2
    assert inst.attrs[ATTR_VALUE_PROFILE] == [("t1", 2), ("t2", 1)]


def test_inheritance_conserves_weight_across_clones():
    """Two equal-ratio clones of an odd-count nested site must not lose
    weight in aggregate (5 -> 3 + 3, never 2 + 2)."""
    module = Module("m")
    # leaf is too fat to inline, so the cloned sites survive inspection
    module.add_function(build_leaf("leaf", work=400))
    mid = Function("mid")
    b = IRBuilder(mid)
    nested = b.call("leaf", num_args=0)
    b.ret()
    module.add_function(mid)
    caller = Function("caller")
    b = IRBuilder(caller)
    first = b.call("mid")
    second = b.call("mid")
    b.ret()
    module.add_function(caller)

    profile = EdgeProfile()
    profile.record_direct(first.site_id, 10)
    profile.record_direct(second.site_id, 10)
    profile.record_direct(nested.site_id, 5)
    profile.record_invocation("caller", 10)
    profile.record_invocation("mid", 20)
    profile.record_invocation("leaf", 5)
    lift_profile(module, profile)

    PibeInliner(profile, budget=1.0, callee_threshold=100).run(module)
    validate_module(module)
    cloned = [
        inst
        for inst in module.get("caller").call_sites()
        if inst.callee == "leaf"
    ]
    # first inline: ratio 10/20 = 0.5, and 5 * 0.5 rounds UP to 3 (the
    # truncating regression produced 2); second inline: mid's residual
    # invocation count is 10, ratio 1.0, the clone keeps the full 5
    assert [inst.attrs[ATTR_EDGE_COUNT] for inst in cloned] == [3, 5]
    assert sum(inst.attrs[ATTR_EDGE_COUNT] for inst in cloned) >= 5


def test_deep_inline_chain_keeps_index_consistent():
    """A 5-deep call chain fully collapses: the incremental site index
    must keep locating sites as blocks split, tails move to continuation
    blocks and cloned callee bodies appear."""
    module = Module("m")
    names = [f"fn{i}" for i in range(5)]
    profile = EdgeProfile()
    module.add_function(build_leaf(names[-1], work=2))
    for i in reversed(range(4)):
        func = Function(names[i])
        b = IRBuilder(func)
        b.arith(2)
        inst = b.call(names[i + 1], num_args=0)
        b.arith(1)
        b.ret()
        module.add_function(func)
        profile.record_direct(inst.site_id, 100)
    for name in names:
        profile.record_invocation(name, 100)
    lift_profile(module, profile)

    report = PibeInliner(profile, budget=1.0).run(module)
    validate_module(module)
    assert report.inlined_sites == 4
    top = module.get("fn0")
    assert not any(inst.opcode == Opcode.CALL for inst in top.instructions())


def test_callee_block_named_like_the_continuation():
    """A callee block called ``cont`` must not take the continuation's
    label: each new label is checked against the caller's blocks and
    against the labels the splice has already chosen."""
    module = parse_module(
        """
define @g(0 params) {
entry:
  arith
  jmp cont
cont:
  ret
}

define @f(0 params) {
entry:
  call @g(0 args)
  arith
  ret
}

syscall f -> @f
"""
    )
    (call,) = module.get("f").call_sites()
    profile = EdgeProfile()
    profile.record_direct(call.site_id, 10)
    profile.record_invocation("f", 10)
    profile.record_invocation("g", 10)
    lift_profile(module, profile)
    report = PibeInliner(profile, budget=1.0).run(module)
    validate_module(module)
    assert report.inlined_sites == 1
    f = module.get("f")
    entry, g_entry, g_cont, continuation = f.blocks.values()
    prefix = g_entry.label[: -len("entry")]
    assert (g_cont.label, continuation.label) == (
        f"{prefix}cont.1",
        f"{prefix}cont",
    )
    assert entry.terminator.targets == (g_entry.label,)
    assert g_entry.terminator.targets == (g_cont.label,)
    assert g_cont.terminator.targets == (continuation.label,)
    assert [i.opcode for i in continuation.instructions] == [
        Opcode.ARITH,
        Opcode.RET,
    ]
