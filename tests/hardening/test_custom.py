"""Custom defense registration and integration across the pipeline."""

import pytest

from repro.cpu.attacks import LVIAttack, Ret2specAttack, SpectreV2Attack
from repro.cpu.costs import DEFAULT_COSTS
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
    custom_defense_cost,
    register_defense,
    registered_defense,
)
from repro.hardening.lowering import site_expansion_units
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_registry()
    yield
    clear_registry()


PSCFI_FWD = CustomDefense(
    name="pscfi_fwd",
    kind="forward",
    cycles=35.0,
    site_expansion_units=4,
    protects=frozenset({"spectre_v2", "lvi"}),
)
PSCFI_RET = CustomDefense(
    name="pscfi_ret",
    kind="backward",
    cycles=28.0,
    site_expansion_units=4,
    protects=frozenset({"ret2spec", "lvi"}),
)


def _module():
    module = Module("m")
    module.add_function(build_leaf("t"))
    func = Function("f")
    b = IRBuilder(func)
    b.icall({"t": 1})
    b.ret()
    module.add_function(func)
    return module


def test_validation():
    with pytest.raises(ValueError, match="kind"):
        CustomDefense("x", kind="sideways", cycles=1.0)
    with pytest.raises(ValueError, match="unknown attack vectors"):
        CustomDefense(
            "x", kind="forward", cycles=1.0, protects=frozenset({"rowhammer"})
        )
    with pytest.raises(ValueError, match="non-negative"):
        CustomDefense("x", kind="forward", cycles=-1.0)


def test_registration_idempotent_and_conflicting():
    register_defense(PSCFI_FWD)
    register_defense(PSCFI_FWD)  # same spec: fine
    assert registered_defense("pscfi_fwd") == PSCFI_FWD
    with pytest.raises(ValueError, match="already registered"):
        register_defense(
            CustomDefense("pscfi_fwd", kind="forward", cycles=99.0)
        )


def test_cost_model_falls_back_to_registry():
    register_defense(PSCFI_FWD)
    assert DEFAULT_COSTS.defense_cost("pscfi_fwd") == 35.0
    assert custom_defense_cost("missing") is None
    with pytest.raises(KeyError):
        DEFAULT_COSTS.defense_cost("missing")


def test_custom_pass_tags_and_reports():
    module = _module()
    report = CustomHardeningPass(
        forward=PSCFI_FWD, backward=PSCFI_RET
    ).run(module)
    assert report.protected_icalls == 1
    assert report.protected_rets == 2
    icall = next(i for i in module.get("f").call_sites())
    assert icall.defense == "pscfi_fwd"
    assert site_expansion_units(icall) == 4


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError, match="forward"):
        CustomHardeningPass(forward=PSCFI_RET)
    with pytest.raises(ValueError, match="backward"):
        CustomHardeningPass(backward=PSCFI_FWD)


def test_attack_census_respects_custom_protection():
    module = _module()
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(module)
    assert SpectreV2Attack().hijackable_sites(module) == []
    assert Ret2specAttack().hijackable_sites(module) == []
    assert LVIAttack().hijackable_sites(module) == []


def test_partial_protection_census():
    # a forward-only defense that does NOT stop LVI
    weak = CustomDefense(
        "weak_fwd", kind="forward", cycles=5.0,
        protects=frozenset({"spectre_v2"}),
    )
    module = _module()
    CustomHardeningPass(forward=weak).run(module)
    assert SpectreV2Attack().hijackable_sites(module) == []
    # returns unprotected, icall not LVI-fenced
    assert len(Ret2specAttack().hijackable_sites(module)) == 2
    assert len(LVIAttack().hijackable_sites(module)) == 3


def test_timing_charges_custom_cost():
    import dataclasses

    from repro.cpu.timing import TimingModel
    from repro.engine.interpreter import Interpreter

    costs = dataclasses.replace(DEFAULT_COSTS, kernel_entry=0.0)
    plain = _module()
    custom = _module()
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(custom)

    def cycles(module):
        timing = TimingModel(module, costs=costs, model_icache=False)
        Interpreter(module, [timing], seed=1).run_function("f", times=10)
        return timing.cycles

    # 1 icall (35) + 2 rets (28 each) per run; the plain module pays one
    # cold BTB miss (12) that the flat-cost hardened icall does not
    assert cycles(custom) - cycles(plain) == pytest.approx(
        10 * (35 + 56) - DEFAULT_COSTS.btb_miss
    )


def test_pibe_reduces_custom_defense_overhead(small_pipeline, small_profile):
    """The paper's claim: the approach applies to any high-overhead
    defense (e.g. path-sensitive CFI)."""
    import copy

    from repro.core.config import PibeConfig
    from repro.workloads.base import measure_benchmark
    from repro.workloads.lmbench import BY_NAME

    register_defense(PSCFI_FWD)
    register_defense(PSCFI_RET)

    lto = small_pipeline.build_variant(PibeConfig.lto_baseline())
    unopt = copy.deepcopy(lto.module)
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(unopt)
    optimized = small_pipeline.build_variant(
        PibeConfig.pibe_baseline(), small_profile
    )
    opt = copy.deepcopy(optimized.module)
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(opt)

    bench = BY_NAME["read"]
    base = measure_benchmark(lto.module, bench, ops=60).cycles_per_op
    slow = measure_benchmark(unopt, bench, ops=60).cycles_per_op
    fast = measure_benchmark(opt, bench, ops=60).cycles_per_op
    unopt_overhead = slow / base - 1
    opt_overhead = fast / base - 1
    assert unopt_overhead > 0.5
    assert opt_overhead < unopt_overhead / 3


def _custom_tags(module):
    tags = {PSCFI_FWD.name, PSCFI_RET.name}
    return sum(
        1
        for func in module
        for inst in func.instructions()
        if inst.defense in tags
    )


def test_custom_pass_copies_shared_ir_of_a_staged_variant(
    small_kernel, small_profile
):
    """A staged variant shares its IR with the cached prefix and the
    baseline kernel (copy-on-write); stamping it must copy what it tags
    and leave both sources untagged."""
    import copy

    from repro.core.config import PibeConfig
    from repro.core.pipeline import PibePipeline

    pipeline = PibePipeline(copy.deepcopy(small_kernel))
    config = PibeConfig.pibe_baseline()
    variant = pipeline.build_variant(config, small_profile).module
    stamp = CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET)
    on_copy = stamp.run(copy.deepcopy(variant))
    report = stamp.run(variant)
    assert report == on_copy
    assert report.protected_icalls > 0 and report.protected_rets > 0
    assert _custom_tags(variant) == (
        report.protected_icalls
        + report.protected_rets
        + report.protected_ijumps
    )
    fresh = pipeline.build_variant(config, small_profile).module
    assert fresh is not variant
    assert _custom_tags(fresh) == 0
    assert _custom_tags(pipeline.baseline) == 0
