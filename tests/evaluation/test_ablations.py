"""Ablations of PIBE's design choices (beyond the paper's own tables),
on the fast scale.

1. **Unlimited promotion targets** (Section 5.3): PIBE promotes every
   profiled target of a site, unlike stock LLVM's small per-site cap —
   because a ~2-cycle compare is far cheaper than a ~21-cycle retpoline
   fallback. Capping promotion at 1 target per site leaves multi-target
   sites paying the fallback.
2. **eIBRS vs software mitigation** (Section 6.4): the hardware
   mitigation is cheaper than unoptimized retpolines here, but PIBE'd
   retpolines beat it — while eIBRS additionally fails to stop in-kernel
   training.
3. **Generality** (Section 6): registering a synthetic path-sensitive
   CFI as a custom defense, PIBE's elimination reduces its overhead by a
   large factor too.
4. **Profile fidelity** (Section 1's AutoFDO motivation): an
   AutoFDO-style sampled profile steers the optimizations almost as well
   as exact LBR counting.
"""

import copy

import pytest

from repro.baselines.eibrs import (
    BTBPoisoningOrigin,
    EIBRSTimingModel,
    simulate_eibrs_poisoning,
)
from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.core.report import build_overhead_report
from repro.engine.interpreter import Interpreter
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
    register_defense,
)
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.passes.icp import IndirectCallPromotion
from repro.passes.jumptables import LowerSwitches
from repro.profiling.lifting import lift_profile
from repro.profiling.sampling import SamplingProfiler
from repro.workloads.base import measure_benchmark
from repro.workloads.lmbench import TABLE3_BENCHMARKS, lmbench_workload


@pytest.fixture(scope="module")
def ctx():
    with EvalContext(EvalSettings.fast()) as context:
        yield context


@pytest.fixture
def _clean_registry():
    clear_registry()
    yield
    clear_registry()


def _measure_module(ctx, module, benches=TABLE3_BENCHMARKS):
    return {
        b.name: measure_benchmark(
            module,
            b,
            ops=max(1, int(b.default_ops * ctx.settings.measure_ops_scale)),
            seed=ctx.settings.seed,
        ).cycles_per_op
        for b in benches
    }


def test_ablation_unlimited_promotion_targets(ctx):
    lto = ctx.lto_measurements(TABLE3_BENCHMARKS)
    unlimited = ctx.measure(
        PibeConfig.hardened(
            DefenseConfig.retpolines_only(), icp_budget=0.99999
        ),
        TABLE3_BENCHMARKS,
    )
    # stock-LLVM-style cap: 1 promoted target per site — built manually,
    # the pipeline has no knob for the cap
    module = copy.deepcopy(ctx.kernel)
    LowerSwitches(allow_jump_tables=False).run(module)
    lift_profile(module, ctx.profile("lmbench"))
    IndirectCallPromotion(budget=0.99999, max_targets_per_site=1).run(module)
    HardeningPass(DefenseConfig.retpolines_only()).run(module)
    capped = _measure_module(ctx, module)

    g_unlimited = build_overhead_report("u", lto, unlimited).geomean
    g_capped = build_overhead_report("c", lto, capped).geomean
    assert g_unlimited < g_capped  # unlimited promotion wins
    assert g_capped < 0.5 * build_overhead_report(
        "r",
        lto,
        ctx.measure(
            PibeConfig.hardened(DefenseConfig.retpolines_only()),
            TABLE3_BENCHMARKS,
        ),
    ).geomean + 0.5  # sanity: capped still much better than nothing


def test_ablation_eibrs_vs_software(ctx):
    benches = TABLE3_BENCHMARKS
    lto = ctx.lto_measurements(benches)
    retp_unopt = ctx.measure(
        PibeConfig.hardened(DefenseConfig.retpolines_only()), benches
    )
    retp_pibe = ctx.measure(
        PibeConfig.hardened(
            DefenseConfig.retpolines_only(), icp_budget=0.99999
        ),
        benches,
    )
    # eIBRS: vanilla image, hardware predictor tax
    vanilla = ctx.variant(PibeConfig.lto_baseline()).module
    eibrs = {}
    for bench in benches:
        model = EIBRSTimingModel(vanilla)
        interp = Interpreter(vanilla, [model], seed=ctx.settings.seed)
        ops = max(1, int(bench.default_ops * ctx.settings.measure_ops_scale))
        bench.run(interp, ops=ops)
        eibrs[bench.name] = model.cycles / ops

    g_retp = build_overhead_report("r", lto, retp_unopt).geomean
    g_pibe = build_overhead_report("p", lto, retp_pibe).geomean
    g_eibrs = build_overhead_report("e", lto, eibrs).geomean
    # hardware beats unoptimized software, PIBE beats both
    assert g_pibe < g_eibrs < g_retp
    # ...and eIBRS leaves the same-mode training hole open
    assert simulate_eibrs_poisoning(BTBPoisoningOrigin.KERNEL_EXECUTION)


def test_ablation_custom_path_sensitive_cfi(ctx, _clean_registry):
    """PIBE generalizes to research defenses (path-sensitive CFI)."""
    fwd = register_defense(
        CustomDefense(
            "pscfi_fwd",
            kind="forward",
            cycles=35.0,
            site_expansion_units=4,
            protects=frozenset({"spectre_v2", "lvi"}),
        )
    )
    bwd = register_defense(
        CustomDefense(
            "pscfi_ret",
            kind="backward",
            cycles=28.0,
            site_expansion_units=4,
            protects=frozenset({"ret2spec", "lvi"}),
        )
    )
    unopt = copy.deepcopy(ctx.variant(PibeConfig.lto_baseline()).module)
    opt = copy.deepcopy(ctx.variant(PibeConfig.pibe_baseline()).module)
    CustomHardeningPass(forward=fwd, backward=bwd).run(unopt)
    CustomHardeningPass(forward=fwd, backward=bwd).run(opt)
    lto = ctx.lto_measurements(TABLE3_BENCHMARKS)

    g_unopt = build_overhead_report(
        "u", lto, _measure_module(ctx, unopt)
    ).geomean
    g_opt = build_overhead_report("o", lto, _measure_module(ctx, opt)).geomean
    assert g_unopt > 0.8
    assert g_opt < g_unopt / 4


def test_ablation_sampled_profile_fidelity(ctx):
    """Optimizing with a 1/32-sampled profile recovers most of the win."""
    benches = TABLE3_BENCHMARKS
    lto = ctx.lto_measurements(benches)
    all_def = DefenseConfig.all_defenses()
    unopt = build_overhead_report(
        "u", lto, ctx.measure(PibeConfig.hardened(all_def), benches)
    ).geomean
    exact = build_overhead_report(
        "e", lto, ctx.measure(PibeConfig.lax(all_def), benches)
    ).geomean

    # collect a sampled profile and build a variant from it by hand; the
    # rate scales with the profiling workload so sampling stays
    # meaningful at the reduced scale
    rate = 32 if ctx.settings.profile_ops_scale >= 0.5 else 8
    profiling_copy = copy.deepcopy(ctx.kernel)
    sampler = SamplingProfiler(rate=rate)
    interp = Interpreter(profiling_copy, [sampler], seed=ctx.settings.seed)
    workload = lmbench_workload(ops_scale=ctx.settings.profile_ops_scale)
    for bench, ops in workload.components:
        bench.run(interp, ops=ops)
    sampled_profile = sampler.finish()

    build = PibePipeline(ctx.kernel).build_variant(
        PibeConfig.lax(all_def), sampled_profile
    )
    sampled = build_overhead_report(
        "s", lto, _measure_module(ctx, build.module, benches)
    ).geomean
    assert sampled < unopt / 3   # most of the win survives sampling
    assert sampled < exact + 0.25
