"""The two-phase PIBE pipeline."""

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import applied_config
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.validate import ValidationError, validate_module
from repro.workloads.lmbench import lmbench_workload


def test_baseline_never_mutated(small_pipeline, small_profile):
    kernel = small_pipeline.baseline
    size_before = kernel.size()
    small_pipeline.build_variant(
        PibeConfig.lax(DefenseConfig.all_defenses()), small_profile
    )
    assert kernel.size() == size_before
    assert applied_config(kernel) == DefenseConfig.none()


def test_malformed_baseline_rejected():
    # The pipeline's check is the only one a parsed module meets
    # (``repro optimize -k file.ll``).
    module = Module("m")
    module.add_function(build_leaf("leaf"))
    caller = Function("caller")
    builder = IRBuilder(caller)
    builder.call("ghost")
    builder.ret()
    module.add_function(caller)
    with pytest.raises(ValidationError, match="undefined @ghost"):
        PibePipeline(module)


def test_optimized_config_requires_profile(small_pipeline):
    with pytest.raises(ValueError, match="needs a profile"):
        small_pipeline.build_variant(PibeConfig.pibe_baseline())


def test_unoptimized_variant_without_profile(small_pipeline):
    build = small_pipeline.build_variant(
        PibeConfig.hardened(DefenseConfig.retpolines_only())
    )
    validate_module(build.module)
    assert build.reports["hardening"].protected_icalls > 0
    assert "indirect-call-promotion" not in build.reports


def test_full_variant_reports_present(hardened_build):
    reports = hardened_build.reports
    for name in (
        "lower-switches",
        "indirect-call-promotion",
        "pibe-inliner",
        "simplify-cfg",
        "dead-function-elimination",
        "hardening",
    ):
        assert name in reports, name
    assert hardened_build.label


def test_jump_tables_follow_defense_config(small_pipeline):
    vanilla = small_pipeline.build_variant(PibeConfig.lto_baseline())
    assert vanilla.reports["lower-switches"].jump_tables_emitted > 0
    hardened = small_pipeline.build_variant(
        PibeConfig.hardened(DefenseConfig.retpolines_only())
    )
    assert hardened.reports["lower-switches"].jump_tables_emitted == 0


def test_validate_mode(small_pipeline, small_profile):
    build = small_pipeline.build_variant(
        PibeConfig.hardened(
            DefenseConfig.all_defenses(), icp_budget=0.99, inline_budget=0.99
        ),
        small_profile,
        validate=True,
    )
    validate_module(build.module)


def test_default_inliner_variant(small_pipeline, small_profile):
    build = small_pipeline.build_variant(
        PibeConfig(
            defenses=DefenseConfig.all_defenses(),
            icp_budget=0.99,
            inline_budget=0.99,
            use_default_inliner=True,
        ),
        small_profile,
    )
    assert "default-inliner" in build.reports
    assert "pibe-inliner" not in build.reports


def test_dce_shrinks_unoptimized_image(small_pipeline):
    with_dce = small_pipeline.build_variant(PibeConfig.lto_baseline())
    without = small_pipeline.build_variant(
        PibeConfig(run_dce=False)
    )
    assert len(with_dce.module) <= len(without.module)


def test_profile_phase_runs_on_a_copy(small_kernel):
    pipeline = PibePipeline(small_kernel)
    profile = pipeline.profile(
        lmbench_workload(ops_scale=0.01), iterations=1
    )
    assert profile.total_weight() > 0
    # profiling never leaves metadata on the baseline
    from repro.ir.types import ATTR_EDGE_COUNT

    assert not any(
        ATTR_EDGE_COUNT in inst.attrs for inst in small_kernel.instructions()
    )
