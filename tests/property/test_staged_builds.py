"""Property: for ANY (budget, defense) configuration the staged build —
prefix cache, copy-on-write stamp and all — is bit-identical to the
``validate=True`` reference build of the same config, which runs every
pass through the pass manager from a fresh baseline clone. This is the
differential-testing safety net behind the staged engine's perf claims."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline, deterministic_build_ids
from repro.hardening.defenses import DefenseConfig
from repro.ir.fingerprint import module_fingerprint
from repro.ir.printer import format_module
from repro.ir.validate import validate_module

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CONFIGS = st.sampled_from(
    [
        DefenseConfig.none(),
        DefenseConfig.retpolines_only(),
        DefenseConfig.ret_retpolines_only(),
        DefenseConfig.lvi_only(),
        DefenseConfig.all_defenses(),
    ]
)


@given(
    icp_budget=st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
    inline_budget=st.one_of(
        st.none(), st.floats(min_value=0.05, max_value=1.0)
    ),
    defenses=_CONFIGS,
    lax=st.booleans(),
)
@_SETTINGS
def test_staged_matches_monolithic_for_any_config(
    small_kernel,
    small_profile,
    icp_budget,
    inline_budget,
    defenses,
    lax,
):
    # a per-example pipeline: bit-identity requires prefixes minted inside
    # this example's own id checkpoints, never some earlier allocator state
    fresh_pipeline = PibePipeline(small_kernel)
    config = PibeConfig(
        defenses=defenses,
        icp_budget=icp_budget,
        inline_budget=inline_budget,
        lax_heuristics=lax,
    )
    with deterministic_build_ids():
        mono = fresh_pipeline.build_variant(
            config, small_profile, validate=True
        )
    with deterministic_build_ids():
        staged = fresh_pipeline.build_variant(config, small_profile)
    validate_module(staged.module)
    assert module_fingerprint(staged.module) == module_fingerprint(mono.module)
    assert format_module(staged.module) == format_module(mono.module)
