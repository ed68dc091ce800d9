"""Property: ANY budget ladder, visited in ANY order, built through the
delta prefix engine (one shared decision basis per profile/jump-table
axis) is bit-identical to independent ``validate=True`` reference builds
of the same configs (every pass through the pass manager from a fresh
baseline clone). This is the differential safety net behind the
incremental engine's perf claims — order-insensitivity is the part the
example-based ladder tests cannot cover."""

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

#: none keeps jump tables, retpolines disables them — the two decision
#: basis axes of the delta engine.
_DEFENSES = st.sampled_from(
    [DefenseConfig.none(), DefenseConfig.retpolines_only()]
)

_BUDGETS = st.lists(
    st.floats(min_value=0.05, max_value=1.0),
    min_size=1,
    max_size=4,
    unique=True,
)


@given(
    budgets=_BUDGETS,
    defenses=_DEFENSES,
    lax=st.booleans(),
    default_inliner=st.booleans(),
)
@_SETTINGS
def test_random_ladder_delta_matches_cold(
    small_kernel,
    small_profile,
    budgets,
    defenses,
    lax,
    default_inliner,
):
    # a fresh pipeline per example: bit-identity requires prefixes minted
    # inside this example's own id checkpoints
    delta = PibePipeline(small_kernel)
    for budget in budgets:  # hypothesis shuffles the ladder order
        config = PibeConfig(
            defenses=defenses,
            icp_budget=budget,
            inline_budget=budget,
            lax_heuristics=lax,
            use_default_inliner=default_inliner,
        )
        with deterministic_build_ids():
            d = delta.build_variant(config, small_profile)
        with deterministic_build_ids():
            r = delta.build_variant(config, small_profile, validate=True)
        validate_module(d.module)
        assert module_fingerprint(d.module) == module_fingerprint(r.module)
        assert format_module(d.module) == format_module(r.module)
    assert delta.stats["prefix_delta_builds"] == len(budgets)
    assert len(delta._basis_memo) == 1
