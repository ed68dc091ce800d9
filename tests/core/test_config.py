"""PibeConfig named configurations and labels."""

import pytest

from repro.core.config import (
    KERNEL_CALLEE_THRESHOLD,
    KERNEL_CALLER_THRESHOLD,
    PibeConfig,
)
from repro.hardening.defenses import DefenseConfig


def test_lto_baseline_is_unoptimized_and_undefended():
    config = PibeConfig.lto_baseline()
    assert not config.optimized
    assert not config.defenses.any_transient


def test_pibe_baseline_is_pgo_without_defenses():
    config = PibeConfig.pibe_baseline()
    assert config.optimized
    assert config.lax_heuristics
    assert not config.defenses.any_transient


def test_lax_configuration_matches_paper():
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    assert config.icp_budget == pytest.approx(0.999999)
    assert config.inline_budget == pytest.approx(0.999999)
    assert config.lax_heuristics


def test_default_thresholds_are_kernel_scaled():
    config = PibeConfig()
    assert config.caller_threshold == KERNEL_CALLER_THRESHOLD == 2_000
    assert config.callee_threshold == KERNEL_CALLEE_THRESHOLD == 450


def test_paper_thresholds_can_be_requested():
    config = PibeConfig(caller_threshold=12_000, callee_threshold=3_000)
    assert config.caller_threshold == 12_000


def test_labels_disambiguate_configs():
    a = PibeConfig.hardened(DefenseConfig.all_defenses(), icp_budget=0.99)
    b = PibeConfig.hardened(DefenseConfig.all_defenses(), icp_budget=0.999)
    assert a.label() != b.label()
    assert "all-defenses" in a.label()
    lax = PibeConfig.lax(DefenseConfig.lvi_only())
    assert "lax" in lax.label()
    default = PibeConfig(
        defenses=DefenseConfig.none(),
        icp_budget=0.99,
        inline_budget=0.99,
        use_default_inliner=True,
    )
    assert "default-inliner" in default.label()


def test_config_frozen_and_hashable():
    a = PibeConfig.lax(DefenseConfig.all_defenses())
    b = PibeConfig.lax(DefenseConfig.all_defenses())
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("budget", [0, -1, 2.0, float("nan"), True, "0.5"])
def test_budgets_outside_the_rule_are_rejected(budget):
    for field in ("icp_budget", "inline_budget"):
        with pytest.raises(ValueError, match=r"must be a number in \(0, 1\]"):
            PibeConfig(**{field: budget})


def test_budgets_are_floats_and_thresholds_integers():
    assert PibeConfig(icp_budget=1).icp_budget == 1.0
    assert isinstance(PibeConfig(icp_budget=1).icp_budget, float)
    for field in ("caller_threshold", "callee_threshold"):
        for value in (True, 1.5):
            with pytest.raises(ValueError, match="must be an integer"):
                PibeConfig(**{field: value})
