"""SPEC-like userspace suite (Table 1's right column)."""

import pytest

from repro.hardening.defenses import DefenseConfig
from repro.ir.validate import validate_module
from repro.workloads.spec import (
    SPEC_COMPONENTS,
    build_spec_module,
    geomean_slowdown,
    measure_spec_slowdown,
)


def test_module_builds_and_validates():
    module = build_spec_module()
    validate_module(module)
    for comp in SPEC_COMPONENTS:
        assert f"run_{comp.name}" in module


def test_slowdown_ordering_matches_table1():
    iterations = 15
    retpolines = geomean_slowdown(
        measure_spec_slowdown(
            DefenseConfig.retpolines_only(), iterations=iterations
        )
    )
    retret = geomean_slowdown(
        measure_spec_slowdown(
            DefenseConfig.ret_retpolines_only(), iterations=iterations
        )
    )
    all_def = geomean_slowdown(
        measure_spec_slowdown(
            DefenseConfig.all_defenses(), iterations=iterations
        )
    )
    # paper: retpolines 16.1% < return retpolines 23.2% < all 62.0%
    assert 0.05 < retpolines < retret < all_def
    assert all_def > 0.35


def test_memory_bound_components_barely_slow_down():
    slowdowns = measure_spec_slowdown(
        DefenseConfig.retpolines_only(), iterations=10
    )
    # libquantum has no indirect calls at all
    assert slowdowns["libquantum"] == pytest.approx(0.0, abs=0.01)
    assert slowdowns["perlbench"] > slowdowns["libquantum"]


def test_vcall_heavy_components_hit_hardest_by_retpolines():
    slowdowns = measure_spec_slowdown(
        DefenseConfig.retpolines_only(), iterations=10
    )
    assert slowdowns["omnetpp"] > slowdowns["gcc"]


def test_geomean_slowdown_math():
    assert geomean_slowdown({"a": 0.21, "b": 0.21}) == pytest.approx(0.21)
    assert geomean_slowdown({}) == 0.0


def test_all_spec_slowdowns_measure_each_baseline_once(monkeypatch):
    """``measure_all_spec_slowdowns`` runs each component's unhardened
    baseline once; the result equals per-config fresh measurements."""
    from repro.cpu import timing
    from repro.workloads import spec

    configs = {
        "retpolines": DefenseConfig.retpolines_only(),
        "all": DefenseConfig.all_defenses(),
    }
    fresh = {
        label: measure_spec_slowdown(config, iterations=4)
        for label, config in configs.items()
    }
    models = []

    class CountingModel(timing.TimingModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    # The SPEC driver imports its timing model when it runs.
    monkeypatch.setattr(timing, "TimingModel", CountingModel)
    assert spec.measure_all_spec_slowdowns(configs, iterations=4) == fresh
    # one baseline per component plus one hardened run per (config, comp)
    assert len(models) == len(SPEC_COMPONENTS) * (1 + len(configs))
