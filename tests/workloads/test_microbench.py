"""Table 1 microbenchmark harness: recovered tick constants."""

import pytest

from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.ir.validate import validate_module
from repro.workloads.microbench import (
    CALL_KINDS,
    build_microbench_module,
    measure_all_ticks,
    measure_ticks,
)


def test_module_shapes():
    for kind in CALL_KINDS:
        module = build_microbench_module(kind)
        validate_module(module)
        assert "driver" in module
    with pytest.raises(ValueError):
        build_microbench_module("tailcall")


def test_uninstrumented_overhead_is_zero():
    for kind in CALL_KINDS:
        ticks = measure_ticks(DefenseConfig.none(), kind, iterations=200)
        assert ticks == pytest.approx(0.0, abs=0.2)


def test_retpoline_ticks_match_table1():
    assert measure_ticks(
        DefenseConfig.retpolines_only(), "icall", iterations=500
    ) == pytest.approx(21.0, abs=0.5)
    # retpolines leave direct calls (and their rets) alone
    assert measure_ticks(
        DefenseConfig.retpolines_only(), "dcall", iterations=500
    ) == pytest.approx(0.0, abs=0.5)


def test_return_retpoline_ticks_uniform_across_kinds():
    config = DefenseConfig.ret_retpolines_only()
    values = [
        measure_ticks(config, kind, iterations=500) for kind in CALL_KINDS
    ]
    assert all(v == pytest.approx(16.0, abs=0.5) for v in values)


def test_lvi_ticks_match_table1():
    config = DefenseConfig.lvi_only()
    assert measure_ticks(config, "dcall", iterations=500) == pytest.approx(
        11.0, abs=0.5
    )
    assert measure_ticks(config, "icall", iterations=500) == pytest.approx(
        20.0, abs=0.5
    )


def test_all_defenses_cost_most():
    all_ticks = measure_all_ticks(
        {
            "retpolines": DefenseConfig.retpolines_only(),
            "all": DefenseConfig.all_defenses(),
        },
        iterations=300,
    )
    for kind in CALL_KINDS:
        assert all_ticks["all"][kind] > all_ticks["retpolines"][kind]


def test_nontransient_defenses_are_cheap():
    cfi = DefenseConfig(
        nontransient=frozenset({NonTransientDefense.LLVM_CFI})
    )
    ticks = measure_ticks(cfi, "icall", iterations=300)
    assert 0 < ticks < 5


def test_all_ticks_measure_each_baseline_once(monkeypatch):
    """``measure_all_ticks`` runs each kind's unhardened baseline once,
    and the shared baseline reads exactly like a freshly measured one."""
    from repro.workloads import microbench

    configs = {
        "retpolines": DefenseConfig.retpolines_only(),
        "all": DefenseConfig.all_defenses(),
    }
    fresh = {
        label: {
            kind: measure_ticks(config, kind, iterations=100)
            for kind in CALL_KINDS
        }
        for label, config in configs.items()
    }
    runs = []
    measure = microbench._measure_cycles

    def counting_measure(module, *args):
        runs.append(module.name)
        return measure(module, *args)

    monkeypatch.setattr(microbench, "_measure_cycles", counting_measure)
    assert measure_all_ticks(configs, iterations=100) == fresh
    # one baseline per kind plus one hardened run per (config, kind)
    assert len(runs) == len(CALL_KINDS) * (1 + len(configs))
