"""Fault injection against the evaluation stack: crashes, hangs,
transient exceptions and cache corruption must cost at most the affected
cell, never the regeneration."""

import json

import pytest

from repro import faults
from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings, cell_label
from repro.faults import FaultPlan, FaultSpec, InjectedFault, default_stress_plan
from repro.hardening.defenses import DefenseConfig
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import BY_NAME

BENCHES = (BY_NAME["null"],)


@pytest.fixture(autouse=True)
def _isolated_faults():
    """Never leak a plan into (or out of) a test."""
    faults.clear()
    yield
    faults.clear()


def _settings(tmp_path=None, **kw):
    kw.setdefault("retry_backoff", 0.01)
    kw.setdefault("cell_timeout", 60.0)
    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.1,
        cache_dir=str(tmp_path) if tmp_path is not None else None,
        **kw,
    )


def _configs(n):
    """``n`` distinct measurement cells (a baseline plus budget variants)."""
    budgets = (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)
    pool = [
        PibeConfig.lto_baseline(),
        PibeConfig.hardened(DefenseConfig.retpolines_only()),
    ]
    for b in budgets:
        pool.append(
            PibeConfig.hardened(
                DefenseConfig.retpolines_only(), icp_budget=b, inline_budget=b
            )
        )
    for b in budgets:
        pool.append(
            PibeConfig.hardened(
                DefenseConfig.all_defenses(), icp_budget=b, inline_budget=b
            )
        )
    assert n <= len(pool)
    return pool[:n]


# -- plan / runtime primitives ----------------------------------------------


def test_plan_json_roundtrip():
    plan = default_stress_plan()
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.specs == plan.specs


def test_plan_from_env_inline_and_file(tmp_path, monkeypatch):
    plan = FaultPlan(specs=[FaultSpec(point="p", mode="raise", times=None)])
    monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
    assert FaultPlan.from_env().specs == plan.specs
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(), encoding="utf-8")
    monkeypatch.setenv(faults.ENV_VAR, str(path))
    assert FaultPlan.from_env().specs == plan.specs
    monkeypatch.delenv(faults.ENV_VAR)
    assert FaultPlan.from_env() is None


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        FaultSpec(point="p", mode="explode")
    with pytest.raises(ValueError):
        FaultSpec(point="p", mode="raise", times=0)


def test_fire_counts_activations_and_matches_labels():
    faults.install(
        FaultPlan(specs=[FaultSpec(point="p", mode="raise", match="hot*", times=2)])
    )
    assert faults.fire("p", "cold cell") is None  # label mismatch
    assert faults.fire("other", "hot cell") is None  # point mismatch
    with pytest.raises(InjectedFault):
        faults.fire("p", "hot cell")
    with pytest.raises(InjectedFault):
        faults.fire("p", "hot cell")
    assert faults.fire("p", "hot cell") is None  # budget exhausted


def test_data_modes_returned_not_raised():
    faults.install(
        FaultPlan(specs=[FaultSpec(point="cache.put", mode="corrupt", times=1)])
    )
    spec = faults.fire("cache.put", "measure")
    assert spec is not None and spec.mode == "corrupt"
    assert faults.fire("cache.put", "measure") is None


def test_crash_softened_outside_workers():
    faults.install(
        FaultPlan(specs=[FaultSpec(point="p", mode="crash", times=None)])
    )
    # in the orchestrator process a crash must never kill the process
    with pytest.raises(InjectedFault):
        faults.fire("p", "x")


# -- measure_many under faults ----------------------------------------------


def test_transient_exception_retries_to_success_sequential():
    configs = _configs(2)
    faults.install(
        FaultPlan(specs=[FaultSpec(point="measure.cell", mode="raise", times=1)])
    )
    ctx = EvalContext(_settings(jobs=1, max_retries=2))
    results = ctx.measure_many(configs, BENCHES)
    report = results.failure_report
    assert all(r is not None for r in results)
    assert report.ok
    assert report.retries == 1
    assert report.total_cells == 2


def test_permanent_failure_reported_sequential():
    configs = _configs(3)
    bad = cell_label(configs[1], "lmbench")
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="measure.cell", mode="raise", match=bad, times=None
                )
            ]
        )
    )
    ctx = EvalContext(_settings(jobs=1, max_retries=1))
    results = ctx.measure_many(configs, BENCHES)
    report = results.failure_report
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    assert report.failed_labels() == [bad]
    assert report.failed_indices() == [1]
    failure = report.failures[0]
    assert failure.kind == "exception"
    assert failure.attempts == 2  # initial + max_retries
    assert "injected fault" in failure.error


def test_crashing_worker_completed_cells_survive(tmp_path):
    """A worker crash mid-batch costs a pool rebuild, not the results."""
    configs = _configs(4)
    crash = cell_label(configs[2], "lmbench")
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="measure.cell", mode="crash", match=crash, times=1
                )
            ]
        )
    )
    ctx = EvalContext(_settings(tmp_path, jobs=2, max_retries=2))
    results = ctx.measure_many(configs, BENCHES)
    report = results.failure_report
    assert all(r is not None for r in results)
    assert report.ok
    assert report.retries >= 1  # the crashed cell was resubmitted
    # identical to an undisturbed sequential run
    faults.clear()
    baseline = EvalContext(_settings(jobs=1)).measure_many(configs, BENCHES)
    assert list(results) == list(baseline)


def test_hanging_worker_times_out_and_recovers(tmp_path):
    configs = _configs(3)
    hang = cell_label(configs[1], "lmbench")
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="measure.cell",
                    mode="hang",
                    match=hang,
                    times=1,
                    seconds=30.0,
                )
            ]
        )
    )
    ctx = EvalContext(
        _settings(tmp_path, jobs=2, max_retries=2, cell_timeout=2.0)
    )
    results = ctx.measure_many(configs, BENCHES)
    report = results.failure_report
    assert all(r is not None for r in results)
    assert report.ok
    assert report.retries >= 1


def test_corrupt_cache_entry_quarantined_and_recomputed(tmp_path):
    config = _configs(1)[0]
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="cache.put", mode="corrupt", match="measure", times=1
                )
            ]
        )
    )
    cold = EvalContext(_settings(tmp_path))
    baseline = cold.measure(config, BENCHES)
    faults.clear()
    # warm run meets the corrupt entry: quarantined, recomputed, rewritten
    warm = EvalContext(_settings(tmp_path), kernel=cold.kernel)
    assert warm.measure(config, BENCHES) == baseline
    assert warm.cache.stats()["corrupt"] == 1
    assert list(warm.cache.quarantine_dir().iterdir())
    # third run: the rewritten entry serves a clean hit
    third = EvalContext(_settings(tmp_path), kernel=cold.kernel)
    assert third.measure(config, BENCHES) == baseline
    stats = third.cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (1, 0, 0)


def test_truncated_write_also_quarantined(tmp_path):
    config = _configs(1)[0]
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="cache.put", mode="truncate", match="measure", times=1
                )
            ]
        )
    )
    cold = EvalContext(_settings(tmp_path))
    baseline = cold.measure(config, BENCHES)
    faults.clear()
    warm = EvalContext(_settings(tmp_path), kernel=cold.kernel)
    assert warm.measure(config, BENCHES) == baseline
    assert warm.cache.stats()["corrupt"] == 1


def test_acceptance_scenario_partial_table_with_exact_failures(tmp_path):
    """The issue's acceptance bar: crash one worker, corrupt one cache
    entry, one transient and one permanent fault over >= 8 configs; every
    non-failed cell has a result, the transient retries to success, and
    the report lists exactly the permanent failure."""
    configs = _configs(8)
    crash = cell_label(configs[3], "lmbench")
    transient = cell_label(configs[5], "lmbench")
    permanent = cell_label(configs[6], "lmbench")
    faults.install(
        FaultPlan(
            specs=[
                FaultSpec(
                    point="measure.cell", mode="crash", match=crash, times=1
                ),
                FaultSpec(
                    point="measure.cell",
                    mode="raise",
                    match=transient,
                    times=2,
                ),
                FaultSpec(
                    point="measure.cell",
                    mode="raise",
                    match=permanent,
                    times=None,
                ),
                FaultSpec(
                    point="cache.put", mode="corrupt", match="measure", times=1
                ),
            ]
        )
    )
    ctx = EvalContext(_settings(tmp_path, jobs=2, max_retries=2))
    results = ctx.measure_many(configs, BENCHES)
    report = results.failure_report

    assert len(results) == 8
    for i, values in enumerate(results):
        if i == 6:
            assert values is None
        else:
            assert values is not None, f"cell {i} lost"
    assert report.failed_labels() == [permanent]
    assert report.retries >= 3  # crash resubmit + 2 transient retries
    assert not report.ok
    # the report serializes for the CLI artifact
    payload = json.loads(report.to_json())
    assert payload["total_cells"] == 8
    assert payload["completed_cells"] == 7
    assert [f["label"] for f in payload["failures"]] == [permanent]

    # non-failed cells match an undisturbed sequential regeneration
    faults.clear()
    baseline = EvalContext(_settings(jobs=1)).measure_many(configs, BENCHES)
    for i in range(8):
        if i != 6:
            assert results[i] == baseline[i]


def test_no_faults_parallel_identical_to_sequential(tmp_path):
    configs = _configs(3)
    par = EvalContext(_settings(tmp_path, jobs=2)).measure_many(
        configs, BENCHES
    )
    seq = EvalContext(_settings(jobs=1)).measure_many(configs, BENCHES)
    assert list(par) == list(seq)
    assert par.failure_report.ok
    assert par.failure_report.retries == 0
    assert seq.failure_report.ok
