"""Evaluation harness caching and measurement plumbing."""

import dataclasses

import pytest

from repro.baselines.jumpswitches import JumpSwitchParams
from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import BY_NAME


@pytest.fixture(scope="module")
def ctx():
    return EvalContext(
        EvalSettings(
            spec=SmallSpec(),
            profile_iterations=1,
            profile_ops_scale=0.05,
            measure_ops_scale=0.1,
        )
    )


def test_profiles_cached(ctx):
    a = ctx.profile("lmbench")
    b = ctx.profile("lmbench")
    assert a is b
    apache = ctx.profile("apache")
    assert apache is not a
    with pytest.raises(ValueError):
        ctx.profile("bogus")


def _fresh(ctx):
    """A context with empty memos over the same kernel: what a cell
    reads when nothing else was evaluated before it."""
    return EvalContext(ctx.settings, kernel=ctx.kernel)


def test_variants_cached_by_config_and_workload(ctx):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    a = ctx.variant(config)
    assert ctx.variant(config) is a
    b = ctx.variant(config, workload_name="apache")
    assert b is not a
    # run_dce is not in the label but is in the key: this build keeps
    # the functions inlining made unreachable, like a fresh context's.
    no_dce = dataclasses.replace(config, run_dce=False)
    assert no_dce.label() == config.label()
    kept = ctx.variant(no_dce)
    with _fresh(ctx) as fresh:
        expected = len(fresh.variant(no_dce).module.functions)
    assert len(kept.module.functions) == expected
    assert expected > len(a.module.functions)


def test_measurements_cached(ctx):
    benches = (BY_NAME["null"], BY_NAME["read"])
    config = PibeConfig.lto_baseline()
    first = ctx.measure(config, benches)
    second = ctx.measure(config, benches)
    assert first is second
    assert set(first) == {"null", "read"}


def test_measurements_keyed_by_config_not_label(ctx):
    """``label()`` drops the non-transient defenses of an all-defenses
    config, so both configs below read alike; their cells must not."""
    benches = (BY_NAME["read"],)
    plain = PibeConfig.lax(DefenseConfig.all_defenses())
    with_cfi = PibeConfig.lax(
        dataclasses.replace(
            DefenseConfig.all_defenses(),
            nontransient=frozenset({NonTransientDefense.LLVM_CFI}),
        )
    )
    assert with_cfi.label() == plain.label()
    first = ctx.measure(plain, benches)
    second = ctx.measure(with_cfi, benches)
    with _fresh(ctx) as fresh:
        assert second == fresh.measure(with_cfi, benches)
    assert second != first


def test_jumpswitches_measurement(ctx):
    benches = (BY_NAME["read"],)
    js = ctx.measure_jumpswitches(benches)
    retp = ctx.measure(
        PibeConfig.hardened(DefenseConfig.retpolines_only()), benches
    )
    lto = ctx.lto_measurements(benches)
    # runtime promotion sits between unoptimized retpolines and vanilla
    assert lto["read"] < js["read"] < retp["read"] * 1.05
    # the memo is keyed by the params too: a costly patcher with one
    # inline target reads what a fresh context reads, not the default
    costly = JumpSwitchParams(max_inline_targets=1, patch_cost=5000.0)
    tuned = ctx.measure_jumpswitches(benches, params=costly)
    with _fresh(ctx) as fresh:
        assert tuned == fresh.measure_jumpswitches(benches, params=costly)
    assert tuned["read"] > js["read"]


def test_fast_settings_reduce_scale():
    fast = EvalSettings.fast()
    assert fast.measure_ops_scale < EvalSettings().measure_ops_scale


# -- lifecycle ---------------------------------------------------------------


def _lifecycle_settings(jobs=2):
    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.1,
        jobs=jobs,
    )


def test_pool_persists_across_measure_many_calls():
    benches = (BY_NAME["null"],)
    with EvalContext(_lifecycle_settings()) as local:
        local.measure_many(
            [
                PibeConfig.lto_baseline(),
                PibeConfig.hardened(DefenseConfig.retpolines_only()),
            ],
            benches,
        )
        pool = local._pool
        assert pool is not None
        local.measure_many(
            [
                PibeConfig.hardened(DefenseConfig.lvi_only()),
                PibeConfig.pibe_baseline(),
            ],
            benches,
        )
        assert local._pool is pool  # reused, not rebuilt per call


def test_close_releases_worker_processes():
    import multiprocessing
    import time

    before = set(multiprocessing.active_children())
    local = EvalContext(_lifecycle_settings())
    local.measure_many(
        [
            PibeConfig.lto_baseline(),
            PibeConfig.hardened(DefenseConfig.retpolines_only()),
        ],
        (BY_NAME["null"],),
    )
    assert local._pool is not None  # the persistent pool is live
    local.close()
    assert local.closed
    assert local._pool is None
    # shutdown(wait=True) reaps the workers; give the OS a beat to
    # deliver the joins, then demand no strays beyond what preexisted.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        leaked = set(multiprocessing.active_children()) - before
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"leaked worker processes: {leaked}"
    local.close()  # idempotent


def test_closed_context_rejects_new_work_but_serves_memo():
    benches = (BY_NAME["null"],)
    config = PibeConfig.lto_baseline()
    with EvalContext(_lifecycle_settings(jobs=1)) as local:
        values = local.measure(config, benches)
    # memoized results stay readable after close...
    assert local.measure(config, benches) is values
    assert local.cached_measurement(config, benches, "lmbench") == values
    # ...but anything that would compute is refused
    with pytest.raises(RuntimeError, match="closed"):
        local.measure(PibeConfig.pibe_baseline(), benches)
    with pytest.raises(RuntimeError, match="closed"):
        local.profile("apache")
    with pytest.raises(RuntimeError, match="closed"):
        local.measure_many([PibeConfig.pibe_baseline()], benches)


def test_cached_measurement_does_not_evaluate():
    benches = (BY_NAME["null"],)
    config = PibeConfig.lto_baseline()
    with EvalContext(_lifecycle_settings(jobs=1)) as local:
        assert local.cached_measurement(config, benches, "lmbench") is None
        assert not local._measurements  # the probe computed nothing
        values = local.measure(config, benches)
        assert local.cached_measurement(config, benches, "lmbench") == values
