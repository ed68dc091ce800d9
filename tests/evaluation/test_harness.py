"""Evaluation harness caching and measurement plumbing."""

import dataclasses
import sys
import types

import pytest

from repro.analysis import stack
from repro.baselines.jumpswitches import JumpSwitchParams
from repro.core.config import PibeConfig
from repro.engine import compiled
from repro.evaluation import harness
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.ir import validate
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import BY_NAME
from repro.workloads.macro import NGINX


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


def test_context_validates_its_kernel_once(monkeypatch):
    passes = []
    original = validate.validate_module

    def counting(module):
        passes.append(module)
        return original(module)

    # Count the passes made through every module that bound the name.
    for module in list(sys.modules.values()):
        if (
            isinstance(module, types.ModuleType)
            and vars(module).get("validate_module") is original
        ):
            monkeypatch.setattr(module, "validate_module", counting)
    with EvalContext(EvalSettings.fast()) as context:
        assert passes == [context.kernel]


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


def test_throughput_and_peak_stack_are_memoized_cells(ctx, monkeypatch):
    runs = {"batches": [], "stack": 0}
    measure_throughput = harness.measure_throughput

    def counting_throughput(*args, **kwargs):
        runs["batches"].append(kwargs["batches"])
        return measure_throughput(*args, **kwargs)

    class CountingTracker(stack.StackUsageTracker):
        def __init__(self):
            runs["stack"] += 1
            super().__init__()

    monkeypatch.setattr(harness, "measure_throughput", counting_throughput)
    # The peak-stack cell imports its tracker when it runs.
    monkeypatch.setattr(stack, "StackUsageTracker", CountingTracker)
    config = PibeConfig.hardened(DefenseConfig.lvi_only())
    first = ctx.throughput(config, NGINX, 2)
    assert ctx.throughput(config, NGINX, 2) is first
    # another batch count is another cell
    more = ctx.throughput(config, NGINX, 3)
    assert more is not first
    assert ctx.throughput(config, NGINX, 3) is more
    assert runs["batches"] == [2, 3]
    peak = ctx.peak_stack(config)
    assert peak > 0
    assert ctx.peak_stack(config) == peak
    assert runs["stack"] == 1
    with _fresh(ctx) as fresh:
        assert fresh.throughput(config, NGINX, 3) == more
        assert fresh.peak_stack(config) == peak


def test_peak_stack_runs_on_the_settings_engine(ctx, monkeypatch):
    """The stack run follows ``settings.engine``; the reference oracle
    reads the same peak as the default engine."""
    from repro.engine.interpreter import Interpreter

    engines = []
    create_interpreter = compiled.create_interpreter

    def recording(*args, **kwargs):
        interpreter = create_interpreter(*args, **kwargs)
        engines.append(type(interpreter))
        return interpreter

    # The peak-stack cell imports the engine when it runs.
    monkeypatch.setattr(compiled, "create_interpreter", recording)
    config = PibeConfig.hardened(DefenseConfig.retpolines_only())
    reference = dataclasses.replace(ctx.settings, engine="reference")
    with EvalContext(reference, kernel=ctx.kernel) as oracle:
        peak = oracle.peak_stack(config)
    assert engines == [Interpreter]
    assert peak == ctx.peak_stack(config)
    assert engines[1] is not Interpreter


def _reference_census(build):
    """A variant's census as the reference analyses compute it."""
    from repro.analysis import (
        forward_edge_census,
        slab_size_bytes,
        text_size_bytes,
    )

    module = build.module
    icp = build.reports.get("indirect-call-promotion")
    return harness.Census(
        icp=None if icp is None else dataclasses.replace(icp, records=[]),
        inline=build.reports.get("pibe-inliner"),
        returns=sum(1 for _ in module.return_sites()),
        icalls=sum(1 for _ in module.indirect_call_sites()),
        forward_edges=forward_edge_census(module),
        text_bytes=text_size_bytes(module),
        slab_bytes=slab_size_bytes(module),
    )


@pytest.mark.parametrize(
    "config",
    [
        PibeConfig.hardened(DefenseConfig.all_defenses()),
        PibeConfig.lax(DefenseConfig.all_defenses()),
    ],
    ids=["unoptimized", "lax"],
)
def test_census_walk_matches_the_reference_analyses(ctx, config):
    """The census cell counts what the reference analyses count on the
    variant built for its config, and keeps the pass reports' totals."""
    build = ctx.variant(config)
    assert ctx.census(config) == _reference_census(build)
    if config.optimized:
        assert build.reports["indirect-call-promotion"].records


def test_census_key_carries_census_version(tmp_path, monkeypatch):
    """A census entry is read back only by the counting code that wrote
    it: bumping ``CENSUS_VERSION`` misses it and counts again."""
    settings = EvalSettings.fast()
    settings = dataclasses.replace(settings, cache_dir=str(tmp_path))
    config = PibeConfig.hardened(DefenseConfig.all_defenses())
    with EvalContext(settings) as cold:
        census = cold.census(config)
    with EvalContext(settings, kernel=cold.kernel) as warm:
        assert warm.census(config) == census
        assert warm.pipeline.stats["staged_builds"] == 0
    monkeypatch.setattr(harness, "CENSUS_VERSION", harness.CENSUS_VERSION + 1)
    with EvalContext(settings, kernel=cold.kernel) as bumped:
        assert bumped.census(config) == census
        assert bumped.pipeline.stats["staged_builds"] == 1
    assert len(list((tmp_path / "census").glob("*.json"))) == 2


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
        throughput = local.throughput(config, NGINX, 1)
    # memoized results stay readable after close...
    assert local.measure(config, benches) is values
    assert local.cached_measurement(config, benches, "lmbench") == values
    assert local.throughput(config, NGINX, 1) is throughput
    # ...but anything that would compute is refused
    with pytest.raises(RuntimeError, match="closed"):
        local.measure(PibeConfig.pibe_baseline(), benches)
    with pytest.raises(RuntimeError, match="closed"):
        local.throughput(config, NGINX, 2)
    with pytest.raises(RuntimeError, match="closed"):
        local.profile("apache")
    with pytest.raises(RuntimeError, match="closed"):
        local.measure_many([PibeConfig.pibe_baseline()], benches)


def test_cached_measurement_does_not_evaluate():
    benches = (BY_NAME["null"],)
    config = PibeConfig.lto_baseline()
    with EvalContext(_lifecycle_settings(jobs=1)) as local:
        assert local.cached_measurement(config, benches, "lmbench") is None
        assert not local._memo  # the probe computed nothing
        values = local.measure(config, benches)
        assert local.cached_measurement(config, benches, "lmbench") == values
