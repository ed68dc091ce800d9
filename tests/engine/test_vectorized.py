"""Vectorized engine: differential equivalence in counting mode.

The vectorized engine batches execution into count vectors, so it cannot
(and does not) replay the event stream — but for counting sinks its
totals must be *bit-identical* to running the reference or compiled
engine under the same :class:`CountingTimingModel`, and the edge profile
a :class:`KernelProfiler` collects must be identical too. Every test
here runs all three engines and compares cycles, counters, event totals
and profiles exactly; fallback tests check that non-counting sinks still
see the exact compiled event stream.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.cpu.counting import (
    CountingTimingModel,
    CountSummary,
    counting_cycles,
)
from repro.engine import compiled
from repro.engine.compiled import create_interpreter
from repro.engine.interpreter import ExecutionError, ExecutionLimits
from repro.engine.trace import TraceRecorder
from repro.engine.vectorized import VectorizedInterpreter, vector_program
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SCALED_SPEC, SmallSpec
from repro.profiling.profile_data import EdgeProfile
from repro.profiling.profiler import KernelProfiler
from repro.workloads.base import profile_workload
from repro.workloads.lmbench import engine_workload, lmbench_workload

from ..property.strategies import deterministic_modules

ALL_ENGINES = ("reference", "compiled", "vectorized")


def _rich_module():
    """Every construct in one function: mixes, direct calls, sticky
    multi-target icalls, trip loops, stochastic branches, switches."""
    module = Module("rich")
    for name in ("tgt_a", "tgt_b", "tgt_c"):
        module.add_function(build_leaf(name))
    func = Function("f")
    b = IRBuilder(func)
    head = b.new_block("head")
    after = b.new_block("after")
    c0 = b.new_block("c0")
    c1 = b.new_block("c1")
    out = b.new_block("out")
    t = b.new_block("t")
    e = b.new_block("e")
    b.arith(3)
    b.load(2)
    b.store(1)
    b.call("tgt_a")
    b.jmp(head.label)
    b.at(head).arith(1)
    b.at(head).icall({"tgt_a": 3, "tgt_b": 2, "tgt_c": 1})
    b.at(head).br(head.label, after.label, trip=3)
    b.at(after).switch([c0.label, c1.label], weights=[3.0, 1.0])
    b.at(c0).arith(2)
    b.at(c0).jmp(out.label)
    b.at(c1).store(2)
    b.at(c1).jmp(out.label)
    b.at(out).br(t.label, e.label, p_taken=0.4)
    b.at(t).arith(5)
    b.at(t).ret()
    b.at(e).load(4)
    b.at(e).ret()
    module.add_function(func)
    return module


def _counting_run(module, engine, runs, seed=0, limits=None):
    """Run ``[(entry, times), ...]`` under a counting sink; return every
    observable the sink and interpreter expose."""
    sink = CountingTimingModel(module)
    interp = create_interpreter(
        module, [sink], seed=seed, limits=limits, engine=engine
    )
    for entry, times in runs:
        interp.run_function(entry, times=times)
    return {
        "cycles": sink.cycles,
        "ops": sink.ops,
        "counters": dict(sink.counters),
        "events": sink.total_events,
        "defense": sink.total_defense_cycles,
        "summary": sink.summary.as_dict(),
        "steps": interp._steps,
    }


def _profile_run(module, engine, runs, seed=0, limits=None, syscalls=False):
    """Run ``[(entry, times), ...]`` under a :class:`KernelProfiler`;
    return the finished profile's JSON and digest."""
    profiler = KernelProfiler(workload="t")
    interp = create_interpreter(
        module, [profiler], seed=seed, limits=limits, engine=engine
    )
    run = interp.run_syscall if syscalls else interp.run_function
    for entry, times in runs:
        run(entry, times=times)
    profile = profiler.finish()
    return {"json": profile.to_json(), "digest": profile.digest()}


def _assert_all_equal(results):
    assert results["vectorized"] == results["reference"]
    assert results["compiled"] == results["reference"]


@pytest.fixture(scope="module")
def lax_pipeline():
    """The SmallSpec pipeline and the profile its lax variants build on."""
    pipeline = PibePipeline(build_kernel(SmallSpec()))
    profile = pipeline.profile(lmbench_workload(), iterations=1, ops_scale=0.1)
    return pipeline, profile


@pytest.fixture(scope="module")
def scaled_module():
    """The 10x ScaledSpec kernel with all defenses (read-only)."""
    module = build_kernel(SCALED_SPEC)
    HardeningPass(DefenseConfig.all_defenses()).run(module)
    module.bump_version()
    return module


HARDENED_CONFIGS = [
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
]


@pytest.mark.parametrize("seed", [0, 3, 7, 23])
def test_counting_equivalence_rich(seed):
    module = _rich_module()
    _assert_all_equal(
        {
            engine: _counting_run(module, engine, [("f", 200)], seed=seed)
            for engine in ALL_ENGINES
        }
    )


@pytest.mark.parametrize("config", HARDENED_CONFIGS, ids=lambda c: c.label())
def test_hardened_kernel_counting_equivalence(config, lax_pipeline):
    """Optimized + hardened SmallSpec variants (the tier-1 fixtures)
    produce identical counting totals under all three engines."""
    pipeline, profile = lax_pipeline
    build = pipeline.build_variant(PibeConfig.lax(config), profile)
    results = {}
    for engine in ALL_ENGINES:
        sink = CountingTimingModel(build.module)
        interp = create_interpreter(build.module, [sink], seed=11, engine=engine)
        interp.run_syscall("read", times=40)
        interp.run_syscall("select_file", times=10)
        results[engine] = {
            "cycles": sink.cycles,
            "counters": dict(sink.counters),
            "events": sink.total_events,
        }
    _assert_all_equal(results)


def test_scaled_kernel_counting_equivalence(scaled_module):
    """The 10x ScaledSpec kernel — the bench target — agrees exactly
    across engines on a slice of the engine workload."""
    module = scaled_module
    workload = engine_workload(ops_scale=0.05)
    results = {}
    for engine in ALL_ENGINES:
        sink = CountingTimingModel(module)
        interp = create_interpreter(module, [sink], seed=7, engine=engine)
        for bench, ops in workload.components:
            entry, _ = bench.syscalls[0]
            interp.run_syscall(entry, times=ops)
        results[engine] = {
            "cycles": sink.cycles,
            "events": sink.total_events,
            "counters": dict(sink.counters),
        }
    assert results["reference"]["events"] > 0
    _assert_all_equal(results)


@given(
    module=deterministic_modules(deterministic_icalls=False),
    retpolines=st.booleans(),
    ret_retpolines=st.booleans(),
    lvi_cfi=st.booleans(),
    seed=st.integers(0, 1_000),
    times=st.integers(1, 3),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_counting_equivalence(
    module, retpolines, ret_retpolines, lvi_cfi, seed, times
):
    """Random modules under random defense configs count identically."""
    config = DefenseConfig(
        retpolines=retpolines, ret_retpolines=ret_retpolines, lvi_cfi=lvi_cfi
    )
    HardeningPass(config).run(module)
    module.bump_version()
    _assert_all_equal(
        {
            engine: _counting_run(module, engine, [("fn0", times)], seed=seed)
            for engine in ALL_ENGINES
        }
    )


# -- edge profiles ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7, 23])
def test_profile_equivalence_rich(seed):
    """Sticky icalls, trip loops, switches: one profile on every engine."""
    module = _rich_module()
    _assert_all_equal(
        {
            engine: _profile_run(module, engine, [("f", 200)], seed=seed)
            for engine in ALL_ENGINES
        }
    )


@pytest.mark.parametrize("config", HARDENED_CONFIGS, ids=lambda c: c.label())
def test_hardened_kernel_profile_equivalence(config, lax_pipeline):
    """ICP'd, inlined and hardened variants profile identically."""
    pipeline, profile = lax_pipeline
    build = pipeline.build_variant(PibeConfig.lax(config), profile)
    runs = [("read", 40), ("select_file", 10), ("open", 10)]
    _assert_all_equal(
        {
            engine: _profile_run(
                build.module, engine, runs, seed=11, syscalls=True
            )
            for engine in ALL_ENGINES
        }
    )


def test_scaled_kernel_profile_equivalence(scaled_module):
    """A wide profile run on the ScaledSpec kernel matches event replay.

    Its flush touches more rows than the numpy threshold, yet takes the
    sparse pure-python path: the profiler reads only profile buckets."""
    runs = [
        (bench.syscalls[0][0], ops)
        for bench, ops in engine_workload(ops_scale=0.05).components
    ]
    results = {
        engine: _profile_run(
            scaled_module, engine, runs, seed=7, syscalls=True
        )
        for engine in ALL_ENGINES
    }
    assert json.loads(results["reference"]["json"])["indirect"]
    _assert_all_equal(results)


def test_profile_collapsed_trip_loop_with_folded_call():
    """A trip loop that collapses to ``row x (trip + 1)`` scales the
    call edges of the deterministic callee folded into its body."""
    module = _rich_module()
    module.add_function(build_leaf("leaf"))
    callee = Function("det")
    b = IRBuilder(callee)
    b.call("leaf")
    b.ret()
    module.add_function(callee)
    func = Function("loop")
    b = IRBuilder(func)
    after = b.new_block("after")
    b.arith(1)
    b.call("det")
    b.br("entry", after.label, trip=4)
    b.at(after).call("f")  # stochastic: keeps "loop" itself unfolded
    b.at(after).ret()
    module.add_function(func)
    results = {
        engine: _profile_run(module, engine, [("loop", 30)], seed=5)
        for engine in ALL_ENGINES
    }
    _assert_all_equal(results)
    loop = vector_program(module).functions["loop"]
    assert not loop.det
    assert loop.entry.term[-1], "the trip loop did not collapse"
    profile = EdgeProfile.from_json(results["vectorized"]["json"])
    assert profile.invocations["det"] == 30 * 5
    assert profile.invocations["leaf"] == 30 * 5


@given(
    module=deterministic_modules(deterministic_icalls=False),
    seed=st.integers(0, 1_000),
    times=st.integers(1, 3),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_profile_equivalence(module, seed, times):
    """Random modules profile identically on every engine."""
    _assert_all_equal(
        {
            engine: _profile_run(module, engine, [("fn0", times)], seed=seed)
            for engine in ALL_ENGINES
        }
    )


def test_profile_workload_routing(monkeypatch, small_kernel):
    """Profiles run on the vectorized engine unless the caller asks for
    the reference oracle, which still replays event by event."""
    engines = []
    real = compiled.create_interpreter

    def spy(*args, **kwargs):
        engines.append(kwargs["engine"])
        return real(*args, **kwargs)

    # profile_workload imports the engine when it runs.
    monkeypatch.setattr(compiled, "create_interpreter", spy)
    workload = lmbench_workload(ops_scale=0.02)
    profiles = {
        engine: profile_workload(
            small_kernel, workload, iterations=1, engine=engine
        )
        for engine in ("reference", "compiled")
    }
    assert engines == ["reference", "vectorized"]
    assert profiles["compiled"].digest() == profiles["reference"].digest()


def test_profiling_never_imports_numpy():
    """Importing the package, the CLI and the server, and collecting a
    profile, leave numpy unimported: only wide counting flushes use it."""
    code = (
        "import sys\n"
        "import repro, repro.engine, repro.tools.cli, repro.serve.server\n"
        "from repro.core.pipeline import PibePipeline\n"
        "from repro.kernel.generator import build_kernel\n"
        "from repro.kernel.spec import SmallSpec\n"
        "from repro.workloads.lmbench import lmbench_workload\n"
        "profile = PibePipeline(build_kernel(SmallSpec())).profile(\n"
        "    lmbench_workload(ops_scale=0.05), iterations=1)\n"
        "assert profile.total_weight() > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr


def test_noncounting_sink_falls_back_to_exact_events():
    """A TraceRecorder cannot absorb counts, so the vectorized engine
    must delegate and replay the exact compiled event stream."""
    module = _rich_module()
    events = {}
    for engine in ("compiled", "vectorized"):
        recorder = TraceRecorder()
        create_interpreter(module, [recorder], seed=9, engine=engine).run_function(
            "f", times=50
        )
        events[engine] = recorder.events
    assert events["vectorized"] == events["compiled"]


def test_mixed_sinks_fall_back_together():
    """One non-counting sink demotes the whole run: both sinks then see
    exactly what the compiled engine would feed them."""
    module = _rich_module()
    results = {}
    for engine in ("compiled", "vectorized"):
        counting = CountingTimingModel(module)
        recorder = TraceRecorder()
        create_interpreter(
            module, [counting, recorder], seed=4, engine=engine
        ).run_function("f", times=30)
        results[engine] = (counting.cycles, dict(counting.counters), recorder.events)
    assert results["vectorized"] == results["compiled"]


def test_error_parity_unterminated_block():
    module = Module("m")
    func = Function("f")
    IRBuilder(func).arith(1)  # no terminator
    module.add_function(func)
    for engine in ALL_ENGINES:
        with pytest.raises(ExecutionError, match="unterminated"):
            create_interpreter(
                module, [CountingTimingModel(module)], engine=engine
            ).run_function("f")


def test_error_parity_undefined_callee():
    module = Module("m")
    func = Function("f")
    b = IRBuilder(func)
    b.call("ghost")
    b.ret()
    module.add_function(func)
    for engine in ALL_ENGINES:
        with pytest.raises(ExecutionError, match="undefined @ghost"):
            create_interpreter(
                module, [CountingTimingModel(module)], engine=engine
            ).run_function("f")


def test_error_parity_step_limit():
    """An infinite deterministic loop folds into a superblock chain; the
    walker must still hit the step limit like the other engines."""
    module = Module("m")
    func = Function("f")
    b = IRBuilder(func)
    head = b.new_block("head")
    b.jmp(head.label)
    b.at(head).arith(1)
    b.at(head).jmp(head.label)
    module.add_function(func)
    limits = ExecutionLimits(max_steps=1_000)
    for engine in ALL_ENGINES:
        with pytest.raises(ExecutionError, match="step limit"):
            create_interpreter(
                module,
                [CountingTimingModel(module)],
                limits=limits,
                engine=engine,
            ).run_function("f")


def test_error_parity_depth_limit():
    """Deep deterministic call chains may not be silently folded past the
    depth rail — the limit must fire exactly as in the reference."""
    module = Module("m")
    depth = 40
    module.add_function(build_leaf(f"fn{depth}"))
    for i in reversed(range(depth)):
        func = Function(f"fn{i}")
        b = IRBuilder(func)
        b.call(f"fn{i + 1}")
        b.ret()
        module.add_function(func)
    limits = ExecutionLimits(max_depth=10)
    for engine in ALL_ENGINES:
        with pytest.raises(ExecutionError, match="call depth exceeded"):
            create_interpreter(
                module,
                [CountingTimingModel(module)],
                limits=limits,
                engine=engine,
            ).run_function("fn0")
    # and with a generous rail all three agree on the counts
    _assert_all_equal(
        {
            engine: _counting_run(module, engine, [("fn0", 3)])
            for engine in ALL_ENGINES
        }
    )
    # Profiles agree at the exact rail, where the whole chain folds, and
    # one frame short, where the vectorized engine walks the folded
    # subtree call by call. Each function's only step is the failing
    # call, so even the aborted run credits exactly the same edges.
    exact = ExecutionLimits(max_depth=depth)
    _assert_all_equal(
        {
            engine: _profile_run(module, engine, [("fn0", 3)], limits=exact)
            for engine in ALL_ENGINES
        }
    )
    aborted = {}
    for engine in ALL_ENGINES:
        profiler = KernelProfiler(workload="t")
        interp = create_interpreter(
            module,
            [profiler],
            limits=ExecutionLimits(max_depth=depth - 1),
            engine=engine,
        )
        interp.run_function("fn3", times=2)  # fits the rail: folded
        with pytest.raises(ExecutionError, match="call depth exceeded"):
            interp.run_function("fn0")
        aborted[engine] = profiler.finish().to_json()
    _assert_all_equal(aborted)


def test_vector_program_cache_reuse_and_invalidation():
    module = _rich_module()
    first = vector_program(module)
    assert vector_program(module) is first
    module.bump_version()
    second = vector_program(module)
    assert second is not first
    assert vector_program(module) is second


def test_transform_invalidates_counts():
    """Mutating IR + bump_version changes what the vectorized engine
    counts (no stale superblock summaries)."""
    module = Module("m")
    func = Function("f")
    b = IRBuilder(func)
    b.arith(1)
    b.ret()
    module.add_function(func)
    before = _counting_run(module, "vectorized", [("f", 1)])
    func.entry.instructions.insert(0, func.entry.instructions[0].clone())
    module.bump_version()
    after = _counting_run(module, "vectorized", [("f", 1)])
    assert after["summary"]["arith"] == 2 * before["summary"]["arith"]


def test_pure_python_flush_matches_numpy(monkeypatch):
    """Without numpy the flush path switches to pure-python scaled adds;
    totals stay bit-identical."""
    import repro.engine.vectorized as vec

    module = _rich_module()
    if vec._np is not None:
        # force the numpy matrix product even on this tiny program
        monkeypatch.setattr(vec, "_NUMPY_FLUSH_MIN_ROWS", 1)
    with_np = _counting_run(module, "vectorized", [("f", 120)], seed=13)
    monkeypatch.setattr(vec, "_np", None)
    without_np = _counting_run(module, "vectorized", [("f", 120)], seed=13)
    assert without_np == with_np


def test_create_interpreter_vectorized_selection():
    module = _rich_module()
    interp = create_interpreter(module, engine="vectorized")
    assert type(interp) is VectorizedInterpreter


def test_count_summary_accumulation():
    a = CountSummary()
    a.arith = 3
    a.icalls[("retpoline", False)] = 2
    a.rets[None] = 1
    a.direct[5] = 1
    a.indirect[(9, "tgt")] = 2
    a.invocations["f"] = 1
    b = CountSummary()
    b.add_scaled(a, 4)
    assert b.arith == 12
    assert b.icalls[("retpoline", False)] == 8
    assert b.rets[None] == 4
    assert b.total_events() == a.total_events() * 4
    b.add(a)
    assert (b.direct, b.indirect, b.invocations) == (
        {5: 5},
        {(9, "tgt"): 10},
        {"f": 5},
    )
    # the profile buckets count toward equality, never toward costs
    plain = CountSummary()
    plain.add(b)
    plain.direct, plain.indirect, plain.invocations = {}, {}, {}
    assert b != plain
    assert b.counters() == plain.counters()
    assert b.total_events() == plain.total_events()
    assert b.as_dict() == plain.as_dict()
    costs = CountingTimingModel(Module("m")).costs
    assert counting_cycles(b, costs, []) == counting_cycles(plain, costs, [])


def test_numpy_flush_carries_profile_buckets(monkeypatch):
    """A profiler sharing a run with a counting model gets the dense
    numpy flush; its profile buckets still accumulate sparsely."""
    import repro.engine.vectorized as vec

    module = _rich_module()
    monkeypatch.setattr(vec, "_NUMPY_FLUSH_MIN_ROWS", 1)
    profiles = {}
    for engine in ("compiled", "vectorized"):
        profiler = KernelProfiler(workload="t")
        sink = CountingTimingModel(module)
        interp = create_interpreter(
            module, [sink, profiler], seed=2, engine=engine
        )
        interp.run_function("f", times=60)
        profiles[engine] = (sink.cycles, profiler.finish().to_json())
    assert profiles["vectorized"] == profiles["compiled"]
