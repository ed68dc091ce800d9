"""Compiled engine: differential equivalence against the reference oracle.

The compiled engine must be an *exact* drop-in: same trace events in the
same order, same RNG consumption, same errors. Every test here runs both
engines and compares, so any semantic drift in the precompilation pass
fails loudly.
"""

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.cpu.timing import TimingModel
from repro.engine.compiled import (
    CompiledInterpreter,
    compiled_program,
    create_interpreter,
)
from repro.engine.interpreter import ExecutionError, Interpreter
from repro.engine.trace import TraceRecorder
from repro.hardening.defenses import DefenseConfig
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SmallSpec
from repro.profiling.profiler import KernelProfiler
from repro.workloads.lmbench import lmbench_workload


def _events(module, entry, engine, times=1, seed=0):
    recorder = TraceRecorder()
    create_interpreter(module, [recorder], seed=seed, engine=engine).run_function(
        entry, times=times
    )
    return recorder.events


def _rich_module():
    """One function exercising every construct: mixes, direct calls,
    multi-target sticky icalls, trip-counted loops, probabilistic
    branches, weighted switches, and jumps."""
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


@pytest.mark.parametrize("seed", [0, 3, 7, 23])
def test_event_stream_equivalence_rich(seed):
    module = _rich_module()
    reference = _events(module, "f", "reference", times=200, seed=seed)
    compiled = _events(module, "f", "compiled", times=200, seed=seed)
    assert compiled == reference


@pytest.mark.parametrize("seed", [3, 7])
def test_kernel_profile_equivalence(seed):
    """Same kernel, same workload, same seed -> bit-identical
    EdgeProfiles from the profiler's event stream on either engine.

    Drives :class:`KernelProfiler` directly: ``profile_workload`` routes
    every engine but the reference to the vectorized one."""
    module = build_kernel(SmallSpec())
    workload = lmbench_workload()
    profiles = {}
    for engine in ("reference", "compiled"):
        profiler = KernelProfiler(workload=workload.name)
        interp = create_interpreter(module, [profiler], seed=seed, engine=engine)
        for bench, ops in workload.components:
            bench.run(interp, ops=max(1, int(ops * 0.1)))
        profiles[engine] = profiler.finish()
    assert profiles["compiled"].to_dict() == profiles["reference"].to_dict()


def test_hardened_variant_timing_equivalence():
    """A transformed (ICP + inlined + hardened) module times identically
    under both engines — transformations produce fresh IR shapes, so this
    guards the compiler against pass-introduced constructs."""
    pipeline = PibePipeline(build_kernel(SmallSpec()))
    profile = pipeline.profile(
        lmbench_workload(), iterations=1, ops_scale=0.1
    )
    build = pipeline.build_variant(
        PibeConfig.lax(DefenseConfig.all_defenses()), profile
    )
    cycles = {}
    for engine in ("reference", "compiled"):
        timing = TimingModel(build.module)
        interp = create_interpreter(
            build.module, [timing], seed=11, engine=engine
        )
        interp.run_syscall("read", times=40)
        interp.run_syscall("select_file", times=10)
        cycles[engine] = (timing.cycles, dict(timing.counters))
    assert cycles["compiled"] == cycles["reference"]


def test_step_accounting_matches():
    module = _rich_module()
    interps = {}
    for engine in ("reference", "compiled"):
        interp = create_interpreter(module, seed=5, engine=engine)
        interp.run_function("f")
        interps[engine] = interp
    assert interps["compiled"]._steps == interps["reference"]._steps


def test_error_parity_unterminated_block():
    module = Module("m")
    func = Function("f")
    IRBuilder(func).arith(1)  # no terminator
    module.add_function(func)
    for engine in ("reference", "compiled"):
        with pytest.raises(ExecutionError, match="unterminated"):
            create_interpreter(module, engine=engine).run_function("f")


def test_error_parity_empty_function():
    module = Module("m")
    module.add_function(Function("f"))
    for engine in ("reference", "compiled"):
        with pytest.raises(ValueError, match="no blocks"):
            create_interpreter(module, engine=engine).run_function("f")


def test_program_cache_reuse_and_invalidation():
    module = _rich_module()
    first = compiled_program(module)
    assert compiled_program(module) is first  # cached on the module
    module.bump_version()
    second = compiled_program(module)
    assert second is not first  # transformation invalidated the program
    assert compiled_program(module) is second


def test_stale_program_never_reused_after_transform():
    """Mutating the IR and bumping the version must change what executes."""
    module = Module("m")
    func = Function("f")
    b = IRBuilder(func)
    b.arith(1)
    b.ret()
    module.add_function(func)
    interp = CompiledInterpreter(module, seed=0)
    rec1 = TraceRecorder()
    interp.add_sink(rec1)
    interp.run_function("f")
    assert rec1.of_kind("mix") == [("mix", 1, 0, 0, 0, 0, 0)]

    # grow the block, as a pass would, then invalidate
    func.entry.instructions.insert(0, func.entry.instructions[0].clone())
    module.bump_version()
    rec2 = TraceRecorder()
    CompiledInterpreter(module, [rec2], seed=0).run_function("f")
    assert rec2.of_kind("mix") == [("mix", 2, 0, 0, 0, 0, 0)]


def test_create_interpreter_engine_selection():
    module = _rich_module()
    assert type(create_interpreter(module, engine="reference")) is Interpreter
    assert (
        type(create_interpreter(module, engine="compiled"))
        is CompiledInterpreter
    )
    with pytest.raises(ValueError, match="unknown engine"):
        create_interpreter(module, engine="jit")
