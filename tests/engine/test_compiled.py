"""Compiled engine: differential equivalence against the reference oracle.

The compiled engine must be an *exact* drop-in: same trace events in the
same order, same RNG consumption, same errors. Every test here runs both
engines and compares, so any semantic drift in the precompilation pass
fails loudly.

The fused timing path (a run whose only sink is a plain ``TimingModel``)
is held to generic replay and to the reference engine on the sink's whole
state: cycles, counters, defense charges, predictor contents and
statistics, the call stack and the interpreter's step count — after
clean runs and after aborted ones. Adding a no-op ``TraceSink`` as a
second sink forces generic replay.
"""

import dataclasses
import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.counting import CountingTimingModel
from repro.cpu.timing import TimingModel
from repro.engine.compiled import (
    CompiledInterpreter,
    compile_function,
    compiled_program,
    create_interpreter,
)
from repro.engine.interpreter import (
    ExecutionError,
    ExecutionLimits,
    Interpreter,
)
from repro.engine.trace import TraceRecorder, TraceSink
from repro.engine.vectorized import vector_program
from repro.evaluation.tables import TABLE1_CONFIGS
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SmallSpec
from repro.profiling.profiler import KernelProfiler
from repro.workloads.base import measure_benchmark
from repro.workloads.lmbench import LMBENCH_BENCHMARKS, lmbench_workload
from repro.workloads.microbench import CALL_KINDS, build_microbench_module

from ..property.strategies import deterministic_modules


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
    events = {}
    for engine in ("reference", "compiled"):
        recorder = TraceRecorder()
        with pytest.raises(ExecutionError, match="unterminated"):
            create_interpreter(module, [recorder], engine=engine).run_function(
                "f"
            )
        events[engine] = recorder.events
    # falling off the block never flushes the pending mix
    assert events["compiled"] == events["reference"]
    assert events["reference"] == [("run_start", "f"), ("enter", "f")]


def test_error_parity_empty_function():
    module = Module("m")
    module.add_function(Function("f"))
    for engine in ("reference", "compiled", "vectorized"):
        for sinks in ([], [TimingModel(module)]):  # generic and fused
            interp = create_interpreter(module, sinks, engine=engine)
            with pytest.raises(ValueError, match="no blocks"):
                interp.run_function("f")
            with pytest.raises(ValueError, match="no blocks"):
                interp.run_function("f")  # and again, once compiled


def _compiled_names(module):
    """The functions of ``module``'s program that have a compiled body."""
    return {
        name
        for name, cfunc in compiled_program(module).functions.items()
        if cfunc.blocks is not None
    }


def test_program_cache_reuse_and_invalidation():
    module = _rich_module()
    module.add_function(build_leaf("never_called"))
    first = compiled_program(module)
    assert compiled_program(module) is first  # cached on the module
    shell = first.functions["f"]
    assert shell.blocks is None and shell.entry is None
    assert repr(shell) == "<CompiledFunction f (not compiled)>"
    create_interpreter(module, engine="compiled").run_function("f", times=20)
    assert _compiled_names(module) == {"f", "tgt_a", "tgt_b", "tgt_c"}
    assert repr(shell) == "<CompiledFunction f blocks=8>"
    module.bump_version()
    second = compiled_program(module)
    assert second is not first  # transformation invalidated the program
    assert compiled_program(module) is second
    assert _compiled_names(module) == set()  # ... and every compiled body


# -- compilation on first entry -----------------------------------------------


def _entered_names(module, calls, seed):
    """The functions the reference engine enters running ``calls``."""
    recorder = TraceRecorder()
    interp = create_interpreter(
        module, [recorder], seed=seed, engine="reference"
    )
    for entry, times in calls:
        interp.run_function(entry, times=times)
    return {event[1] for event in recorder.events if event[0] == "enter"}


def _lazy_case(case, pipeline, profile):
    """``(module, calls)``: the rich module plus a function nothing
    calls, or a hardened SmallSpec variant under every LMBench bench."""
    if case == "rich":
        module = _rich_module()
        module.add_function(build_leaf("never_called"))
        return module, [("f", 200)]
    module = pipeline.build_variant(
        PibeConfig.lax(DefenseConfig.all_defenses()), profile
    ).module
    calls = [
        (module.syscalls[bench.syscalls[0][0]], 3)
        for bench in LMBENCH_BENCHMARKS
    ]
    return module, calls


@pytest.mark.parametrize("case", ["rich", "hardened"])
def test_only_entered_functions_are_compiled(
    case, small_pipeline, small_profile
):
    """Exact replay and the fused walker compile exactly the functions a
    run enters. The vectorized lowering compiles what it lowers: the
    entered functions and the direct callees it may fold."""
    module, calls = _lazy_case(case, small_pipeline, small_profile)
    entered = _entered_names(module, calls, seed=11)
    for sinks in ([TraceSink()], [TimingModel(module)]):
        module.bump_version()  # a fresh program of shells
        interp = create_interpreter(module, sinks, seed=11)
        for entry, times in calls:
            interp.run_function(entry, times=times)
        assert _compiled_names(module) == entered
    module.bump_version()
    interp = create_interpreter(
        module, [CountingTimingModel(module)], seed=11, engine="vectorized"
    )
    for entry, times in calls:
        interp.run_function(entry, times=times)
    compiled = _compiled_names(module)
    lowered = {
        name
        for name, vfunc in vector_program(module).functions.items()
        if vfunc.ready
    }
    assert compiled == lowered
    assert entered <= compiled < set(module.functions)
    if case == "rich":
        assert compiled == entered
        assert "never_called" not in compiled


def _compile_up_front(module):
    """Compile every shell of ``module``'s program now."""
    program = compiled_program(module)
    for cfunc in program.functions.values():
        compile_function(cfunc, program.functions)


@pytest.mark.parametrize("case", ["rich", "hardened"])
def test_lazy_compilation_matches_up_front(
    case, small_pipeline, small_profile
):
    """A program compiled on first entry leaves the same sink state and
    ``_steps`` as one compiled up front, on every timing path. Lazily,
    the first call of a straight-line leaf walks its (uncompiled) callee;
    later calls, and every call up front, take the leaf path."""
    module, calls = _lazy_case(case, small_pipeline, small_profile)
    states = {}
    for up_front in (False, True):
        for path in TIMING_PATHS:
            module.bump_version()  # a fresh program of shells
            if up_front:
                _compile_up_front(module)
            program = compiled_program(module)
            if case == "rich":  # tgt_a, a leaf f calls directly
                leaf_known = program.functions["tgt_a"].leaf is not None
                assert leaf_known == up_front
            sink, interp = _timing_interp(module, path, seed=7)
            for entry, times in calls:
                interp.run_function(entry, times=times)
            states[up_front, path] = _timing_state(sink, interp)
            if case == "rich" and path != "reference":
                assert program.functions["tgt_a"].leaf is not None
    reference = states[False, "reference"]
    for key, state in states.items():
        assert state == reference, key


def test_dangling_label_raises_on_first_entry():
    """A successor label without a block fails only its function, when a
    run first enters it, and leaves that function's shell uncompiled.
    The reference engine raises the same ``KeyError`` when it takes the
    edge."""
    module = _rich_module()
    bad = Function("bad")
    IRBuilder(bad).jmp("nowhere")
    module.add_function(bad)
    with pytest.raises(KeyError, match="nowhere"):
        create_interpreter(module, engine="reference").run_function("bad")
    for engine, sinks in (
        ("compiled", [TraceSink()]),
        ("compiled", [TimingModel(module)]),
        ("vectorized", [CountingTimingModel(module)]),
    ):
        module.bump_version()
        interp = create_interpreter(module, sinks, seed=3, engine=engine)
        interp.run_function("f", times=20)
        for _ in range(2):
            with pytest.raises(KeyError, match="nowhere"):
                interp.run_function("bad")
            assert compiled_program(module).functions["bad"].blocks is None
        interp.run_function("f", times=20)
        assert _compiled_names(module) == {"f", "tgt_a", "tgt_b", "tgt_c"}


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


# -- fused timing: TimingModel charged inside the compiled walk -------------

#: ``reference``: the oracle engine; ``replay``: compiled, with a no-op
#: second sink forcing event-by-event callbacks; ``fused``: compiled with
#: the TimingModel alone.
TIMING_PATHS = ("reference", "replay", "fused")


def _timing_state(sink, interp):
    """Everything a run leaves in a TimingModel, plus the step count."""
    icache = sink.icache
    return {
        "cycles": sink.cycles,
        "ops": sink.ops,
        "counters": dict(sink.counters),
        "defense": list(sink.defense_cycles_charged.items()),
        "btb": (dict(sink.btb._slots), sink.btb.hits, sink.btb.misses),
        "rsb": (
            list(sink.rsb._stack),
            sink.rsb.hits,
            sink.rsb.misses,
            sink.rsb.underflows,
            sink.rsb.overflow_drops,
        ),
        "icache": None
        if icache is None
        else (
            list(icache._resident.items()),
            icache.resident_bytes,
            icache.hits,
            icache.misses,
            icache.evictions,
        ),
        "call_stack": list(sink._call_stack),
        "tokens": repr(sink._tokens),
        "steps": interp._steps,
    }


def _timing_interp(module, path, seed=0, limits=None, **timing_kwargs):
    sink = TimingModel(module, **timing_kwargs)
    sinks = [sink, TraceSink()] if path == "replay" else [sink]
    engine = "reference" if path == "reference" else "compiled"
    interp = create_interpreter(
        module, sinks, seed=seed, limits=limits, engine=engine
    )
    return sink, interp


def _assert_timing_paths_agree(
    module, calls, seed=0, limits=None, error=None, **timing_kwargs
):
    """Run ``calls`` (``(entry, times)`` pairs) on every path and compare
    the final states; with ``error``, the last call must raise it (and
    the same message) on every path. Returns the fused state."""
    states, messages = {}, {}
    for path in TIMING_PATHS:
        sink, interp = _timing_interp(
            module, path, seed=seed, limits=limits, **timing_kwargs
        )
        *clean, last = calls
        for entry, times in clean:
            interp.run_function(entry, times=times)
        if error is None:
            interp.run_function(*last)
        else:
            with pytest.raises(error) as excinfo:
                interp.run_function(*last)
            messages[path] = str(excinfo.value)
        if path == "fused":
            assert interp._fused is not None  # took the fused path
        else:
            assert getattr(interp, "_fused", None) is None
        states[path] = _timing_state(sink, interp)
    assert states["fused"] == states["replay"]
    assert states["replay"] == states["reference"]
    if error is not None:
        assert len(set(messages.values())) == 1, messages
    return states["fused"]


#: The five defense sets of the hardened variants, plus every
#: non-transient defense at once (several ambient charges per call).
FUSED_CONFIGS = [
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
    DefenseConfig(
        retpolines=True, nontransient=frozenset(NonTransientDefense)
    ),
]


@pytest.mark.parametrize("seed", [0, 3, 7, 23])
def test_fused_timing_rich(seed):
    state = _assert_timing_paths_agree(_rich_module(), [("f", 200)], seed=seed)
    assert state["counters"]["icalls"] > 0


@pytest.mark.parametrize("config", FUSED_CONFIGS, ids=lambda c: c.label())
def test_fused_timing_hardened_variants(config, small_pipeline, small_profile):
    module = small_pipeline.build_variant(
        PibeConfig.lax(config), small_profile
    ).module
    calls = [
        (module.syscalls[bench.syscalls[0][0]], 3)
        for bench in LMBENCH_BENCHMARKS
    ]
    state = _assert_timing_paths_agree(module, calls, seed=11)
    assert state["counters"]["calls"] > 0
    assert state["counters"]["icalls"] > 0


@pytest.mark.parametrize("label,config", TABLE1_CONFIGS)
@pytest.mark.parametrize("kind", CALL_KINDS)
def test_fused_timing_microbench(label, config, kind):
    module = build_microbench_module(kind)
    HardeningPass(config).run(module)
    module.bump_version()
    costs = dataclasses.replace(DEFAULT_COSTS, kernel_entry=0.0)
    for model_icache in (False, True):
        _assert_timing_paths_agree(
            module,
            [("driver", 50)],
            seed=5,
            costs=costs,
            model_icache=model_icache,
        )


def test_fused_timing_custom_defense_cost():
    """A registered custom tag with a non-integer cost is charged per
    event, in order, into ``defense_cycles_charged``."""
    clear_registry()
    try:
        fwd = CustomDefense(name="fused_fwd", kind="forward", cycles=7.3)
        bwd = CustomDefense(name="fused_ret", kind="backward", cycles=5.9)
        module = _rich_module()
        CustomHardeningPass(forward=fwd, backward=bwd).run(module)
        module.bump_version()
        state = _assert_timing_paths_agree(module, [("f", 120)], seed=3)
        assert sorted(tag for tag, _ in state["defense"]) == [
            "fused_fwd",
            "fused_ret",
        ]
    finally:
        clear_registry()


def _chain_module(depth, opaque_at=None):
    """``fn0 -> fn1 -> ... -> fn<depth>`` (a leaf); ``fn<opaque_at>``
    leaves through an opaque ``ijump`` instead of returning."""
    module = Module("chain")
    module.add_function(build_leaf(f"fn{depth}"))
    for i in reversed(range(depth)):
        func = Function(f"fn{i}")
        b = IRBuilder(func)
        b.arith(1)
        b.call(f"fn{i + 1}")
        b.load(1)
        if i == opaque_at:
            b.ijump()
        else:
            b.ret()
        module.add_function(func)
    return module


@pytest.mark.parametrize("defended", [False, True])
def test_fused_timing_rsb_overflow(defended):
    """A chain deeper than the 16-entry RSB: overflow drops on the way
    down, underflow misses on the way back (or silent pops when every
    return is defended)."""
    module = _chain_module(24)
    if defended:
        HardeningPass(DefenseConfig.ret_retpolines_only()).run(module)
        module.bump_version()
    state = _assert_timing_paths_agree(module, [("fn0", 3), ("fn5", 2)])
    assert state["rsb"][4] > 0  # overflow drops
    if not defended:
        assert state["rsb"][3] > 0  # underflows


@pytest.mark.parametrize("defended", [False, True])
def test_fused_timing_opaque_tail_transfer(defended):
    """An ``ijump`` without successors emits no return, so every run
    leaves its entry token on the RSB: the RSB runs out of step with the
    (drained) call stack and fills up with stale entries."""
    module = _chain_module(6, opaque_at=3)
    if defended:
        HardeningPass(DefenseConfig.ret_retpolines_only()).run(module)
        # opaque asm ijumps are exempt from hardening; tag one by hand
        for inst in module.functions["fn3"].instructions():
            if inst.is_indirect_branch:
                inst.defense = "retpoline"
        module.bump_version()
    state = _assert_timing_paths_agree(module, [("fn0", 12), ("fn2", 9)])
    assert state["counters"]["ijumps"] == 21
    assert not state["call_stack"]
    assert state["rsb"][0]  # stale entries the call stack no longer has
    assert state["rsb"][4] > 0  # ... enough to overflow the RSB


def test_fused_timing_btb_aliasing():
    """Two icall sites whose ids are congruent mod 4096 share a BTB slot
    and evict each other's target."""
    module = Module("alias")
    for name in ("tgt_a", "tgt_b"):
        module.add_function(build_leaf(name))
    func = Function("f")
    b = IRBuilder(func)
    first = b.icall({"tgt_a": 1})
    second = b.icall({"tgt_b": 1})
    b.ret()
    module.add_function(func)
    second.site_id = first.site_id + 4096
    state = _assert_timing_paths_agree(module, [("f", 40)])
    assert state["btb"][2] == 80  # every access misses


def test_fused_timing_icache_thrash():
    """A working set larger than the i-cache evicts on every pass, both
    for leaf callees charged in the caller and for walked callees."""
    module = Module("thrash")
    caller = Function("caller")
    b = IRBuilder(caller)
    for i in range(10):
        leaf = Function(f"big{i}")
        lb = IRBuilder(leaf)
        lb.arith(900)
        if i % 2:
            # not a leaf: a call keeps it on the walked path
            lb.call("tiny")
        lb.ret()
        module.add_function(leaf)
        b.call(f"big{i}")
    b.ret()
    module.add_function(build_leaf("tiny"))
    module.add_function(caller)
    state = _assert_timing_paths_agree(module, [("caller", 5)])
    assert state["icache"][4] > 0  # evictions


def test_fused_timing_repeated_runs_and_version_bump():
    module = _rich_module()
    states = {}
    for path in TIMING_PATHS:
        sink, interp = _timing_interp(module, path, seed=7)
        interp.run_function("f", times=40)
        interp.run_function("f")
        interp.run_function("tgt_a", times=3)
        if path == "fused":
            binding = interp._fused
            interp.run_function("f", times=2)
            assert interp._fused is binding  # bound once per program
        else:
            interp.run_function("f", times=2)
        states[path] = _timing_state(sink, interp)
    assert states["fused"] == states["replay"] == states["reference"]

    # Grow the block (as a pass would), then invalidate: every path sees
    # the new IR, and the fused path rebinds to the new program.
    func = module.functions["tgt_b"]
    func.entry.instructions.insert(0, func.entry.instructions[0].clone())
    module.bump_version()
    after = {}
    for path in TIMING_PATHS:
        sink, interp = _timing_interp(module, path, seed=7)
        interp.run_function("f", times=30)
        if path == "fused":
            first = interp._fused
            module.bump_version()
            interp.run_function("f", times=30)
            assert interp._fused is not first
            assert interp._fused[1] is compiled_program(module)
        else:
            module.bump_version()
            interp.run_function("f", times=30)
        after[path] = _timing_state(sink, interp)
    assert after["fused"] == after["replay"] == after["reference"]
    assert after["fused"]["cycles"] != states["fused"]["cycles"]


def test_fused_path_dispatch_rule():
    """Only a lone plain TimingModel takes the fused path; subclasses,
    other sinks and sink lists keep generic replay."""
    from repro.baselines.eibrs import EIBRSTimingModel
    from repro.baselines.jumpswitches import JumpSwitchTimingModel

    module = _rich_module()
    for sinks in (
        [JumpSwitchTimingModel(module)],
        [EIBRSTimingModel(module)],
        [TimingModel(module), TimingModel(module)],
        [TraceRecorder()],
    ):
        interp = create_interpreter(module, sinks, engine="compiled")
        interp.run_function("f", times=3)
        assert interp._fused is None
    vectorized = create_interpreter(
        module, [TimingModel(module)], engine="vectorized"
    )
    vectorized.run_function("f", times=3)
    assert vectorized._fused is not None


def _error_module():
    """Entries that abort in every way the walker can, next to ``ok``."""
    module = _rich_module()
    undefined = Function("undefined")
    b = IRBuilder(undefined)
    b.call("missing")
    b.ret()
    module.add_function(undefined)
    no_targets = Function("no_targets")
    b = IRBuilder(no_targets)
    b.arith(2)
    b.icall({})
    b.ret()
    module.add_function(no_targets)
    unterminated = Function("unterminated")
    b = IRBuilder(unterminated)
    b.call("tgt_a")
    b.arith(3)
    module.add_function(unterminated)
    spin = Function("spin")
    b = IRBuilder(spin)
    head = b.new_block("head")
    b.jmp(head.label)
    b.at(head).call("tgt_b")
    b.at(head).arith(1)
    b.at(head).jmp(head.label)
    module.add_function(spin)
    return module


@pytest.mark.parametrize(
    "entry,error,match",
    [
        ("undefined", ExecutionError, "call to undefined @missing"),
        ("no_targets", ExecutionError, "icall without targets"),
        ("unterminated", ExecutionError, "is unterminated"),
        ("spin", ExecutionError, "step limit 500 exceeded"),
    ],
)
def test_fused_error_parity(entry, error, match):
    """Aborted runs leave the same state on every path, and the sink
    keeps working afterwards."""
    module = _error_module()
    limits = ExecutionLimits(max_steps=500)
    state = _assert_timing_paths_agree(
        module,
        [("f", 20), (entry, 3)],
        seed=3,
        limits=limits,
        error=error,
    )
    assert state["cycles"] > 0
    after = {}
    for path in TIMING_PATHS:
        sink, interp = _timing_interp(module, path, seed=3, limits=limits)
        with pytest.raises(error, match=match):
            interp.run_function(entry)
        interp.run_function("f", times=5)
        after[path] = _timing_state(sink, interp)
    assert after["fused"] == after["replay"] == after["reference"]


@pytest.mark.parametrize("max_steps", range(1, 64, 3))
def test_fused_error_parity_step_limit_anywhere(max_steps):
    """The step rail fires at the same block on every path, including
    inside a leaf callee charged in its caller."""
    _assert_timing_paths_agree(
        _rich_module(),
        [("f", 3)],
        seed=7,
        limits=ExecutionLimits(max_steps=max_steps),
        error=ExecutionError,
    )


@pytest.mark.parametrize("past", [0, 1])
def test_fused_error_parity_depth_rail(past):
    """A leaf callee exactly at the depth rail runs; one frame past it,
    the run aborts before the leaf is entered."""
    depth = 8
    module = _chain_module(depth)
    limits = ExecutionLimits(max_depth=depth - past)
    if past:
        state = _assert_timing_paths_agree(
            module,
            [("fn2", 2), ("fn0", 1)],
            limits=limits,
            error=ExecutionError,
        )
        assert len(state["call_stack"]) == depth + 1
    else:
        _assert_timing_paths_agree(module, [("fn0", 3)], limits=limits)


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
def test_property_fused_timing(
    module, retpolines, ret_retpolines, lvi_cfi, seed, times
):
    """Random modules under random defense configs time identically on
    the fused path, generic replay and the reference engine."""
    config = DefenseConfig(
        retpolines=retpolines, ret_retpolines=ret_retpolines, lvi_cfi=lvi_cfi
    )
    HardeningPass(config).run(module)
    module.bump_version()
    _assert_timing_paths_agree(module, [("fn0", times)], seed=seed)


def test_measurement_leaves_no_cyclic_garbage():
    """A measurement is freed by reference counting alone: neither the
    TimingModel (via its i-cache callback) nor the fused walker binding
    forms a reference cycle."""
    module = build_kernel(SmallSpec())
    benches = LMBENCH_BENCHMARKS[:4]
    for bench in benches:  # compile the program outside the window
        measure_benchmark(module, bench, ops=2)
    # Settle the collector first. A collection that frees an earlier
    # test's module drops its compiled program through the weak program
    # cache, and the program's cyclic blocks wait for the next one.
    while gc.collect():
        pass
    gc.disable()
    try:
        for bench in benches:
            measure_benchmark(module, bench, ops=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
