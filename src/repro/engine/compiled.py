"""Compiled execution engine: precompiled CFG walking.

The reference interpreter (:mod:`repro.engine.interpreter`) dispatches on
every instruction's opcode, re-derives indirect-target distributions per
execution, and resolves successor blocks through label dictionaries. This
module applies PIBE's own lesson — move cost out of the hot path ahead of
time — to the engine itself: compilation flattens each basic block into a
:class:`CompiledBlock` whose straight-line instruction runs collapse to
precomputed mix counts, whose direct calls carry pre-resolved callee
references, whose stochastic points (icall/switch/ijump targets) carry
cumulative-weight arrays ready for ``bisect``, and whose terminator is a
single tuple descriptor with direct successor-block references.

Compilation on first entry
    Like PIBE, the engine spends effort only where execution goes. A
    program starts as one :class:`CompiledFunction` shell per function,
    and whichever walker enters a function first compiles it
    (:func:`compile_function`): the fused walker, ``_execute_compiled``
    or the vectorized lowering. The call sits in the branch that already
    handles an unset ``entry``, so a compiled function pays nothing on
    the hot path; a cold ``full_evaluation.py`` enters ~6% of the
    functions of its programs. Direct calls link to the callee's shell,
    and a callee's ``leaf`` is known only once it is compiled, so the
    first call of a straight-line leaf walks it and later calls take the
    leaf path; both leave identical state. Malformed IR, such as a
    successor label without a block (``KeyError``), raises when a run
    first enters the function, not at the module's first run, and leaves
    the shell uncompiled. The reference raises when it takes the edge.

:class:`CompiledInterpreter` then replays a compiled program emitting the
**bit-identical event stream** the reference interpreter would emit for
the same ``(module, entry, seed)`` — every sink callback, every RNG draw,
every error, in the same order. The differential tests in
``tests/engine/test_compiled.py`` pin that equivalence; the reference
engine stays the semantic oracle.

Fused exact timing
    Nearly every measurement runs with exactly one sink, a plain
    :class:`~repro.cpu.timing.TimingModel`. For that sink list
    ``run_function`` takes a fused walker (:func:`_bind_fused_timing`,
    bound once per (interpreter, sink, program)) that follows
    ``_execute_compiled``'s control flow, RNG draws, ``_steps``
    accounting and errors exactly, and applies the model's charges and
    BTB/RSB/i-cache updates inline instead of calling back. After every
    run — an aborted one too — the sink and ``_steps`` hold exactly what
    generic replay leaves. ``TimingModel``'s callbacks stay the
    definition: subclasses, several sinks and every other sink keep
    generic replay, and the tests hold the fused walker to it (and to
    the reference engine) bit for bit. ``cycles`` stays identical
    because every charge is added to one running float in event order;
    only what a callback adds as one expression is pre-summed
    (``icall_predicted + btb_miss``, ``ret + rsb_miss``, and a branch's
    base cost plus its defense cost), each ambient non-transient charge
    stays its own addition, and only exact ``0.0`` additions (i-cache
    hits) are skipped. Straight-line leaf callees are charged in the
    caller's frame: their call's push and their return's pop cancel on
    the call stack and the RSB, except that a full RSB drops its bottom
    entry.

Compiled programs are cached per :class:`~repro.ir.module.Module` and
invalidated through the module's ``version`` counter, which every
transformation pass bumps (see :class:`~repro.passes.manager.PassManager`);
a bump drops every compiled body with its program.
Each ``ret``/``icall``/``ijump`` descriptor carries its instruction's
defense tag (and an icall its vcall flag), read at compile time, so
mutating IR by hand — a defense tag included — after a run requires an
explicit ``module.bump_version()``.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.timing import TimingModel
from repro.engine.behavior import LoopState, cumulative_weights, pick_index
from repro.engine.interpreter import ExecutionError, Interpreter
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import (
    ATTR_CASE_WEIGHTS,
    ATTR_DEFENSE,
    ATTR_P_TAKEN,
    ATTR_TARGETS,
    ATTR_TRIP,
    ATTR_VCALL,
    Opcode,
)

#: Bumped whenever engine semantics change in a way that affects emitted
#: event streams or measured numbers. Part of every disk-cache key, so a
#: stale ``.repro-cache/`` can never serve results from older semantics.
ENGINE_VERSION = "engine-v3"

# Step kinds (first element of a step tuple). ``defense`` is the
# instruction's defense tag (or None) and ``vcall`` its virtual-call flag,
# read at compile time under the ``module.version`` contract.
STEP_MIX = 0  # (0, arith, load, store, cmp, fence)
STEP_CALL = 1  # (1, inst, callee_cfunc_or_None)
STEP_ICALL = 2  # (2, inst, site_id, dist, names, cum, total, defense, vcall)

# Terminator kinds (first element of a terminator tuple).
TERM_RET = 0  # (0, inst, defense)
TERM_JMP = 1  # (1, succ)
TERM_BR = 2  # (2, label, p_taken, trip, taken_succ, fall_succ)
TERM_SWITCH = 3  # (3, succs, cum, total)
TERM_IJUMP = 4  # (4, inst, succs_or_None, cum, total, defense)
TERM_MISSING = 5  # (5,)  — unterminated block, error on execution


class CompiledBlock:
    """One basic block flattened for execution.

    ``steps`` holds the non-terminator work (mix batches, calls), ``term``
    the single terminator descriptor, and ``charge`` the number of
    instructions one traversal of this block executes (terminator index
    plus one — dead code after an early terminator is never compiled).
    """

    __slots__ = ("label", "steps", "term", "charge")

    def __init__(self, label: str) -> None:
        self.label = label
        self.steps: Tuple[tuple, ...] = ()
        self.term: tuple = (TERM_MISSING,)
        self.charge = 0

    def __repr__(self) -> str:
        return f"<CompiledBlock {self.label} steps={len(self.steps)}>"


class CompiledFunction:
    """A function compiled to linked :class:`CompiledBlock`s.

    It starts as a shell holding only ``func`` and ``name``;
    :func:`compile_function` fills in the rest the first time a walker
    enters it.
    """

    __slots__ = ("func", "name", "entry", "blocks", "has_trips", "leaf")

    def __init__(self, func: Function) -> None:
        self.func = func
        self.name = func.name
        #: label -> block; ``None`` until the function is compiled
        self.blocks: Optional[Dict[str, CompiledBlock]] = None
        #: the entry block; ``None`` on a shell and on an empty function
        self.entry: Optional[CompiledBlock] = None
        self.has_trips = False
        #: ``(mix_step_or_None, ret_inst, charge, ret_defense)`` when the
        #: entry block is a pure straight-line leaf (mix + ret, no calls,
        #: no RNG) — the most common dynamic shape, executed via a
        #: dedicated fast path.
        self.leaf: Optional[tuple] = None

    def __repr__(self) -> str:
        if self.blocks is None:
            return f"<CompiledFunction {self.name} (not compiled)>"
        return f"<CompiledFunction {self.name} blocks={len(self.blocks)}>"


class CompiledProgram:
    """One :class:`CompiledFunction` per function of a module, each
    compiled on first entry, plus the module version they are valid
    for."""

    __slots__ = ("functions", "version", "__weakref__")

    def __init__(self, functions: Dict[str, CompiledFunction], version: int) -> None:
        self.functions = functions
        self.version = version

    def __repr__(self) -> str:
        return (
            f"<CompiledProgram functions={len(self.functions)} "
            f"version={self.version}>"
        )


def _weighted_picker(
    labels: Sequence[str], weights: Optional[Sequence[float]]
) -> Tuple[Optional[Tuple[float, ...]], float]:
    """Precompute the cumulative-weight array for a multiway pick.

    Returns ``(None, 0.0)`` when the pick must fall back to a uniform
    ``rng.choice`` — no weights, or a zero total — matching
    ``Interpreter._pick_case`` branch-for-branch so RNG consumption is
    identical.
    """
    if not weights:
        return None, 0.0
    cum, total = cumulative_weights(weights)
    if total <= 0:
        return None, 0.0
    return tuple(cum), total


def _compile_block(
    block: BasicBlock,
    blocks: Dict[str, CompiledBlock],
    functions: Dict[str, CompiledFunction],
) -> None:
    """Fill ``blocks[block.label]`` from the IR block; successors link
    into ``blocks`` and direct callees into ``functions``."""
    out = blocks[block.label]
    steps: List[tuple] = []
    n_arith = n_load = n_store = n_cmp = n_fence = 0

    def flush_mix() -> None:
        nonlocal n_arith, n_load, n_store, n_cmp, n_fence
        if n_arith or n_load or n_store or n_cmp or n_fence:
            steps.append((STEP_MIX, n_arith, n_load, n_store, n_cmp, n_fence))
            n_arith = n_load = n_store = n_cmp = n_fence = 0

    term: Optional[tuple] = None
    charge = 0
    for inst in block.instructions:
        charge += 1
        op = inst.opcode
        if op is Opcode.ARITH:
            n_arith += 1
        elif op is Opcode.LOAD:
            n_load += 1
        elif op is Opcode.STORE:
            n_store += 1
        elif op is Opcode.CMP:
            n_cmp += 1
        elif op is Opcode.FENCE:
            n_fence += 1
        elif op is Opcode.CALL:
            flush_mix()
            # Link the callee's (possibly uncompiled) shell; a dangling
            # name stays None and raises at execution time, exactly like
            # the reference.
            steps.append((STEP_CALL, inst, functions.get(inst.callee)))
        elif op is Opcode.ICALL:
            flush_mix()
            dist = inst.attrs.get(ATTR_TARGETS)
            if dist:
                names = tuple(dist)
                cum, total = cumulative_weights(dist.values())
            else:
                names, cum, total = (), [], 0.0
            steps.append(
                (
                    STEP_ICALL,
                    inst,
                    inst.site_id,
                    dist,
                    names,
                    tuple(cum),
                    total,
                    inst.attrs.get(ATTR_DEFENSE),
                    bool(inst.attrs.get(ATTR_VCALL)),
                )
            )
        elif op is Opcode.RET:
            term = (TERM_RET, inst, inst.attrs.get(ATTR_DEFENSE))
            break
        elif op is Opcode.JMP:
            term = (TERM_JMP, blocks[inst.targets[0]])
            break
        elif op is Opcode.BR:
            term = (
                TERM_BR,
                block.label,
                inst.attrs.get(ATTR_P_TAKEN, 0.5),
                inst.attrs.get(ATTR_TRIP),
                blocks[inst.targets[0]],
                blocks[inst.targets[1]],
            )
            break
        elif op is Opcode.SWITCH:
            cum, total = _weighted_picker(
                inst.targets, inst.attrs.get(ATTR_CASE_WEIGHTS)
            )
            term = (
                TERM_SWITCH,
                tuple(blocks[t] for t in inst.targets),
                cum,
                total,
            )
            break
        elif op is Opcode.IJUMP:
            if inst.targets:
                cum, total = _weighted_picker(
                    inst.targets, inst.attrs.get(ATTR_CASE_WEIGHTS)
                )
                succs: Optional[tuple] = tuple(
                    blocks[t] for t in inst.targets
                )
            else:
                succs, cum, total = None, None, 0.0
            term = (
                TERM_IJUMP, inst, succs, cum, total,
                inst.attrs.get(ATTR_DEFENSE),
            )
            break
        else:  # pragma: no cover - exhaustive over Opcode
            raise ExecutionError(f"unhandled opcode {op!r}")
    flush_mix()
    out.steps = tuple(steps)
    out.term = term if term is not None else (TERM_MISSING,)
    out.charge = charge


def compile_function(
    cfunc: CompiledFunction, functions: Dict[str, CompiledFunction]
) -> None:
    """Compile ``cfunc``'s body in place, linking direct calls to the
    shells in ``functions``.

    A walker calls this the first time it enters a function whose
    ``entry`` is unset. The blocks are built in locals and published at
    the end, ``entry`` (the walkers' compiled flag) last. A compile that
    raises — a successor label without a block raises ``KeyError`` —
    therefore leaves the shell uncompiled, and a concurrent reader sees
    either the shell or the whole body.
    """
    func = cfunc.func
    blocks = {label: CompiledBlock(label) for label in func.blocks}
    for block in func.blocks.values():
        _compile_block(block, blocks, functions)
    entry = blocks[func.entry_label] if func.entry_label is not None else None
    leaf = None
    if (
        entry is not None
        and entry.term[0] == TERM_RET
        and len(entry.steps) <= 1
        and all(s[0] == STEP_MIX for s in entry.steps)
    ):
        mix = entry.steps[0] if entry.steps else None
        leaf = (mix, entry.term[1], entry.charge, entry.term[2])
    cfunc.has_trips = any(
        b.term[0] == TERM_BR and b.term[3] is not None
        for b in blocks.values()
    )
    cfunc.leaf = leaf
    cfunc.blocks = blocks
    cfunc.entry = entry


def compile_module(module: Module) -> CompiledProgram:
    """One uncompiled :class:`CompiledFunction` shell per function of
    ``module``; each compiles on first entry (:func:`compile_function`)."""
    functions = {
        name: CompiledFunction(func)
        for name, func in module.functions.items()
    }
    return CompiledProgram(functions, getattr(module, "version", 0))


_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Module, CompiledProgram]" = (
    weakref.WeakKeyDictionary()
)


def compiled_program(module: Module) -> CompiledProgram:
    """The module's compiled program, recompiling when ``module.version``
    has moved past the cached compilation."""
    program = _PROGRAM_CACHE.get(module)
    if program is None or program.version != getattr(module, "version", 0):
        program = compile_module(module)
        _PROGRAM_CACHE[module] = program
    return program


def _bind_fused_timing(
    sink: TimingModel, program: CompiledProgram
) -> Callable[["CompiledInterpreter", CompiledFunction, int], None]:
    """The fused walker: ``program`` run with ``sink``'s charges inlined.

    The result is called as ``run(interpreter, cfunc, times)`` in place of
    the generic ``times`` loop of :meth:`CompiledInterpreter.run_function`
    and leaves ``interpreter._steps`` and ``sink`` as generic replay
    would, even when the run raises. See the module docstring for the
    exactness rules.
    """
    costs = sink.costs
    c_arith = costs.arith
    c_load = costs.load
    c_store = costs.store
    c_cmp = costs.cmp
    c_fence = costs.fence
    c_branch = costs.branch
    c_call = costs.call
    c_ret = costs.ret
    c_ret_miss = costs.ret + costs.rsb_miss
    c_icall = costs.icall_predicted
    c_icall_miss = costs.icall_predicted + costs.btb_miss
    c_vload = costs.vcall_extra_load
    c_ijump = costs.ijump_predicted
    c_entry = costs.kernel_entry
    amb_dcall = tuple(a.dcall for a in sink._ambient)
    amb_icall = tuple(a.icall for a in sink._ambient)
    amb_vcall = tuple(a.vcall for a in sink._ambient)
    functions = program.functions
    tokens = sink._tokens
    call_stack = sink._call_stack
    #: defense tag -> (cost, ret + cost, icall_predicted + cost,
    #: ijump_predicted + cost), resolved on the tag's first charge
    tag_costs: Dict[str, Tuple[float, float, float, float]] = {}

    def tag_cost(tag: str) -> Tuple[float, float, float, float]:
        cost = costs.defense_cost(tag)
        entry = tag_costs[tag] = (
            cost, c_ret + cost, c_icall + cost, c_ijump + cost
        )
        return entry

    # Per-run state, (re)assigned by ``run``.
    rng = rand = last_target = stickiness = None
    max_depth = max_steps = 0
    slots = n_slots = rsb = rsb_cap = resident = icache_enter = None
    charged = None
    # Running totals, written back to the sink by ``run``.
    cycles = 0.0
    steps = 0
    n_calls = n_icalls = n_rets = n_ijumps = n_dicalls = n_drets = 0
    btb_misses = rsb_misses = rsb_underflows = rsb_drops = icache_hits = 0

    def walk(walk, cfunc, depth: int) -> None:
        nonlocal cycles, steps, n_calls, n_icalls, n_rets, n_ijumps
        nonlocal n_dicalls, n_drets, btb_misses, rsb_misses
        nonlocal rsb_underflows, rsb_drops, icache_hits
        if depth > max_depth:
            raise ExecutionError(
                f"call depth exceeded {max_depth} in @{cfunc.name}"
            )
        if resident is not None:
            name = cfunc.name
            if name in resident:
                resident.move_to_end(name)
                icache_hits += 1
            else:
                cycles += icache_enter(name)
        block = cfunc.entry
        if block is None:
            compile_function(cfunc, functions)
            block = cfunc.entry
            if block is None:
                raise ValueError(f"function {cfunc.name!r} has no blocks")
        loops = LoopState() if cfunc.has_trips else None
        n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0

        while True:
            for step in block.steps:
                kind = step[0]
                if kind == STEP_MIX:
                    n_arith += step[1]
                    n_load += step[2]
                    n_store += step[3]
                    n_cmp += step[4]
                    n_fence += step[5]
                    continue
                if n_arith or n_load or n_store or n_cmp or n_fence or n_br:
                    cycles += (
                        n_arith * c_arith
                        + n_load * c_load
                        + n_store * c_store
                        + n_cmp * c_cmp
                        + n_fence * c_fence
                        + n_br * c_branch
                    )
                    n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0
                if kind == STEP_CALL:
                    callee = step[2]
                    if callee is None:
                        raise ExecutionError(
                            f"call to undefined @{step[1].callee} "
                            f"in @{cfunc.name}"
                        )
                    n_calls += 1
                    cycles += c_call
                    for extra in amb_dcall:
                        cycles += extra
                else:  # STEP_ICALL
                    _, _, site, dist, names, cum, total, tag, vcall = step
                    if not dist:
                        raise ExecutionError(
                            f"icall without targets in @{cfunc.name}"
                        )
                    last = last_target.get(site) if site is not None else None
                    if (
                        last is not None
                        and last in dist
                        and rand() < stickiness
                    ):
                        target = last
                    elif total <= 0:
                        raise ValueError("distribution has zero total weight")
                    else:
                        pick = bisect_right(cum, rand() * total)
                        if pick >= len(cum):
                            pick = len(cum) - 1
                        target = names[pick]
                    if site is not None:
                        last_target[site] = target
                    callee = functions.get(target)
                    if callee is None:
                        raise ExecutionError(
                            f"icall resolved to undefined @{target} "
                            f"in @{cfunc.name}"
                        )
                    n_icalls += 1
                    if vcall:
                        cycles += c_vload
                    if tag is not None:
                        n_dicalls += 1
                        charge = tag_costs.get(tag) or tag_cost(tag)
                        charged[tag] = charged.get(tag, 0.0) + charge[0]
                        cycles += charge[2]
                    else:
                        slot = site % n_slots
                        if slots.get(slot) == target:
                            cycles += c_icall
                        else:
                            btb_misses += 1
                            cycles += c_icall_miss
                        slots[slot] = target
                    for extra in amb_vcall if vcall else amb_icall:
                        cycles += extra
                token = next(tokens)
                leaf = callee.leaf
                if leaf is None or depth >= max_depth:
                    call_stack.append(token)
                    if len(rsb) >= rsb_cap:
                        del rsb[0]
                        rsb_drops += 1
                    rsb.append(token)
                    walk(walk, callee, depth + 1)
                    continue
                # Straight-line leaf: enter, mix, return, in this frame.
                # The call's push and the return's pop cancel on the
                # call stack and the RSB (the return always predicts its
                # own call), except that a full RSB drops its bottom entry.
                if len(rsb) >= rsb_cap:
                    del rsb[0]
                    rsb_drops += 1
                if resident is not None:
                    name = callee.name
                    if name in resident:
                        resident.move_to_end(name)
                        icache_hits += 1
                    else:
                        cycles += icache_enter(name)
                mix, _, leaf_steps, tag = leaf
                if mix is not None:
                    cycles += (
                        mix[1] * c_arith
                        + mix[2] * c_load
                        + mix[3] * c_store
                        + mix[4] * c_cmp
                        + mix[5] * c_fence
                    )
                n_rets += 1
                if tag is None:
                    cycles += c_ret
                else:
                    n_drets += 1
                    charge = tag_costs.get(tag) or tag_cost(tag)
                    charged[tag] = charged.get(tag, 0.0) + charge[0]
                    cycles += charge[1]
                steps += leaf_steps
                if steps > max_steps:
                    raise ExecutionError(
                        f"step limit {max_steps} exceeded "
                        f"(runaway loop in @{callee.name}?)"
                    )

            term = block.term
            kind = term[0]
            returned = False
            if kind == TERM_BR:
                n_br += 1
                trip = term[3]
                if trip is not None:
                    taken = loops.take_back_edge(term[1], trip)
                else:
                    p = term[2]
                    if p >= 1.0:
                        taken = True
                    elif p <= 0.0:
                        taken = False
                    else:
                        taken = rand() < p
                next_block = term[4] if taken else term[5]
            elif kind == TERM_JMP:
                next_block = term[1]
            elif kind == TERM_MISSING:
                # fell off the block: the pending mix is never flushed
                steps += block.charge
                raise ExecutionError(
                    f"block {block.label!r} in @{cfunc.name} "
                    "is unterminated"
                )
            else:
                # RET / SWITCH / IJUMP all flush before acting.
                if n_arith or n_load or n_store or n_cmp or n_fence or n_br:
                    cycles += (
                        n_arith * c_arith
                        + n_load * c_load
                        + n_store * c_store
                        + n_cmp * c_cmp
                        + n_fence * c_fence
                        + n_br * c_branch
                    )
                    n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0
                if kind == TERM_RET:
                    n_rets += 1
                    actual = call_stack.pop() if call_stack else -1
                    tag = term[2]
                    if tag is None:
                        if not rsb:
                            rsb_underflows += 1
                            rsb_misses += 1
                            cycles += c_ret_miss
                        elif rsb.pop() == actual:
                            cycles += c_ret
                        else:
                            rsb_misses += 1
                            cycles += c_ret_miss
                    else:
                        n_drets += 1
                        if rsb:
                            rsb.pop()
                        charge = tag_costs.get(tag) or tag_cost(tag)
                        charged[tag] = charged.get(tag, 0.0) + charge[0]
                        cycles += charge[1]
                    returned = True
                elif kind == TERM_SWITCH:
                    _, succs, cum, total = term
                    if cum is not None:
                        pick = bisect_right(cum, rand() * total)
                        if pick >= len(cum):
                            pick = len(cum) - 1
                        next_block = succs[pick]
                    else:
                        next_block = rng.choice(succs)
                else:  # TERM_IJUMP
                    _, _, succs, cum, total, tag = term
                    n_ijumps += 1
                    if tag is None:
                        cycles += c_ijump
                    else:
                        charge = tag_costs.get(tag) or tag_cost(tag)
                        charged[tag] = charged.get(tag, 0.0) + charge[0]
                        cycles += charge[3]
                    if succs is None:
                        # opaque indirect tail transfer (inline asm)
                        returned = True
                    elif cum is not None:
                        pick = bisect_right(cum, rand() * total)
                        if pick >= len(cum):
                            pick = len(cum) - 1
                        next_block = succs[pick]
                    else:
                        next_block = rng.choice(succs)
            steps += block.charge
            if steps > max_steps:
                raise ExecutionError(
                    f"step limit {max_steps} exceeded "
                    f"(runaway loop in @{cfunc.name}?)"
                )
            if returned:
                return
            block = next_block

    def run(interpreter, cfunc, times: int) -> None:
        nonlocal rng, rand, last_target, stickiness, max_depth, max_steps
        nonlocal slots, n_slots, rsb, rsb_cap, resident, icache_enter
        nonlocal charged, cycles, steps, n_calls, n_icalls, n_rets
        nonlocal n_ijumps, n_dicalls, n_drets, btb_misses, rsb_misses
        nonlocal rsb_underflows, rsb_drops, icache_hits
        rng = interpreter.rng
        rand = rng.random
        last_target = interpreter._last_target
        stickiness = interpreter.target_stickiness
        limits = interpreter.limits
        max_depth = limits.max_depth
        max_steps = limits.max_steps
        btb = sink.btb
        slots = btb._slots
        n_slots = btb.num_entries
        rsb_model = sink.rsb
        rsb = rsb_model._stack
        rsb_cap = rsb_model.capacity
        icache = sink.icache
        if icache is None:
            resident = icache_enter = None
        else:
            resident = icache._resident
            icache_enter = icache.enter
        charged = sink.defense_cycles_charged
        cycles = sink.cycles
        steps = interpreter._steps
        n_calls = n_icalls = n_rets = n_ijumps = n_dicalls = n_drets = 0
        btb_misses = rsb_misses = rsb_underflows = rsb_drops = 0
        icache_hits = ops = 0
        try:
            for _ in range(times):
                steps = 0
                ops += 1
                cycles += c_entry
                token = next(tokens)
                call_stack.append(token)
                if len(rsb) >= rsb_cap:
                    del rsb[0]
                    rsb_drops += 1
                rsb.append(token)
                walk(walk, cfunc, 0)
                if call_stack:
                    call_stack.pop()
        finally:
            interpreter._steps = steps
            sink.cycles = cycles
            sink.ops += ops
            counters = sink.counters
            counters["calls"] += n_calls
            counters["icalls"] += n_icalls
            counters["rets"] += n_rets
            counters["defended_icalls"] += n_dicalls
            counters["defended_rets"] += n_drets
            counters["ijumps"] += n_ijumps
            # Every undefended icall accesses the BTB once, and every
            # undefended return predicts from the RSB once.
            btb_accesses = n_icalls - n_dicalls
            btb.hits += btb_accesses - btb_misses
            btb.misses += btb_misses
            rsb_model.hits += n_rets - n_drets - rsb_misses
            rsb_model.misses += rsb_misses
            rsb_model.underflows += rsb_underflows
            rsb_model.overflow_drops += rsb_drops
            if icache is not None:
                icache.hits += icache_hits

    return run


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` executing compiled programs.

    Construction, sinks, seeding and limits are inherited; only the
    execution core differs. Event streams (and therefore profiles and
    timings) are identical to the reference engine per seed.

    A run whose only sink is a plain :class:`TimingModel` (not a subclass)
    takes the fused walker of :func:`_bind_fused_timing`, bound once per
    (sink, program); every other sink list is replayed event by event.
    """

    _functions: Dict[str, CompiledFunction] = {}
    #: ``(sink, program, walker)`` of the last fused binding
    _fused: Optional[tuple] = None

    def run_function(self, name: str, times: int = 1) -> None:
        if name not in self.module:
            raise ExecutionError(f"unknown function {name!r}")
        self._last_target.clear()
        program = compiled_program(self.module)
        cfunc = program.functions[name]
        sinks = self.sinks
        if len(sinks) == 1 and type(sinks[0]) is TimingModel:
            fused = self._fused
            if (
                fused is None
                or fused[0] is not sinks[0]
                or fused[1] is not program
            ):
                fused = self._fused = (
                    sinks[0],
                    program,
                    _bind_fused_timing(sinks[0], program),
                )
            fused[2](self, cfunc, times)
            return
        self._functions = program.functions
        for _ in range(times):
            self._steps = 0
            for sink in self.sinks:
                sink.on_run_start(name)
            self._execute_compiled(cfunc, 0)
            for sink in self.sinks:
                sink.on_run_end(name)

    # -- compiled execution core ------------------------------------------

    def _execute_compiled(self, cfunc: CompiledFunction, depth: int) -> None:
        limits = self.limits
        if depth > limits.max_depth:
            raise ExecutionError(
                f"call depth exceeded {limits.max_depth} in @{cfunc.name}"
            )
        func = cfunc.func
        sinks = self.sinks
        leaf = cfunc.leaf
        if leaf is not None:
            # Straight-line mix + ret: same events as the general loop
            # (enter, flushed mix, ret), no RNG, fixed charge.
            mix, ret_inst, charge, _ = leaf
            for sink in sinks:
                sink.on_enter(func)
            if mix is not None:
                for sink in sinks:
                    sink.on_mix(mix[1], mix[2], mix[3], mix[4], mix[5], 0)
            for sink in sinks:
                sink.on_ret(ret_inst, func)
            self._steps += charge
            if self._steps > limits.max_steps:
                raise ExecutionError(
                    f"step limit {limits.max_steps} exceeded "
                    f"(runaway loop in @{func.name}?)"
                )
            return
        for sink in sinks:
            sink.on_enter(func)

        functions = self._functions
        block = cfunc.entry
        if block is None:
            compile_function(cfunc, functions)
            block = cfunc.entry
            if block is None:
                raise ValueError(f"function {func.name!r} has no blocks")
        rng = self.rng
        rand = rng.random
        last_target = self._last_target
        stickiness = self.target_stickiness
        loops = LoopState() if cfunc.has_trips else None
        max_steps = limits.max_steps
        n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0

        while True:
            for step in block.steps:
                kind = step[0]
                if kind == STEP_MIX:
                    n_arith += step[1]
                    n_load += step[2]
                    n_store += step[3]
                    n_cmp += step[4]
                    n_fence += step[5]
                    continue
                # call-like step: flush the accumulated mix first
                if n_arith or n_load or n_store or n_cmp or n_fence or n_br:
                    for sink in sinks:
                        sink.on_mix(
                            n_arith, n_load, n_store, n_cmp, n_fence, n_br
                        )
                    n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0
                if kind == STEP_CALL:
                    callee = step[2]
                    if callee is None:
                        raise ExecutionError(
                            f"call to undefined @{step[1].callee} "
                            f"in @{func.name}"
                        )
                    inst = step[1]
                    for sink in sinks:
                        sink.on_call(inst, func, callee.func)
                    self._execute_compiled(callee, depth + 1)
                else:  # STEP_ICALL
                    _, inst, site, dist, names, cum, total, _, _ = step
                    if not dist:
                        raise ExecutionError(
                            f"icall without targets in @{func.name}"
                        )
                    last = last_target.get(site) if site is not None else None
                    if (
                        last is not None
                        and last in dist
                        and rand() < stickiness
                    ):
                        target = last
                    elif total <= 0:
                        raise ValueError(
                            "distribution has zero total weight"
                        )
                    else:
                        target = names[pick_index(rng, cum, total)]
                    if site is not None:
                        last_target[site] = target
                    ctarget = functions.get(target)
                    if ctarget is None:
                        raise ExecutionError(
                            f"icall resolved to undefined @{target} "
                            f"in @{func.name}"
                        )
                    for sink in sinks:
                        sink.on_icall(inst, func, ctarget.func)
                    self._execute_compiled(ctarget, depth + 1)

            term = block.term
            kind = term[0]
            returned = False
            next_block: Optional[CompiledBlock] = None
            if kind == TERM_BR:
                n_br += 1
                trip = term[3]
                if trip is not None:
                    taken = loops.take_back_edge(term[1], trip)
                else:
                    p = term[2]
                    if p >= 1.0:
                        taken = True
                    elif p <= 0.0:
                        taken = False
                    else:
                        taken = rand() < p
                next_block = term[4] if taken else term[5]
            elif kind == TERM_JMP:
                next_block = term[1]
            elif kind == TERM_MISSING:
                # fell off the block: the pending mix is never flushed,
                # as in the reference interpreter
                self._steps += block.charge
                raise ExecutionError(
                    f"block {block.label!r} in @{func.name} "
                    "is unterminated"
                )
            else:
                # RET / SWITCH / IJUMP all flush before acting.
                if n_arith or n_load or n_store or n_cmp or n_fence or n_br:
                    for sink in sinks:
                        sink.on_mix(
                            n_arith, n_load, n_store, n_cmp, n_fence, n_br
                        )
                    n_arith = n_load = n_store = n_cmp = n_fence = n_br = 0
                if kind == TERM_RET:
                    for sink in sinks:
                        sink.on_ret(term[1], func)
                    returned = True
                elif kind == TERM_SWITCH:
                    _, succs, cum, total = term
                    if cum is not None:
                        next_block = succs[pick_index(rng, cum, total)]
                    else:
                        next_block = rng.choice(succs)
                else:  # TERM_IJUMP
                    _, inst, succs, cum, total, _ = term
                    for sink in sinks:
                        sink.on_ijump(inst, func)
                    if succs is None:
                        # opaque indirect tail transfer (inline asm)
                        returned = True
                    elif cum is not None:
                        next_block = succs[pick_index(rng, cum, total)]
                    else:
                        next_block = rng.choice(succs)
            self._steps += block.charge
            if self._steps > max_steps:
                raise ExecutionError(
                    f"step limit {max_steps} exceeded "
                    f"(runaway loop in @{func.name}?)"
                )
            if returned:
                return
            block = next_block


#: Engine registry: name -> interpreter class. ``reference`` is the
#: semantic oracle; ``compiled`` is the exact-replay production engine;
#: ``vectorized`` (registered lazily by :mod:`repro.engine.vectorized`,
#: which imports this module) is the counting-mode batch engine.
ENGINES = {
    "reference": Interpreter,
    "compiled": CompiledInterpreter,
}

#: Engines selectable by name even before their module is imported.
KNOWN_ENGINES = ("reference", "compiled", "vectorized")

#: Engine used when callers do not specify one.
DEFAULT_ENGINE = "compiled"


def create_interpreter(
    module: Module,
    sinks=(),
    seed: int = 0,
    limits=None,
    target_stickiness: float = 0.85,
    engine: str = DEFAULT_ENGINE,
) -> Interpreter:
    """Instantiate the selected execution engine over ``module``."""
    cls = ENGINES.get(engine)
    if cls is None and engine == "vectorized":
        # Deferred: vectorized builds on this module, so it registers
        # itself into ENGINES on first import.
        import repro.engine.vectorized  # noqa: F401

        cls = ENGINES[engine]
    if cls is None:
        raise ValueError(
            f"unknown engine {engine!r}; choose from "
            f"{sorted(set(ENGINES) | set(KNOWN_ENGINES))}"
        )
    return cls(
        module,
        sinks,
        seed=seed,
        limits=limits,
        target_stickiness=target_stickiness,
    )
