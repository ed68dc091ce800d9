"""Vectorized execution engine (engine v3): counting-mode superblocks.

The compiled engine (:mod:`repro.engine.compiled`) already removed opcode
dispatch from the hot loop, but it still *replays* every event: one sink
callback per mix batch, call, return. For counting-mode measurements —
the additive, warm-predictor semantics of
:class:`~repro.cpu.counting.CountingTimingModel` — replay is pure waste:
cycles depend only on *how many times* each event happened, never on the
order. This engine exploits that:

Superblocks
    Each function's CFG is partitioned into *superblocks*: maximal chains
    of blocks linked by unconditional control (``jmp``, and ``br`` whose
    outcome is statically known: ``p>=1``/``p<=0``). A chain's straight-
    line instruction mix, branch executions, direct calls (with their
    call-site edges) and terminator events are precomputed into one
    integer :class:`~repro.cpu.counting.CountSummary` *row*; executing
    the chain is a single ``counts[row] += 1``.

Profile edges
    Rows also carry the summary's profile buckets, so a run yields an
    edge profile along with its event totals: each chain row holds its
    direct-call sites, each function has an enter row holding its
    invocation, and each indirect call credits a row per (site, target),
    created the first time that target is drawn.

Deterministic-subtree folding
    A function whose entire execution consumes no randomness (no icalls,
    switches or probabilistic branches, transitively through all direct
    callees) always produces the same counts. Its one-invocation summary
    is precomputed once and calls to it fold into the caller's row — an
    entire call subtree becomes part of one increment.

Trip-loop collapse
    A superblock whose trip-counted back edge targets its own head (and
    whose body consumes no randomness) executes exactly ``trip + 1``
    times per loop entry; the walker adds ``trip`` extra executions in
    O(1) instead of iterating.

Count flush
    Per-row execution counts accumulate in a sparse vector local to the
    interpreter; on flush (bound to the counting sinks' reads) the dot
    product ``counts · rows`` is evaluated and delivered to every sink
    via ``absorb_counts``. A wide flush for a sink that reads the cost
    buckets evaluates them as a dense int64 numpy matrix product
    (numpy is imported on first use); everything else, and the profile
    buckets always, accumulates sparsely in pure python.

Everything the vector path cannot express falls back to exact-semantics
execution: if any attached sink lacks ``supports_counts`` (stateful
timing models and trace recorders need the real event stream), the run
delegates wholesale to the compiled engine; inside the vector path,
depth-risky folded subtrees degrade to stepwise walking so limit errors
surface exactly where the reference interpreter raises them.

RNG discipline: the walker consumes ``rng`` draws in *exactly* the
compiled engine's order (stickiness draw, cumulative-weight bisect,
``rng.choice``), and only RNG-free structure is ever folded, so per-seed
stochastic paths — and therefore count totals — are identical across
engines. The differential tests in ``tests/engine/test_vectorized.py``
pin this.

Vector programs are cached per module and invalidated through the module
``version`` counter, exactly like compiled programs: hardening a variant
bumps the version and every superblock summary is rebuilt. Functions are
lowered on first invocation, and lowering one compiles its compiled form
on demand (:func:`~repro.engine.compiled.compile_function`), together
with every direct callee it may fold.

Errors abort a run just as in the other engines (same exception types
and messages at the same RNG positions); counts flushed after an aborted
run may include events past the failure point within the failing
superblock — counting totals are only contractual for successful runs.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.cpu.counting import CountSummary
from repro.engine.behavior import LoopState, pick_index
from repro.engine.compiled import (
    STEP_CALL,
    STEP_ICALL,
    STEP_MIX,
    TERM_BR,
    TERM_IJUMP,
    TERM_JMP,
    TERM_MISSING,
    TERM_RET,
    TERM_SWITCH,
    CompiledFunction,
    CompiledProgram,
    CompiledInterpreter,
    ENGINES,
    compile_function,
    compiled_program,
)
from repro.engine.interpreter import ExecutionError
from repro.ir.module import Module

_NOT_IMPORTED: Any = object()

#: numpy, imported by the first dense flush (``None`` when it is not
#: installed). Importing it costs every process ~60 ms and ~12 MB of RSS,
#: and only wide counting flushes use it. Tests patch it to ``None`` to
#: force the pure-python flush.
_np: Any = _NOT_IMPORTED


def _numpy() -> Any:
    global _np
    if _np is _NOT_IMPORTED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is an optional extra
            numpy = None
        _np = numpy
    return _np


# Walker step kinds (first element of a step tuple).
VSTEP_CALL = 0  # (0, inst, callee_vfunc_or_None)
VSTEP_CALL_DET = 1  # (1, inst, callee_vfunc, summary_row, charge, extra_depth)
VSTEP_ICALL = 2  # (2, inst, site, dist, names, cum, total, key, edges)

# Walker terminator kinds (first element of a term tuple).
VT_RET = 0  # (0,)
VT_JMP = 1  # (1, succ_node)
VT_BR = 2  # (2, label, p, trip, taken_node, fall_node, collapse)
VT_SWITCH = 3  # (3, succ_nodes, cum, total)
VT_IJUMP = 4  # (4, succ_nodes_or_None, cum, total)
VT_MISSING = 5  # (5, label)

#: Step budget for precomputing one deterministic-function summary.
#: A function whose single invocation exceeds this is simply left on the
#: stepwise walker path (correct, just not folded) — this also rejects
#: statically-infinite loops (``br`` with ``p>=1`` back edges).
_DET_STEP_BUDGET = 1_000_000

#: Below this many touched rows a python flush beats building the dense
#: count vector; numpy only pays off on wide flushes.
_NUMPY_FLUSH_MIN_ROWS = 64


class VectorNode:
    """One superblock: a chain of basic blocks executed as a unit.

    ``fast_row`` is the fully-folded count row (chain events plus every
    deterministic callee's summary) — ``None`` when the chain contains a
    step the fold cannot absorb (an icall, or a call to a stochastic or
    undefined function), in which case the walker takes the stepwise
    path over ``steps`` after crediting ``base_row``.
    """

    __slots__ = (
        "head",
        "chain",
        "steps",
        "term",
        "base_row",
        "base_charge",
        "fast_row",
        "fast_charge",
        "need_depth",
    )

    def __init__(self, head: str) -> None:
        self.head = head
        self.chain: Tuple[str, ...] = (head,)
        self.steps: Tuple[tuple, ...] = ()
        self.term: tuple = (VT_MISSING, head)
        self.base_row = -1
        self.base_charge = 0
        self.fast_row: Optional[int] = None
        self.fast_charge = 0
        self.need_depth = 0

    def __repr__(self) -> str:
        return (
            f"<VectorNode {self.head} chain={len(self.chain)} "
            f"steps={len(self.steps)} fast={self.fast_row is not None}>"
        )


class VectorFunction:
    """A function's superblock graph plus its determinism classification."""

    __slots__ = (
        "name",
        "cfunc",
        "ready",
        "compiling",
        "entry",
        "nodes",
        "det",
        "summary",
        "summary_row",
        "charge",
        "det_depth",
        "enter_row",
    )

    def __init__(self, name: str, cfunc: CompiledFunction) -> None:
        self.name = name
        self.cfunc = cfunc
        self.ready = False
        self.compiling = False
        self.entry: Optional[VectorNode] = None
        self.nodes: Dict[str, VectorNode] = {}
        self.enter_row = -1
        self.det = False
        self.summary: Optional[CountSummary] = None
        self.summary_row: Optional[int] = None
        self.charge = 0
        self.det_depth = 0

    def __repr__(self) -> str:
        return (
            f"<VectorFunction {self.name} nodes={len(self.nodes)} "
            f"det={self.det}>"
        )


class VectorProgram:
    """A module's lazily-built vector compilation.

    Functions compile on first invocation (a 10×-scale kernel has tens of
    thousands of functions; a benchmark touches a fraction). All count
    rows live in one shared list so a single sparse vector of execution
    counts describes an entire run.
    """

    def __init__(self, cprogram: CompiledProgram, version: int) -> None:
        self.cprogram = cprogram
        self.version = version
        self.functions: Dict[str, VectorFunction] = {}
        self.rows: List[CountSummary] = []
        op = CountSummary()
        op.ops = 1
        self.op_row = self.add_row(op)
        # numpy flush cache: (n_rows, matrix, column spec)
        self._matrix: Optional[tuple] = None

    # -- rows --------------------------------------------------------------

    def add_row(self, summary: CountSummary) -> int:
        self.rows.append(summary)
        return len(self.rows) - 1

    def icall_edge_row(
        self, key: Tuple[Optional[str], bool], site: Optional[int], target: str
    ) -> int:
        """A new row for one indirect call from ``site`` to ``target``."""
        summary = CountSummary()
        summary.icalls[key] = 1
        summary.indirect[(site, target)] = 1
        return self.add_row(summary)

    # -- functions ---------------------------------------------------------

    def resolve(self, name: str) -> Optional[VectorFunction]:
        """The (possibly not yet compiled) vector function for ``name``."""
        vf = self.functions.get(name)
        if vf is None:
            cfunc = self.cprogram.functions.get(name)
            if cfunc is None:
                return None
            vf = VectorFunction(name, cfunc)
            self.functions[name] = vf
        return vf

    def ensure(self, vf: VectorFunction) -> None:
        if not vf.ready and not vf.compiling:
            _compile_function(self, vf)

    # -- count materialization --------------------------------------------

    def materialize(
        self, counts: Dict[int, int], dense: bool = True
    ) -> CountSummary:
        """Evaluate ``Σ counts[i] × rows[i]`` as one :class:`CountSummary`.

        With ``dense`` a wide flush evaluates the cost buckets as a numpy
        matrix product; pass ``False`` when only the profile buckets will
        be read, which keeps numpy and the dense matrix out of the run.
        """
        if (
            dense
            and len(counts) >= _NUMPY_FLUSH_MIN_ROWS
            and max(counts.values()) < (1 << 53)
            and _numpy() is not None
        ):
            return self._materialize_numpy(counts)
        total = CountSummary()
        rows = self.rows
        for idx, n in counts.items():
            if n:
                total.add_scaled(rows[idx], n)
        return total

    def _columns(self):
        """Dense int64 row matrix over the current row list (cached)."""
        n = len(self.rows)
        cached = self._matrix
        if cached is not None and cached[0] == n:
            return cached[1], cached[2]
        scalar = (
            "ops", "enters", "arith", "load", "store", "cmp", "fence",
            "br", "calls",
        )
        keyed: List[tuple] = []
        index: Dict[tuple, int] = {}
        for row in self.rows:
            for key in row.icalls:
                spec = ("icalls", key)
                if spec not in index:
                    index[spec] = len(scalar) + len(keyed)
                    keyed.append(spec)
            for tag in row.rets:
                spec = ("rets", tag)
                if spec not in index:
                    index[spec] = len(scalar) + len(keyed)
                    keyed.append(spec)
            for tag in row.ijumps:
                spec = ("ijumps", tag)
                if spec not in index:
                    index[spec] = len(scalar) + len(keyed)
                    keyed.append(spec)
        matrix = _np.zeros((n, len(scalar) + len(keyed)), dtype=_np.int64)
        for i, row in enumerate(self.rows):
            for j, slot in enumerate(scalar):
                matrix[i, j] = getattr(row, slot)
            for key, count in row.icalls.items():
                matrix[i, index[("icalls", key)]] = count
            for tag, count in row.rets.items():
                matrix[i, index[("rets", tag)]] = count
            for tag, count in row.ijumps.items():
                matrix[i, index[("ijumps", tag)]] = count
        self._matrix = (n, matrix, (scalar, keyed))
        return matrix, (scalar, keyed)

    def _materialize_numpy(self, counts: Dict[int, int]) -> CountSummary:
        matrix, (scalar, keyed) = self._columns()
        vec = _np.zeros(len(self.rows), dtype=_np.int64)
        vec[list(counts.keys())] = list(counts.values())
        totals = vec @ matrix
        out = CountSummary()
        for j, slot in enumerate(scalar):
            setattr(out, slot, int(totals[j]))
        base = len(scalar)
        for j, (bucket, key) in enumerate(keyed):
            value = int(totals[base + j])
            if value:
                getattr(out, bucket)[key] = value
        rows = self.rows
        for idx, n in counts.items():
            if n:
                out.add_profile(rows[idx], n)
        return out

    def __repr__(self) -> str:
        ready = sum(1 for f in self.functions.values() if f.ready)
        return (
            f"<VectorProgram functions={ready}/{len(self.functions)} "
            f"rows={len(self.rows)} version={self.version}>"
        )


# -- compilation ------------------------------------------------------------


def _build_chain(cfunc: CompiledFunction, head: str):
    """Fold the maximal unconditional chain starting at ``head``.

    Returns ``(base_summary, charge, raw_steps, tail, chain_labels)``
    where ``tail`` is the compiled-level terminator descriptor the walker
    must still resolve at runtime: ``('ret'|'jmp'|'br'|'switch'|'ijump'|
    'missing', compiled term tuple or label)``. Every direct call in the
    chain executes once per traversal, so the base summary already holds
    its call and call-site edge; the step itself stays in ``raw_steps``
    for the callee.
    """
    base = CountSummary()
    charge = 0
    raw_steps: List[tuple] = []
    chain: List[str] = []
    seen = set()
    block = cfunc.blocks[head]
    while True:
        seen.add(block.label)
        chain.append(block.label)
        for step in block.steps:
            if step[0] == STEP_MIX:
                base.arith += step[1]
                base.load += step[2]
                base.store += step[3]
                base.cmp += step[4]
                base.fence += step[5]
                continue
            if step[0] == STEP_CALL:
                site = step[1].site_id
                base.calls += 1
                base.direct[site] = base.direct.get(site, 0) + 1
            raw_steps.append(step)
        charge += block.charge
        term = block.term
        kind = term[0]
        if kind == TERM_JMP:
            succ = term[1]
            if succ.label in seen:
                return base, charge, raw_steps, ("jmp", succ.label), chain
            block = succ
            continue
        if kind == TERM_BR:
            base.br += 1  # the br executes once per chain traversal
            trip, p = term[3], term[2]
            if trip is None and (p >= 1.0 or p <= 0.0):
                succ = term[4] if p >= 1.0 else term[5]
                if succ.label not in seen:
                    block = succ
                    continue
                # statically-infinite unconditional loop: cut the chain
                # and leave the (deterministic) br to the walker, which
                # spins until the step limit — reference semantics.
            return base, charge, raw_steps, ("br", term), chain
        if kind == TERM_RET:
            base.rets[term[2]] = base.rets.get(term[2], 0) + 1
            return base, charge, raw_steps, ("ret", term), chain
        if kind == TERM_SWITCH:
            return base, charge, raw_steps, ("switch", term), chain
        if kind == TERM_IJUMP:
            tag = term[5]
            base.ijumps[tag] = base.ijumps.get(tag, 0) + 1
            return base, charge, raw_steps, ("ijump", term), chain
        # TERM_MISSING
        return base, charge, raw_steps, ("missing", block.label), chain


def _compile_function(program: VectorProgram, vf: VectorFunction) -> None:
    """Build ``vf``'s superblock graph, fold what folds, classify.

    Compiles the function's :class:`CompiledFunction` first if no walker
    has entered it yet, and (through :meth:`VectorProgram.ensure`) every
    direct callee it may fold.
    """
    vf.compiling = True
    try:
        cfunc = vf.cfunc
        if cfunc.entry is None:
            compile_function(cfunc, program.cprogram.functions)
        enter = CountSummary()
        enter.enters = 1
        enter.invocations[vf.name] = 1
        vf.enter_row = program.add_row(enter)
        if cfunc.entry is None:
            vf.ready = True
            return

        # 1. Discover superblocks from the entry; successors of each
        #    walker-level terminator become chain heads.
        raw: Dict[str, tuple] = {}
        pending = [cfunc.func.entry_label]
        while pending:
            head = pending.pop()
            if head in raw:
                continue
            built = _build_chain(cfunc, head)
            raw[head] = built
            tail = built[3]
            kind = tail[0]
            if kind == "jmp":
                pending.append(tail[1])
            elif kind == "br":
                term = tail[1]
                pending.append(term[4].label)
                pending.append(term[5].label)
            elif kind == "switch":
                pending.extend(b.label for b in tail[1][1])
            elif kind == "ijump" and tail[1][2] is not None:
                pending.extend(b.label for b in tail[1][2])

        nodes = {head: VectorNode(head) for head in raw}
        vf.nodes = nodes
        vf.entry = nodes[cfunc.func.entry_label]

        # 2. Convert steps (compiling callees as needed), register rows,
        #    fold deterministic callees into fast rows.
        stochastic = False
        for head, (base, charge, raw_steps, tail, chain) in raw.items():
            node = nodes[head]
            node.chain = tuple(chain)
            steps: List[tuple] = []
            foldable = True
            fast = None
            fast_charge = charge
            need_depth = 0
            for step in raw_steps:
                if step[0] == STEP_CALL:
                    inst, callee_cfunc = step[1], step[2]
                    callee = (
                        program.resolve(inst.callee)
                        if callee_cfunc is not None
                        else None
                    )
                    if callee is not None:
                        program.ensure(callee)
                    if callee is not None and callee.det:
                        steps.append(
                            (
                                VSTEP_CALL_DET,
                                inst,
                                callee,
                                callee.summary_row,
                                callee.charge,
                                1 + callee.det_depth,
                            )
                        )
                        if foldable:
                            if fast is None:
                                fast = CountSummary()
                                fast.add(base)
                            fast.add(callee.summary)
                            fast_charge += callee.charge
                            need_depth = max(
                                need_depth, 1 + callee.det_depth
                            )
                        continue
                    steps.append((VSTEP_CALL, inst, callee))
                    foldable = False
                else:  # STEP_ICALL
                    _, inst, site, dist, names, cum, total, tag, vcall = step
                    key = (tag, vcall)
                    steps.append(
                        (
                            VSTEP_ICALL,
                            inst,
                            site,
                            dist,
                            names,
                            cum,
                            total,
                            key,
                            {},  # target -> (edge row, vfunc), as drawn
                        )
                    )
                    foldable = False
            node.steps = tuple(steps)
            node.base_row = program.add_row(base)
            node.base_charge = charge
            if foldable:
                if fast is None:
                    # pure chain, nothing folded: fast row IS the base row
                    node.fast_row = node.base_row
                else:
                    node.fast_row = program.add_row(fast)
                node.fast_charge = fast_charge
                node.need_depth = need_depth
            else:
                stochastic = True

        # 3. Resolve terminators to node references; note stochasticity.
        trip_tails: Dict[str, int] = {}
        for head, (_, _, _, tail, chain) in raw.items():
            for label in chain:
                trip_tails[label] = trip_tails.get(label, 0) + 1
        for head, (_, _, _, tail, chain) in raw.items():
            node = nodes[head]
            kind = tail[0]
            if kind == "ret":
                node.term = (VT_RET,)
            elif kind == "jmp":
                node.term = (VT_JMP, nodes[tail[1]])
            elif kind == "br":
                term = tail[1]
                label, p, trip = term[1], term[2], term[3]
                taken = nodes[term[4].label]
                fall = nodes[term[5].label]
                collapse = False
                if trip is not None:
                    stochastic_br = False
                    # Collapse only when this node exclusively owns the
                    # trip counter's label (LoopState is per-label) and
                    # the back edge re-enters this very superblock with
                    # nothing stochastic inside.
                    collapse = (
                        taken is node
                        and node.fast_row is not None
                        and trip_tails.get(label, 0) == 1
                    )
                elif 0.0 < p < 1.0:
                    stochastic = True
                node.term = (VT_BR, label, p, trip, taken, fall, collapse)
            elif kind == "switch":
                term = tail[1]
                node.term = (
                    VT_SWITCH,
                    tuple(nodes[b.label] for b in term[1]),
                    term[2],
                    term[3],
                )
                stochastic = True
            elif kind == "ijump":
                term = tail[1]
                if term[2] is None:
                    node.term = (VT_IJUMP, None, None, 0.0)
                else:
                    node.term = (
                        VT_IJUMP,
                        tuple(nodes[b.label] for b in term[2]),
                        term[3],
                        term[4],
                    )
                    stochastic = True
            else:
                node.term = (VT_MISSING, tail[1])
                stochastic = True  # executing it raises; never fold

        # 4. Deterministic classification: RNG-free everywhere reachable
        #    -> precompute the one-invocation summary.
        if not stochastic:
            _summarize(program, vf)
        vf.ready = True
    finally:
        vf.compiling = False


def _summarize(program: VectorProgram, vf: VectorFunction) -> bool:
    """Execute ``vf`` once symbolically (no RNG) to build its summary."""
    rows = program.rows
    summary = CountSummary()
    summary.add(rows[vf.enter_row])
    charge = 0
    det_depth = 0
    loops = LoopState()
    node = vf.entry
    while True:
        if node.fast_row is None:
            return False
        det_depth = max(det_depth, node.need_depth)
        summary.add(rows[node.fast_row])
        charge += node.fast_charge
        if charge > _DET_STEP_BUDGET:
            return False
        term = node.term
        kind = term[0]
        if kind == VT_RET:
            break
        if kind == VT_JMP:
            node = term[1]
            continue
        if kind == VT_BR:
            trip = term[3]
            if trip is not None:
                if term[6]:  # collapsed self-loop
                    if trip:
                        summary.add_scaled(rows[node.fast_row], trip)
                        charge += node.fast_charge * trip
                        if charge > _DET_STEP_BUDGET:
                            return False
                    node = term[5]
                else:
                    node = (
                        term[4]
                        if loops.take_back_edge(term[1], trip)
                        else term[5]
                    )
                continue
            p = term[2]
            if p >= 1.0:
                node = term[4]
            elif p <= 0.0:
                node = term[5]
            else:
                return False
            continue
        if kind == VT_IJUMP and term[1] is None:
            break  # opaque tail transfer: event counted, frame returns
        return False  # switch / targeted ijump / missing
    vf.summary = summary
    vf.summary_row = program.add_row(summary)
    vf.charge = charge
    vf.det_depth = det_depth
    vf.det = True
    return True


# -- program cache ----------------------------------------------------------


_VECTOR_CACHE: "weakref.WeakKeyDictionary[Module, VectorProgram]" = (
    weakref.WeakKeyDictionary()
)


def vector_program(module: Module) -> VectorProgram:
    """The module's vector program, rebuilt when ``module.version`` moves
    past the cached compilation (the superblock-cache invalidation seam)."""
    version = getattr(module, "version", 0)
    program = _VECTOR_CACHE.get(module)
    if program is None or program.version != version:
        program = VectorProgram(compiled_program(module), version)
        _VECTOR_CACHE[module] = program
    return program


# -- the engine -------------------------------------------------------------


class VectorizedInterpreter(CompiledInterpreter):
    """Engine v3: superblock counting execution with exact fallback.

    Construction matches the other engines. When every sink declares
    ``supports_counts`` the run takes the vector path; otherwise it
    delegates to the compiled engine (bit-identical event streams). Count
    totals on the vector path equal what a counting sink would tally
    under the other engines, per seed — proven by the differential tests.
    """

    _vprogram: Optional[VectorProgram] = None
    #: the sink list the current program was bound for
    _vsinks: Optional[list] = None

    def run_function(self, name: str, times: int = 1) -> None:
        if name not in self.module:
            raise ExecutionError(f"unknown function {name!r}")
        program = self._vprogram
        if (
            program is None
            or self._vsinks != self.sinks
            or program.version != getattr(self.module, "version", 0)
        ):
            if not all(
                getattr(s, "supports_counts", False) for s in self.sinks
            ):
                # Somebody needs the real event stream: exact compiled replay.
                super().run_function(name, times=times)
                return
            program = self._bind_program()
        self._last_target.clear()
        vfunc = program.resolve(name)
        program.ensure(vfunc)
        counts = self._vcounts
        counts[program.op_row] += times
        for _ in range(times):
            self._steps = 0
            self._execute_vector(vfunc, 0)

    # -- count plumbing ----------------------------------------------------

    def _bind_program(self) -> VectorProgram:
        program = vector_program(self.module)
        if self._vprogram is not program:
            if self._vprogram is not None:
                # rows are about to change meaning: drain under old rows
                self.flush_counts()
            self._vprogram = program
            self._vcounts: Dict[int, int] = defaultdict(int)
        self._vsinks = list(self.sinks)
        for sink in self.sinks:
            bind = getattr(sink, "bind_flush", None)
            if bind is not None:
                bind(self.flush_counts)
        return program

    def flush_counts(self) -> None:
        """Deliver accumulated superblock counts to every counting sink."""
        counts = getattr(self, "_vcounts", None)
        if not counts:
            return
        dense = not all(
            getattr(s, "counts_profile_only", False) for s in self.sinks
        )
        summary = self._vprogram.materialize(counts, dense=dense)
        counts.clear()
        for sink in self.sinks:
            absorb = getattr(sink, "absorb_counts", None)
            if absorb is not None:
                absorb(summary)

    # -- vector execution core --------------------------------------------

    def _execute_vector(
        self,
        vfunc: VectorFunction,
        depth: int,
        counts=None,
        rng=None,
        max_depth: int = 0,
        max_steps: int = 0,
    ) -> None:
        # Hot context rides in positional arguments: recursion re-passing
        # locals is markedly cheaper than per-frame attribute loads.
        if counts is None:
            counts = self._vcounts
            rng = self.rng
            max_depth = self.limits.max_depth
            max_steps = self.limits.max_steps
        if depth > max_depth:
            raise ExecutionError(
                f"call depth exceeded {max_depth} in @{vfunc.name}"
            )
        if vfunc.det and depth + vfunc.det_depth <= max_depth:
            # whole-subtree fold: one increment, summary includes enters
            counts[vfunc.summary_row] += 1
            self._steps += vfunc.charge
            if self._steps > max_steps:
                raise ExecutionError(
                    f"step limit {max_steps} exceeded "
                    f"(runaway loop in @{vfunc.name}?)"
                )
            return
        program = self._vprogram
        if not vfunc.ready:
            program.ensure(vfunc)
            if vfunc.det and depth + vfunc.det_depth <= max_depth:
                counts[vfunc.summary_row] += 1
                self._steps += vfunc.charge
                if self._steps > max_steps:
                    raise ExecutionError(
                        f"step limit {max_steps} exceeded "
                        f"(runaway loop in @{vfunc.name}?)"
                    )
                return
        counts[vfunc.enter_row] += 1
        node = vfunc.entry
        if node is None:
            raise ValueError(f"function {vfunc.name!r} has no blocks")
        rand = rng.random
        loops: Optional[LoopState] = None

        while True:
            fast = node.fast_row
            if fast is not None and depth + node.need_depth <= max_depth:
                counts[fast] += 1
                self._steps += node.fast_charge
            else:
                counts[node.base_row] += 1
                self._steps += node.base_charge
                # the base row holds every direct call's call-site edge
                for step in node.steps:
                    kind = step[0]
                    if kind == VSTEP_CALL_DET:
                        if depth + step[5] <= max_depth:
                            counts[step[3]] += 1
                            self._steps += step[4]
                            if self._steps > max_steps:
                                raise ExecutionError(
                                    f"step limit {max_steps} exceeded "
                                    f"(runaway loop in @{vfunc.name}?)"
                                )
                            continue
                        # depth-risky fold: walk it so the limit error
                        # surfaces in exactly the right frame
                        self._execute_vector(
                            step[2], depth + 1, counts, rng,
                            max_depth, max_steps,
                        )
                    elif kind == VSTEP_CALL:
                        callee = step[2]
                        if callee is None:
                            raise ExecutionError(
                                f"call to undefined @{step[1].callee} "
                                f"in @{vfunc.name}"
                            )
                        self._execute_vector(
                            callee, depth + 1, counts, rng,
                            max_depth, max_steps,
                        )
                    else:  # VSTEP_ICALL
                        _, inst, site, dist, names, cum, total, key, edges = (
                            step
                        )
                        if not dist:
                            raise ExecutionError(
                                f"icall without targets in @{vfunc.name}"
                            )
                        last_target = self._last_target
                        last = (
                            last_target.get(site)
                            if site is not None
                            else None
                        )
                        if (
                            last is not None
                            and last in dist
                            and rand() < self.target_stickiness
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
                        edge = edges.get(target)
                        if edge is None:
                            vtarget = program.resolve(target)
                            if vtarget is None:
                                raise ExecutionError(
                                    f"icall resolved to undefined @{target} "
                                    f"in @{vfunc.name}"
                                )
                            edge = edges[target] = (
                                program.icall_edge_row(key, site, target),
                                vtarget,
                            )
                        counts[edge[0]] += 1
                        self._execute_vector(
                            edge[1], depth + 1, counts, rng,
                            max_depth, max_steps,
                        )
            if self._steps > max_steps:
                raise ExecutionError(
                    f"step limit {max_steps} exceeded "
                    f"(runaway loop in @{vfunc.name}?)"
                )

            term = node.term
            kind = term[0]
            if kind == VT_RET:
                return
            if kind == VT_BR:
                trip = term[3]
                if trip is None:
                    p = term[2]
                    if p >= 1.0:
                        taken = True
                    elif p <= 0.0:
                        taken = False
                    else:
                        taken = rand() < p
                    node = term[4] if taken else term[5]
                    continue
                if (
                    term[6]
                    and node.fast_row is not None
                    and depth + node.need_depth <= max_depth
                ):
                    # collapsed self-loop: body already ran once above
                    if trip:
                        counts[node.fast_row] += trip
                        self._steps += node.fast_charge * trip
                        if self._steps > max_steps:
                            raise ExecutionError(
                                f"step limit {max_steps} exceeded "
                                f"(runaway loop in @{vfunc.name}?)"
                            )
                    node = term[5]
                    continue
                if loops is None:
                    loops = LoopState()
                node = (
                    term[4]
                    if loops.take_back_edge(term[1], trip)
                    else term[5]
                )
                continue
            if kind == VT_SWITCH:
                _, succs, cum, total = term
                if cum is not None:
                    node = succs[pick_index(rng, cum, total)]
                else:
                    node = rng.choice(succs)
                continue
            if kind == VT_IJUMP:
                _, succs, cum, total = term
                if succs is None:
                    return  # opaque indirect tail transfer
                if cum is not None:
                    node = succs[pick_index(rng, cum, total)]
                else:
                    node = rng.choice(succs)
                continue
            if kind == VT_JMP:
                node = term[1]
                continue
            # VT_MISSING
            raise ExecutionError(
                f"block {term[1]!r} in @{vfunc.name} is unterminated"
            )


ENGINES["vectorized"] = VectorizedInterpreter
