"""Function-body cloning and call-site splicing — the mechanical half of
inlining (the policy half lives in :mod:`repro.passes.inliner`).

``inline_call`` performs the transformation of Listing 1: the call site is
replaced by a jump into a freshly cloned copy of the callee's CFG, and every
``ret`` in the clone becomes a jump to the continuation block holding the
caller's remaining instructions. The call *and* the callee's returns
disappear from the dynamic path — eliminating one forward edge (if the call
was promoted from an indirect one) and one backward edge per execution.
"""

from __future__ import annotations

import contextlib
import copy
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import FunctionPointerTable, Module
from repro.ir.types import (
    ATTR_CLONED_FROM,
    ATTR_EDGE_COUNT,
    ATTR_ICP_SITE,
    ATTR_PROMOTED,
    CALLS,
    IMMUTABLE_OPCODES,
    METADATA_INLINED_PROMOTED,
    Opcode,
)

#: Serial for the `inl{N}.` label prefix of spliced callee blocks. A plain
#: int (not itertools.count) so :func:`inline_serial_checkpoint` can save
#: and restore it — differential staged-vs-reference builds need both
#: builds to mint identical labels — and :func:`inline_serial_scope` can
#: start a replayed build where its recorded build started.
_inline_serial = 0


def _next_inline_serial() -> int:
    global _inline_serial
    _inline_serial += 1
    return _inline_serial


@contextlib.contextmanager
def inline_serial_checkpoint() -> Iterator[int]:
    """Snapshot/restore the inline-label serial around a block, the label
    counterpart of :func:`repro.ir.instruction.site_id_checkpoint` (use
    both for bit-identical differential builds)."""
    global _inline_serial
    saved = _inline_serial
    try:
        yield saved
    finally:
        _inline_serial = saved


@contextlib.contextmanager
def inline_serial_scope(start: Optional[int] = None) -> Iterator[int]:
    """Mint the block's inline label serials from ``start + 1`` and
    yield ``start`` (``None``: where the serial stands), leaving the
    serial at the larger of its value before and after the block, the
    label counterpart of :func:`repro.ir.instruction.site_id_scope`."""
    global _inline_serial
    before = _inline_serial
    if start is not None:
        _inline_serial = start
    try:
        yield _inline_serial
    finally:
        _inline_serial = max(before, _inline_serial)


def record_inlined_promotion(module: Module, inst: Instruction) -> None:
    """Log that an inliner is about to consume a promoted direct call.

    Only *original* promotion artifacts are recorded (clones carry scaled
    duplicate weight). The record lets the flow-conservation analysis
    keep accounting for profile weight whose call instruction no longer
    exists. Inliners call this unconditionally at startup via
    ``module.metadata.setdefault`` so the (possibly empty) record also
    marks "provenance available" for the analyzer.
    """
    if (
        inst.opcode != Opcode.CALL
        or not inst.attrs.get(ATTR_PROMOTED)
        or ATTR_ICP_SITE not in inst.attrs
        or ATTR_CLONED_FROM in inst.attrs
    ):
        return
    records = module.metadata.setdefault(METADATA_INLINED_PROMOTED, [])
    records.append(
        {
            "site": inst.attrs[ATTR_ICP_SITE],
            "target": inst.callee,
            "count": inst.attrs.get(ATTR_EDGE_COUNT, 0),
        }
    )


def clone_instruction_exact(inst: Instruction) -> Instruction:
    """Copy one instruction preserving its ``site_id``.

    Attribute values are copied one container level deep — the IR's
    attribute vocabulary (:mod:`repro.ir.types`) only ever nests scalars
    inside a dict/list/tuple, so this fully isolates the clone while
    skipping generic-deepcopy dispatch.
    """
    new = Instruction.__new__(Instruction)
    new.opcode = inst.opcode
    new.callee = inst.callee
    new.targets = inst.targets
    new.num_args = inst.num_args
    new.site_id = inst.site_id
    attrs = inst.attrs
    if attrs:
        copied = {}
        for key, value in attrs.items():
            if type(value) is dict:
                value = dict(value)
            elif type(value) is list:
                value = list(value)
            copied[key] = value
        new.attrs = copied
    else:
        new.attrs = {}
    return new


def _skeleton(func: Function, cow: bool) -> Function:
    """``func`` without its blocks. A copy-on-write skeleton shares
    ``func.attrs`` (no pass writes a function's attributes); an eager
    one owns a copy."""
    cloned = Function(
        func.name,
        num_params=func.num_params,
        stack_frame_size=func.stack_frame_size,
        subsystem=func.subsystem,
    )
    cloned.attrs = func.attrs if cow else set(func.attrs)
    cloned.entry_label = func.entry_label
    return cloned


def clone_function_exact(func: Function, cow: bool = False) -> Function:
    """Copy one function preserving its name, labels and site ids.

    The building block of both eager module cloning (``cow=False``: the
    copy owns every instruction and its ``attrs`` set) and copy-on-write
    materialization (``cow=True``, :meth:`repro.ir.module.Module.mutable`):
    the copy owns what a pass may write, calls and terminators with
    their ``attrs``, and shares the immutable instructions
    (:data:`~repro.ir.types.IMMUTABLE_OPCODES`) and the function's
    ``attrs`` set with ``func``, as an inline splice does. Hardening
    stamps copy less still: only the instructions they tag
    (:meth:`~repro.ir.module.Module.mutable_shell`). The instruction
    copy is open-coded rather than delegated to
    :func:`clone_instruction_exact`, which saves a call per instruction.
    """
    cloned = _skeleton(func, cow)
    blocks = cloned.blocks
    shared = IMMUTABLE_OPCODES if cow else ()
    new_inst = Instruction.__new__
    for label, block in func.blocks.items():
        insts = []
        for inst in block.instructions:
            if inst.opcode in shared:
                insts.append(inst)
                continue
            new = new_inst(Instruction)
            new.opcode = inst.opcode
            new.callee = inst.callee
            new.targets = inst.targets
            new.num_args = inst.num_args
            new.site_id = inst.site_id
            attrs = inst.attrs
            if attrs:
                copied = {}
                for key, value in attrs.items():
                    if type(value) is dict:
                        value = dict(value)
                    elif type(value) is list:
                        value = list(value)
                    copied[key] = value
                new.attrs = copied
            else:
                new.attrs = {}
            insts.append(new)
        new_block = BasicBlock(label)
        new_block.instructions = insts
        blocks[label] = new_block
    return cloned


def clone_function_shell(func: Function) -> Function:
    """Copy a function's skeleton, sharing its blocks and instructions.

    The block-granular complement of :func:`clone_function_exact`, for
    :meth:`repro.ir.module.Module.mutable_shell`: the returned function
    owns its ``blocks`` dict (labels can be rebound to private blocks)
    while the :class:`BasicBlock` objects themselves, and the ``attrs``
    set, remain shared with the source. The caller is responsible for
    copying a block before mutating anything inside it.
    """
    cloned = _skeleton(func, cow=True)
    cloned.blocks.update(func.blocks)
    return cloned


def clone_module(module: Module, cow: bool = False) -> Module:
    """Fast whole-module deep clone preserving site ids.

    Equivalent to ``copy.deepcopy`` for the IR object graph but an order
    of magnitude faster — the pipeline clones the linked baseline for
    every profiling run and every built variant, which made generic
    deepcopy the single hottest operation of an evaluation sweep. Site
    ids survive verbatim so profiles collected against the original
    remain liftable onto the clone.

    With ``cow=True`` the clone is *copy-on-write at function
    granularity*: the returned module initially shares every
    :class:`Function` object with ``module`` and owns none of them; a
    function is copied only when first materialized through
    :meth:`Module.mutable`, and then only its calls and terminators.
    Hardening and ICP touch a small fraction of functions per variant,
    so a COW clone makes stamping a variant cost proportional to what
    the variant actually changes. The source module must be treated as
    immutable while clones share its functions (the pipeline's baseline
    and cached prefix modules are).
    """
    new = Module(module.name)
    if cow:
        new.functions = dict(module.functions)
        new._cow_copies = {}
    else:
        for func in module.functions.values():
            new.functions[func.name] = clone_function_exact(func)
    for name, table in module.fptr_tables.items():
        new.fptr_tables[name] = FunctionPointerTable(
            name, list(table.entries)
        )
    new.syscalls = dict(module.syscalls)
    # metadata is tiny (applied defense config and the like); generic
    # deepcopy keeps arbitrary user values safe.
    new.metadata = copy.deepcopy(module.metadata)
    return new


class InlineResult(NamedTuple):
    """Outcome of one inlining operation.

    Attributes
    ----------
    new_call_sites:
        Clones of the callee's call instructions now living in the caller,
        mapped from the *original* site id they were cloned from.
    continuation_label:
        Label of the block holding the caller's post-call instructions.
    moved_sites:
        ``site id -> (label, index)`` of every call the splice added (the
        clones) or moved (the caller's calls after the inlined one, now
        in the continuation). Every other call of the caller keeps its
        position.
    """

    new_call_sites: Dict[int, List[Instruction]]
    continuation_label: str
    moved_sites: Dict[int, Tuple[str, int]]


def clone_function(func: Function, new_name: str) -> Function:
    """Deep-copy an entire function under a new name."""
    new = Function(
        new_name,
        num_params=func.num_params,
        attrs=set(func.attrs),
        stack_frame_size=func.stack_frame_size,
        subsystem=func.subsystem,
    )
    for block in func.blocks.values():
        new.add_block(block.clone(block.label))
    new.entry_label = func.entry_label
    return new


def inline_call(
    caller: Function,
    block_label: str,
    inst_index: int,
    callee: Function,
) -> InlineResult:
    """Splice ``callee``'s body over the call at
    ``caller.blocks[block_label].instructions[inst_index]``.

    The callee is left untouched. Its immutable instructions
    (:data:`~repro.ir.types.IMMUTABLE_OPCODES`) join the caller by
    reference; calls get fresh site ids, terminators are cloned onto the
    renamed labels, and returns become jumps to the continuation. Raises
    ``ValueError`` if the indicated instruction is not a direct call to
    ``callee``.
    """
    block = caller.blocks[block_label]
    call = block.instructions[inst_index]
    if call.opcode is not Opcode.CALL or call.callee != callee.name:
        raise ValueError(
            f"instruction {call!r} is not a direct call to @{callee.name}"
        )
    if not callee.blocks:
        raise ValueError(f"cannot inline empty function @{callee.name}")

    serial = _next_inline_serial()
    prefix = f"inl{serial}."

    # 1. Choose every new label before touching the caller: each must
    #    avoid the caller's labels and the ones this splice already took.
    cont_label = caller.unique_label(f"{prefix}cont")
    chosen = {cont_label}
    label_map: Dict[str, str] = {}
    for old in callee.blocks:
        label = caller.unique_label(prefix + old, chosen)
        chosen.add(label)
        label_map[old] = label

    # 2. Splice the callee's blocks under their new labels.
    new_call_sites: Dict[int, List[Instruction]] = {}
    moved_sites: Dict[int, Tuple[str, int]] = {}
    cloned_blocks: List[BasicBlock] = []
    new_inst = Instruction.__new__
    for old_label, old_block in callee.blocks.items():
        new_label = label_map[old_label]
        insts: List[Instruction] = []
        for inst in old_block.instructions:
            opcode = inst.opcode
            if opcode in IMMUTABLE_OPCODES:
                insts.append(inst)
            elif opcode in CALLS:
                # A fresh site id, minted in callee order.
                clone = inst.clone()
                assert inst.site_id is not None
                new_call_sites.setdefault(inst.site_id, []).append(clone)
                moved_sites[clone.site_id] = (new_label, len(insts))
                insts.append(clone)
            elif opcode is Opcode.RET:
                # Backward-edge elimination: ret -> jmp continuation.
                insts.append(Instruction(Opcode.JMP, targets=(cont_label,)))
            else:
                # A terminator, onto the renamed successor labels.
                clone = new_inst(Instruction)
                clone.opcode = opcode
                clone.callee = inst.callee
                clone.targets = tuple(
                    [label_map.get(t, t) for t in inst.targets]
                )
                clone.num_args = inst.num_args
                clone.site_id = inst.site_id
                clone.attrs = dict(inst.attrs)
                insts.append(clone)
        new_block = BasicBlock(new_label)
        new_block.instructions = insts
        cloned_blocks.append(new_block)

    # 3. Split the caller block: everything after the call moves to the
    #    continuation and the call itself is dropped. Wire the block to
    #    the cloned entry and register the new blocks.
    assert callee.entry_label is not None
    continuation = BasicBlock(cont_label)
    continuation.instructions = tail = block.instructions[inst_index + 1 :]
    for idx, inst in enumerate(tail):
        if inst.site_id is not None:
            moved_sites[inst.site_id] = (cont_label, idx)
    del block.instructions[inst_index:]
    block.instructions.append(
        Instruction(Opcode.JMP, targets=(label_map[callee.entry_label],))
    )
    for new_block in cloned_blocks:
        caller.add_block(new_block)
    caller.add_block(continuation)

    # Inlining merges the callee's frame into the caller's. Stack coloring
    # reuses most of the absorbed slots, but imperfectly — long merged call
    # chains defeat the coloring allocator, the stack-frame growth behind
    # the paper's Rule 2 rationale (Section 5.2).
    caller.stack_frame_size += max(callee.stack_frame_size // 4, 8)

    return InlineResult(new_call_sites, cont_label, moved_sites)
