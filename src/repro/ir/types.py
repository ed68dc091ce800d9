"""Core IR type definitions: opcodes, attribute names, and constants.

The IR is a deliberately small, LLVM-flavoured intermediate representation.
It models exactly the features PIBE's algorithms care about: call sites
(direct and indirect), returns, conditional/unconditional/multiway branches,
memory operations, and generic computation. Instructions carry free-form
attributes used by the behaviour models (branch probabilities, indirect
target distributions) and by the hardening passes (defense tags).
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Instruction opcodes understood by the interpreter and timing model."""

    #: Generic arithmetic/logic computation (one cycle-ish unit of work).
    ARITH = "arith"
    #: Comparison feeding a conditional branch or promoted-call guard.
    CMP = "cmp"
    #: Memory load.
    LOAD = "load"
    #: Memory store.
    STORE = "store"
    #: Direct call; ``callee`` names the target function.
    CALL = "call"
    #: Indirect call through a register/memory function pointer.
    ICALL = "icall"
    #: Unconditional intra-function jump; successor in ``targets[0]``.
    JMP = "jmp"
    #: Conditional branch; ``targets = (taken, fallthrough)``.
    BR = "br"
    #: Multiway branch (C ``switch``); ``targets`` lists case labels.
    SWITCH = "switch"
    #: Indirect jump (lowered jump table or indirect tail call).
    IJUMP = "ijump"
    #: Function return.
    RET = "ret"
    #: Serializing load fence (LFENCE).
    FENCE = "fence"

    # Members are singletons compared by identity, so they hash by
    # identity too: ``Enum.__hash__`` is Python code, and every
    # ``opcode in TERMINATORS`` test paid for it. Every printed or keyed
    # use of a set of opcodes sorts by value.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset(
    {Opcode.JMP, Opcode.BR, Opcode.SWITCH, Opcode.IJUMP, Opcode.RET}
)

#: Opcodes that transfer control to another function.
CALLS = frozenset({Opcode.CALL, Opcode.ICALL})

#: Opcodes an attacker can steer when unprotected (indirect branches).
INDIRECT_BRANCHES = frozenset({Opcode.ICALL, Opcode.IJUMP, Opcode.RET})

#: Opcodes of immutable instructions: they carry no site id and no
#: successor, and nothing writes them after construction, so inline
#: splices and copy-on-write copies share them by reference (see
#: :class:`~repro.ir.instruction.Instruction`).
IMMUTABLE_OPCODES = frozenset(
    {Opcode.ARITH, Opcode.CMP, Opcode.LOAD, Opcode.STORE, Opcode.FENCE}
)


class FunctionAttr(enum.Enum):
    """Function-level attributes mirroring the LLVM/kernel attributes that
    gate PIBE's transformations (Section 8.6, Table 9 "other" category)."""

    #: ``__attribute__((noinline))`` — never an inlining candidate.
    NOINLINE = "noinline"
    #: ``optnone`` — the whole function is skipped by optimization passes.
    OPTNONE = "optnone"
    #: Body is (modelled) inline assembly; cannot be auto-instrumented
    #: (paper Section 3 / Table 11 paravirt hypercalls).
    INLINE_ASM = "inline_asm"
    #: Only executes during early boot; exempt from transient hardening
    #: (paper Section 8.6).
    BOOT_ONLY = "boot_only"
    #: Kernel entry point reachable from userspace (syscall handler).
    SYSCALL_ENTRY = "syscall_entry"
    #: Always-inline hint (treated as a strong inlining hint).
    ALWAYS_INLINE = "always_inline"

    # Identity hash, as for :class:`Opcode`: ``Function.attrs`` sets are
    # only tested for membership, and printed or keyed sorted by value.
    __hash__ = object.__hash__


# Instruction attribute keys (kept as plain strings on ``Instruction.attrs``).

#: ``dict[str, int]`` of callee name -> weight, ground-truth behaviour of an
#: indirect call site (used by the interpreter to pick targets).
ATTR_TARGETS = "targets"
#: Probability a conditional branch is taken (float in [0, 1]).
ATTR_P_TAKEN = "p_taken"
#: Deterministic loop trip count for a back-edge conditional branch.
ATTR_TRIP = "trip"
#: Marks an ICALL as C++-style virtual dispatch (extra vtable load).
ATTR_VCALL = "vcall"
#: Name of the function-pointer table an ICALL reads from.
ATTR_FPTR_TABLE = "fptr_table"
#: Weights for SWITCH case selection.
ATTR_CASE_WEIGHTS = "case_weights"
#: Value-profile metadata attached by profile lifting:
#: list of (target_name, count) tuples, hottest first (paper Section 7).
ATTR_VALUE_PROFILE = "value_profile"
#: Execution count attached to a direct call site by profile lifting.
ATTR_EDGE_COUNT = "edge_count"
#: Tag recording which defense lowering protects this branch.
ATTR_DEFENSE = "defense"
#: Marks a branch emitted by an inline-assembly macro: the compiler cannot
#: rewrite it (paper Section 3), so hardening skips it. Unlike
#: ``FunctionAttr.INLINE_ASM`` (whole opaque asm functions), an asm *site*
#: lives inside a normal function — and is duplicated when its containing
#: code is inlined, which is how the paper's vulnerable-icall count grows
#: with the optimization budget (Table 11).
ATTR_ASM_SITE = "asm_site"
#: Marks a direct call produced by indirect call promotion.
ATTR_PROMOTED = "promoted"
#: Provenance: site id of the original instruction this was cloned from.
ATTR_CLONED_FROM = "cloned_from"
#: Provenance: site id of the indirect call a promotion artifact belongs
#: to. ICP stamps it on every promoted direct call and on the residual
#: fallback icall, so the static analyzer can reassociate a Listing-2
#: guard chain with its origin site after cloning and inlining.
ATTR_ICP_SITE = "icp_site"

#: Module metadata key: list of ``{"site", "target", "count"}`` records,
#: one per *original* promoted direct call consumed by an inliner. The
#: flow-conservation analysis uses these to account for profile weight
#: that no longer appears as a call instruction.
METADATA_INLINED_PROMOTED = "inlined_promoted"


#: Approximate encoded size, in bytes, of one IR instruction once lowered to
#: x86-64. Matches the paper's observation that LLVM's per-instruction
#: InlineCost of 5 approximates average instruction size (Section 5.2).
INSTRUCTION_SIZE_BYTES = 5
