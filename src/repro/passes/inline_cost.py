"""LLVM-style InlineCost analysis (paper Section 5.2, Rule 2).

The analysis computes a numerical cost heuristic for each instruction in a
function and returns the sum. Most instructions incur a standard cost of 5
(an approximation of average x86 instruction size); a nested call costs
``5 + 5 * num_args``, accounting for the argument-setup instructions plus
the call itself.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.types import Opcode

#: Standard per-instruction cost on x86 (paper Section 5.2).
STANDARD_INSTRUCTION_COST = 5

#: Rule 2: maximum caller complexity before inlining into it stops
#: (determined experimentally in the paper, Section 5.2).
DEFAULT_CALLER_THRESHOLD = 12_000

#: Rule 3: maximum callee complexity for an inlining candidate
#: (LLVM's hot-branch inhibitor threshold, Section 5.2).
DEFAULT_CALLEE_THRESHOLD = 3_000


def instruction_cost(inst: Instruction) -> int:
    """Cost of a single instruction."""
    if inst.opcode in (Opcode.CALL, Opcode.ICALL):
        return STANDARD_INSTRUCTION_COST + STANDARD_INSTRUCTION_COST * inst.num_args
    return STANDARD_INSTRUCTION_COST


def function_cost(func: Function) -> int:
    """InlineCost of a whole function body."""
    return sum(instruction_cost(inst) for inst in func.instructions())
