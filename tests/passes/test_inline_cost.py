"""InlineCost analysis: the paper's Section 5.2 cost model."""

from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.types import Opcode
from repro.passes.inline_cost import (
    STANDARD_INSTRUCTION_COST,
    function_cost,
    instruction_cost,
)


def test_standard_instruction_cost_is_five():
    assert STANDARD_INSTRUCTION_COST == 5
    assert instruction_cost(Instruction(Opcode.ARITH)) == 5
    assert instruction_cost(Instruction(Opcode.LOAD)) == 5
    assert instruction_cost(Instruction(Opcode.RET)) == 5


def test_call_cost_scales_with_arguments():
    # paper: a nested call costs 5 + 5 * num_args
    assert instruction_cost(Instruction(Opcode.CALL, callee="f", num_args=0)) == 5
    assert instruction_cost(Instruction(Opcode.CALL, callee="f", num_args=3)) == 20
    assert instruction_cost(Instruction(Opcode.ICALL, num_args=2)) == 15


def test_function_cost_sums_instructions():
    func = Function("f")
    b = IRBuilder(func)
    b.arith(3)            # 15
    b.call("g", num_args=2)  # 15
    b.ret()               # 5
    assert function_cost(func) == 35
