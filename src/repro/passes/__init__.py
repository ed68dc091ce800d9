"""Optimization and transformation passes (PIBE's PGO algorithms)."""

from repro.passes.default_inliner import DefaultInliner, DefaultInlineReport
from repro.passes.icp import ICPReport, IndirectCallPromotion, PromotionRecord
from repro.passes.inline_cost import (
    DEFAULT_CALLEE_THRESHOLD,
    DEFAULT_CALLER_THRESHOLD,
    STANDARD_INSTRUCTION_COST,
    function_cost,
    instruction_cost,
)
from repro.passes.inliner import InlineReport, PibeInliner
from repro.passes.jumptables import (
    JUMP_TABLE_MIN_CASES,
    LowerSwitches,
    SwitchLoweringReport,
)
from repro.passes.lto import (
    DCEReport,
    DeadFunctionElimination,
    SimplifyCFG,
    SimplifyCFGReport,
)
from repro.passes.manager import FunctionPass, ModulePass, PassManager, run_pipeline

__all__ = [
    "DCEReport",
    "DEFAULT_CALLEE_THRESHOLD",
    "DEFAULT_CALLER_THRESHOLD",
    "DeadFunctionElimination",
    "DefaultInlineReport",
    "DefaultInliner",
    "FunctionPass",
    "ICPReport",
    "IndirectCallPromotion",
    "InlineReport",
    "JUMP_TABLE_MIN_CASES",
    "LowerSwitches",
    "ModulePass",
    "PassManager",
    "PibeInliner",
    "PromotionRecord",
    "STANDARD_INSTRUCTION_COST",
    "SimplifyCFG",
    "SimplifyCFGReport",
    "SwitchLoweringReport",
    "function_cost",
    "instruction_cost",
    "run_pipeline",
]
