"""Optimization and transformation passes (PIBE's PGO algorithms)."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".default_inliner": ("DefaultInliner", "DefaultInlineReport"),
        ".icp": ("ICPReport", "IndirectCallPromotion", "PromotionRecord"),
        ".inline_cost": (
            "DEFAULT_CALLEE_THRESHOLD",
            "DEFAULT_CALLER_THRESHOLD",
            "STANDARD_INSTRUCTION_COST",
            "function_cost",
            "instruction_cost",
        ),
        ".inliner": ("InlineReport", "PibeInliner"),
        ".jumptables": (
            "JUMP_TABLE_MIN_CASES",
            "LowerSwitches",
            "SwitchLoweringReport",
        ),
        ".lto": (
            "DCEReport",
            "DeadFunctionElimination",
            "SimplifyCFG",
            "SimplifyCFGReport",
        ),
        ".manager": (
            "FunctionPass",
            "ModulePass",
            "PassManager",
            "run_pipeline",
        ),
    },
)

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
