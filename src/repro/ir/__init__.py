"""Miniature LLVM-like IR: the substrate PIBE's passes operate on."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".basicblock": ("BasicBlock",),
        ".builder": ("IRBuilder", "build_leaf"),
        ".callgraph": ("CallEdge", "CallGraph"),
        ".clone": (
            "InlineResult",
            "clone_function",
            "clone_module",
            "inline_call",
        ),
        ".fingerprint": ("function_fingerprint", "module_fingerprint"),
        ".function": ("Function",),
        ".instruction": ("Instruction",),
        ".module": ("FunctionPointerTable", "Module"),
        ".parser": (
            "ParseError",
            "dump_module",
            "parse_instruction",
            "parse_module",
        ),
        ".printer": ("format_function", "format_instruction", "format_module"),
        ".types": ("FunctionAttr", "Opcode"),
        ".validate": ("ValidationError", "validate_module"),
    },
)

__all__ = [
    "BasicBlock",
    "CallEdge",
    "CallGraph",
    "Function",
    "FunctionAttr",
    "FunctionPointerTable",
    "IRBuilder",
    "InlineResult",
    "Instruction",
    "Module",
    "Opcode",
    "ParseError",
    "ValidationError",
    "build_leaf",
    "clone_function",
    "clone_module",
    "dump_module",
    "format_function",
    "format_instruction",
    "format_module",
    "function_fingerprint",
    "inline_call",
    "module_fingerprint",
    "parse_instruction",
    "parse_module",
    "validate_module",
]
