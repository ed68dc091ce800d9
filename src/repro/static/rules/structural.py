"""Structural well-formedness (``PIBE1xx``).

The registry home of the checks that used to live inline in
``ir/validate.py`` — ``validate_module`` is now a thin wrapper over this
rule — plus two checks the old verifier missed: terminators that repeat
a successor label (a broken CFG edge split) and ``ICALL`` target lists
with duplicate entries (a corrupted ground-truth distribution).

Message texts for the pre-existing checks are kept byte-identical to the
old verifier so its error strings (asserted by tests and familiar from
tracebacks) survive the move.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import ATTR_TARGETS, TERMINATORS, Opcode
from repro.static.diagnostics import Diagnostic, Severity
from repro.static.registry import Rule, register


@register
class StructuralRule(Rule):
    name = "structural"
    description = "CFG / call-graph well-formedness (the module verifier)"
    codes = {
        "PIBE101": "function has no blocks",
        "PIBE102": "block lacks a terminator",
        "PIBE103": "terminator appears mid-block",
        "PIBE104": "direct call without a callee",
        "PIBE105": "direct call to an undefined function",
        "PIBE106": "icall without target metadata",
        "PIBE107": "icall may-target an undefined function",
        "PIBE108": "branch to an unknown block label",
        "PIBE109": "terminator repeats a successor label",
        "PIBE110": "icall target list has duplicate entries",
        "PIBE111": "fptr table entry is undefined",
        "PIBE112": "syscall handler is undefined",
    }

    def check_function(self, func: Function, module: Module, ctx) -> Iterable[Diagnostic]:
        return self.function_diagnostics(func, module)

    def check_module(self, module: Module, ctx) -> Iterable[Diagnostic]:
        return self.module_diagnostics(module)

    def cache_env(self, module: Module, ctx) -> object:
        # Function checks consult only module *membership* (undefined
        # callees / icall targets) and block-local shape. Pre-hashed:
        # a 31k-name list through generic canonicalization costs more
        # than the checks themselves.
        import hashlib

        return hashlib.sha256(
            "\n".join(sorted(module.functions)).encode("utf-8")
        ).hexdigest()

    # Split out so ``ir.validate`` can reuse the exact same pieces.

    def function_diagnostics(
        self, func: Function, module: Module
    ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        err = Severity.ERROR
        if not func.blocks:
            return [
                self.diag(
                    "PIBE101", err, "has no blocks", function=func.name
                )
            ]

        def d(code: str, message: str, block: str, site_id=None) -> None:
            out.append(
                self.diag(
                    code,
                    err,
                    message,
                    function=func.name,
                    block=block,
                    site_id=site_id,
                )
            )

        blocks = func.blocks
        functions = module.functions
        call_op, icall_op = Opcode.CALL, Opcode.ICALL
        for block in blocks.values():
            label = block.label
            insts = block.instructions
            last = len(insts) - 1
            if last < 0 or insts[last].opcode not in TERMINATORS:
                d("PIBE102", "block is not terminated", label)
            for i, inst in enumerate(insts):
                opcode = inst.opcode
                labels = inst.targets
                if opcode in TERMINATORS:
                    if i != last:
                        d(
                            "PIBE103",
                            f"terminator mid-block at index {i}",
                            label,
                        )
                elif opcode is call_op:
                    if inst.callee is None:
                        d(
                            "PIBE104",
                            "direct call without callee",
                            label,
                            inst.site_id,
                        )
                    elif inst.callee not in functions:
                        d(
                            "PIBE105",
                            f"call to undefined @{inst.callee}",
                            label,
                            inst.site_id,
                        )
                elif opcode is icall_op:
                    targets = inst.attrs.get(ATTR_TARGETS)
                    if not targets:
                        d(
                            "PIBE106",
                            "icall without target metadata",
                            label,
                            inst.site_id,
                        )
                    else:
                        for t in targets:
                            if t not in functions:
                                d(
                                    "PIBE107",
                                    f"icall may-target undefined @{t}",
                                    label,
                                    inst.site_id,
                                )
                        if isinstance(targets, (list, tuple)) and len(
                            set(targets)
                        ) != len(targets):
                            d(
                                "PIBE110",
                                "icall target list has duplicate entries",
                                label,
                                inst.site_id,
                            )
                if not labels:
                    continue
                for tlabel in labels:
                    if tlabel not in blocks:
                        d(
                            "PIBE108",
                            f"branch to unknown block {tlabel!r}",
                            label,
                        )
                if (
                    opcode in TERMINATORS
                    and len(labels) > 1
                    and len(set(labels)) != len(labels)
                ):
                    dups = sorted({t for t in labels if labels.count(t) > 1})
                    d(
                        "PIBE109",
                        f"terminator repeats successor label(s) {dups}",
                        label,
                    )
        return out

    def module_diagnostics(self, module: Module) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for table in module.fptr_tables.values():
            for entry in table.entries:
                if entry not in module:
                    out.append(
                        self.diag(
                            "PIBE111",
                            Severity.ERROR,
                            f"fptr table {table.name!r}: "
                            f"undefined entry @{entry}",
                        )
                    )
        for syscall, handler in module.syscalls.items():
            if handler not in module:
                out.append(
                    self.diag(
                        "PIBE112",
                        Severity.ERROR,
                        f"syscall {syscall!r}: undefined handler @{handler}",
                    )
                )
        return out


#: The registered singleton (used by ``ir.validate``'s thin wrapper).
STRUCTURAL = StructuralRule()
