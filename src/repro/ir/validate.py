"""Module verifier.

Catches the structural mistakes transformation passes can introduce:
dangling successor labels, unterminated blocks, calls to missing functions,
indirect sites without target metadata, unreachable entry blocks.

The actual checks live in the static-analysis rule registry
(:mod:`repro.static.rules.structural`, rule ``structural``); this module
keeps the original list-of-strings / raising interface on top of it so
pass-manager validation and existing callers are unaffected. Importing it
loads that one rule, not the rest of :mod:`repro.static`.
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function
from repro.ir.module import Module
from repro.static.rules.structural import STRUCTURAL


class ValidationError(Exception):
    """A module failed verification; ``errors`` lists every finding."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__(
            f"{len(errors)} validation error(s):\n" + "\n".join(errors)
        )
        self.errors = errors


def validate_function(func: Function, module: Module) -> List[str]:
    """Collect (not raise) every structural error in one function."""
    return [
        d.legacy_message()
        for d in STRUCTURAL.function_diagnostics(func, module)
    ]


def validate_module(module: Module) -> None:
    """Raise :class:`ValidationError` if the module is malformed."""
    errors: List[str] = []
    for func in module:
        errors.extend(
            d.legacy_message()
            for d in STRUCTURAL.function_diagnostics(func, module)
        )
    errors.extend(
        d.legacy_message() for d in STRUCTURAL.module_diagnostics(module)
    )
    if errors:
        raise ValidationError(errors)
