"""Speculation-defense coverage lint (``PIBE5xx``).

Makes the paper's Tables 8-12 coverage claims *statically checkable*:
after hardening, every residual indirect branch must carry exactly the
defense tag its :class:`~repro.hardening.defenses.DefenseConfig`
promises — and that tag must belong to every protection class
(``spectre_v2`` / ``ret2spec`` / ``lvi``) covering the attack vectors
the config claims to close. Exempt branches (inline-asm functions and
sites, boot-only returns, target-less asm ijumps) must stay *untagged*:
a tag there would claim protection the lowering cannot actually emit.

Eligibility comes from :mod:`repro.hardening.coverage` — the same
predicates the hardening passes use, so checker and transformation
cannot drift.  What a tag protects comes from
:func:`repro.hardening.classes.defense_classes`, the one table the
Table 11 census and the attack models read too.  A registered custom
defense (:mod:`repro.hardening.custom`) is judged by that table: its tag
is accepted in place of the stock tag on any branch it can instrument,
as long as it covers every class the module's stock config promises
there (PIBE507 otherwise).  On a module no stock config hardened, the
config promises nothing, so any custom stamp there is clean.
"""

from __future__ import annotations

from typing import Iterable

from repro.hardening.classes import defense_classes, required_classes
from repro.hardening.coverage import (
    applied_config,
    branch_exempt,
    custom_hardened,
    expected_defense,
)
from repro.hardening.custom import registered_defense
from repro.hardening.defenses import STOCK_TAGS
from repro.ir.module import Module
from repro.ir.types import INDIRECT_BRANCHES, Opcode
from repro.static.diagnostics import Diagnostic, Severity
from repro.static.registry import Rule, register

_UNPROTECTED_CODE = {
    Opcode.ICALL: "PIBE501",
    Opcode.RET: "PIBE502",
    Opcode.IJUMP: "PIBE503",
}


@register
class SpeculationCoverageRule(Rule):
    name = "speculation-coverage"
    description = (
        "residual indirect branches carry exactly the promised defense tags"
    )
    codes = {
        "PIBE501": "icall the config promises to protect is untagged",
        "PIBE502": "return the config promises to protect is untagged",
        "PIBE503": "indirect jump the config promises to protect is untagged",
        "PIBE504": "branch carries a different tag than the config promises",
        "PIBE505": "exempt/undefended branch carries a defense tag",
        "PIBE506": "unknown defense tag (not stock, not registered custom)",
        "PIBE507": "promised tag is outside its protection class",
    }
    version = 3  # custom tags judged by class coverage, one tag table

    def check_function(self, func, module: Module, ctx) -> Iterable[Diagnostic]:
        config = applied_config(module)
        allow_custom = custom_hardened(module)
        err = Severity.ERROR

        for block in func.blocks.values():
            for inst in block.instructions:
                if inst.opcode not in INDIRECT_BRANCHES:
                    continue
                loc = dict(
                    function=func.name,
                    block=block.label,
                    site_id=inst.site_id,
                )
                tag = inst.defense

                if tag is not None and tag not in STOCK_TAGS:
                    if registered_defense(tag) is None:
                        yield self.diag(
                            "PIBE506",
                            err,
                            f"{inst.opcode.value} carries unknown "
                            f"defense tag {tag!r}",
                            **loc,
                        )
                    elif branch_exempt(func, inst):
                        yield self.diag(
                            "PIBE505",
                            err,
                            f"exempt {inst.opcode.value} carries "
                            f"custom defense tag {tag!r}",
                            **loc,
                        )
                    else:
                        # An alternative lowering: judged by whether it
                        # covers every class the stock config promises.
                        yield from self._check_class(inst, tag, config, loc)
                    continue

                expected = expected_defense(func, inst, config)
                if expected is None:
                    if tag is not None:
                        yield self.diag(
                            "PIBE505",
                            err,
                            f"{inst.opcode.value} is exempt or "
                            "undefended under config "
                            f"{config.label()!r} but carries tag "
                            f"{tag!r}",
                            **loc,
                        )
                    continue

                if tag is None:
                    if allow_custom:
                        # A custom pass replaced the stock lowering;
                        # whether it covers this edge kind is its
                        # registration's business, not the stock
                        # config's promise.
                        continue
                    yield self.diag(
                        _UNPROTECTED_CODE[inst.opcode],
                        err,
                        f"{inst.opcode.value} is unprotected but "
                        f"config {config.label()!r} promises "
                        f"{expected.value!r}",
                        **loc,
                    )
                    continue

                if tag != expected.value:
                    yield self.diag(
                        "PIBE504",
                        err,
                        f"{inst.opcode.value} tagged {tag!r} but "
                        f"config {config.label()!r} promises "
                        f"{expected.value!r}",
                        **loc,
                    )
                    continue

                yield from self._check_class(inst, tag, config, loc)

    def cache_env(self, module: Module, ctx) -> object:
        # Coverage depends on the module's applied defense config, the
        # custom-hardening marker and the custom-defense registry, which
        # holds every non-stock tag's classes (stock tags' are fixed).
        from repro.hardening.coverage import CUSTOM_METADATA_KEY, METADATA_KEY
        from repro.hardening.custom import _REGISTRY as custom_registry

        return {
            "config": repr(module.metadata.get(METADATA_KEY)),
            "custom_marker": repr(module.metadata.get(CUSTOM_METADATA_KEY)),
            "custom_registry": sorted(
                (name, d.kind, tuple(sorted(d.protects)))
                for name, d in custom_registry.items()
            ),
        }

    def _check_class(self, inst, tag, config, loc) -> Iterable[Diagnostic]:
        """The tag must sit in every protection class the config claims
        for this edge (taxonomy self-consistency)."""
        provided = defense_classes(tag)
        for class_name in required_classes(inst.opcode, config):
            if class_name not in provided:
                yield self.diag(
                    "PIBE507",
                    Severity.ERROR,
                    f"tag {tag!r} does not protect {class_name!r} "
                    f"although config {config.label()!r} requires it",
                    **loc,
                )
