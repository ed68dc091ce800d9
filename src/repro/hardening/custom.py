"""Custom defense registration (paper Sections 6 and 6.3).

PIBE "is not limited to these defenses and applies to all defenses that
have high overheads" — the paper explicitly suggests precise high-overhead
research defenses such as path-sensitive CFI. This module is that
extension point: register a defense with its per-branch cycle cost, static
expansion and protection properties, and the whole pipeline (hardening,
timing, size model, the Table 11 and attack censuses, the speculation
lint) picks it up. What a registered tag protects is read through
:func:`repro.hardening.classes.defense_classes`, the one protection table.

Example — a path-sensitive CFI that checks a hash of the taken path on
every indirect transfer::

    pscfi_fwd = CustomDefense(
        name="pscfi_fwd", kind="forward", cycles=35.0,
        site_expansion_units=4,
        protects=frozenset({"spectre_v2", "lvi"}),
    )
    pscfi_ret = CustomDefense(
        name="pscfi_ret", kind="backward", cycles=28.0,
        site_expansion_units=4,
        protects=frozenset({"ret2spec", "lvi"}),
    )
    register_defense(pscfi_fwd)
    register_defense(pscfi_ret)
    CustomHardeningPass(forward=pscfi_fwd, backward=pscfi_ret).run(module)

``module`` may be any built variant (``EvalContext.variant(...).module``),
one that a stock defense set already stamped included: the pass retags
its branches and copies what it tags, so the prefix and the baseline
kernel the variant shares IR with stay as they were. It retags the
module object the caller holds and nothing else: a memoized variant
whose prefix the pipeline evicts
(:data:`~repro.core.pipeline.RESIDENT_PREFIXES`) is stamped again on
request and carries only its stock defenses, so keep the module for as
long as its custom tags are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.hardening.classes import KNOWN_CLASSES
from repro.hardening.coverage import CUSTOM_METADATA_KEY
from repro.hardening.defenses import STOCK_TAGS
from repro.hardening.harden import HardenReport, tag_branches
from repro.ir.module import Module
from repro.passes.manager import ModulePass


@dataclass(frozen=True)
class CustomDefense:
    """A user-defined per-branch defense lowering."""

    #: unique tag recorded on protected instructions
    name: str
    #: "forward" (icalls/ijumps) or "backward" (returns)
    kind: str
    #: flat extra cycles per protected branch
    cycles: float
    #: static lowered-instruction growth per protected site
    site_expansion_units: int = 0
    #: attack vectors this lowering defeats, from
    #: :data:`repro.hardening.classes.KNOWN_CLASSES`
    protects: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in ("forward", "backward"):
            raise ValueError(f"kind must be forward/backward, got {self.kind!r}")
        unknown = set(self.protects) - KNOWN_CLASSES
        if unknown:
            raise ValueError(f"unknown attack vectors: {sorted(unknown)}")
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")


_REGISTRY: Dict[str, CustomDefense] = {}


def register_defense(defense: CustomDefense) -> CustomDefense:
    """Add a defense to the global registry (idempotent per name+spec).

    A stock tag's name is refused: the cost model, the protection table
    and the lint would all read the stock lowering under it.
    """
    if defense.name in STOCK_TAGS:
        raise ValueError(
            f"stock defense tag {defense.name!r} cannot be re-mapped"
        )
    existing = _REGISTRY.get(defense.name)
    if existing is not None and existing != defense:
        raise ValueError(
            f"defense {defense.name!r} already registered with a "
            "different specification"
        )
    _REGISTRY[defense.name] = defense
    return defense


def registered_defense(name: str) -> Optional[CustomDefense]:
    """Look up a registered defense by tag name."""
    return _REGISTRY.get(name)


def clear_registry() -> None:
    """Remove all custom defenses (test isolation)."""
    _REGISTRY.clear()


def custom_defense_cost(tag: str) -> Optional[float]:
    """Cycle cost of a registered custom defense tag, if any."""
    defense = _REGISTRY.get(tag)
    return defense.cycles if defense is not None else None


def custom_expansion_units(tag: str) -> Optional[int]:
    """Static expansion units of a registered custom defense tag."""
    defense = _REGISTRY.get(tag)
    return defense.site_expansion_units if defense is not None else None


class CustomHardeningPass(ModulePass):
    """Tag branches with registered custom defenses.

    Stamps through the stock pass's :func:`tag_branches`, so the same
    coverage rules hold (inline-asm functions and asm sites cannot be
    instrumented on the forward edge; boot-only returns are exempt) and
    a staged variant copies what it tags instead of writing into the
    prefix and baseline IR it shares.
    """

    name = "custom-hardening"

    def __init__(
        self,
        forward: Optional[CustomDefense] = None,
        backward: Optional[CustomDefense] = None,
    ) -> None:
        if forward is not None and forward.kind != "forward":
            raise ValueError("forward defense must have kind='forward'")
        if backward is not None and backward.kind != "backward":
            raise ValueError("backward defense must have kind='backward'")
        # An equal spec registered before is accepted; a different one
        # under the same name raises rather than tag branches with a
        # name every reader resolves to the earlier registration.
        for defense in (forward, backward):
            if defense is not None:
                register_defense(defense)
        self.forward = forward
        self.backward = backward

    def run(self, module: Module) -> HardenReport:
        label = "+".join(
            d.name for d in (self.forward, self.backward) if d is not None
        )
        report = HardenReport(config_label=label or "custom-none")
        tag_branches(
            module,
            report,
            self.forward.name if self.forward is not None else None,
            self.backward.name if self.backward is not None else None,
        )
        module.metadata[CUSTOM_METADATA_KEY] = label
        return report
