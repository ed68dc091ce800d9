"""The one table of what a defense tag protects.

A defense tag on an indirect branch closes some of the paper's three
transient attack vectors. :func:`defense_classes` is the only place that
says which:

- a stock :class:`~repro.hardening.defenses.Defense` tag provides the
  classes seeded from the lowering's own ``SPECTRE_V2_SAFE`` /
  ``RSB_SAFE`` / ``LVI_SAFE`` frozensets, so checker and lowering cannot
  drift;
- a registered :class:`~repro.hardening.custom.CustomDefense` tag
  provides its ``protects`` (a FineIBT- or PAC-style backend is one such
  registration);
- an untagged branch or an unknown tag provides nothing.

The Table 11 census (:mod:`repro.analysis.gadgets`), the attack models
(:mod:`repro.cpu.attacks`) and the speculation-coverage lint
(:mod:`repro.static.rules.speculation`) all read this lookup, so the
security numbers and the lint share one definition. The vector names
below are the only vocabulary for these classes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.hardening.defenses import (
    LVI_SAFE,
    RSB_SAFE,
    SPECTRE_V2_SAFE,
    DefenseConfig,
)
from repro.ir.types import Opcode

#: Forward-edge BTB poisoning (Spectre V2).
SPECTRE_V2 = "spectre_v2"
#: Backward-edge RSB poisoning (Ret2spec).
RET2SPEC = "ret2spec"
#: Load value injection on the target load.
LVI = "lvi"

KNOWN_CLASSES = frozenset({SPECTRE_V2, RET2SPEC, LVI})


def _seed_builtin() -> Dict[str, FrozenSet[str]]:
    classes: Dict[str, set] = {}
    for tag in SPECTRE_V2_SAFE:
        classes.setdefault(tag, set()).add(SPECTRE_V2)
    for tag in RSB_SAFE:
        classes.setdefault(tag, set()).add(RET2SPEC)
    for tag in LVI_SAFE:
        classes.setdefault(tag, set()).add(LVI)
    return {tag: frozenset(protects) for tag, protects in classes.items()}


#: Stock tag -> protection classes, derived from the defense frozensets.
_BUILTIN: Dict[str, FrozenSet[str]] = _seed_builtin()


def defense_classes(tag: Optional[str]) -> FrozenSet[str]:
    """Protection classes ``tag`` provides (empty for ``None`` and for
    unknown tags)."""
    if tag is None:
        return frozenset()
    stock = _BUILTIN.get(tag)
    if stock is not None:
        return stock
    # Imported here: the custom registry validates against this module.
    from repro.hardening.custom import registered_defense

    custom = registered_defense(tag)
    return custom.protects if custom is not None else frozenset()


def required_classes(opcode: Opcode, config: DefenseConfig) -> List[str]:
    """Protection classes ``config`` promises for a branch of ``opcode``.

    This is the config side of the taxonomy: which attack vectors the
    DefenseConfig claims to close on each edge kind.
    """
    required: List[str] = []
    if opcode in (Opcode.ICALL, Opcode.IJUMP):
        if config.retpolines:
            required.append(SPECTRE_V2)
        if config.lvi_cfi:
            required.append(LVI)
    elif opcode == Opcode.RET:
        if config.ret_retpolines:
            required.append(RET2SPEC)
        if config.lvi_cfi:
            required.append(LVI)
    return required
