"""Defense taxonomy and configuration (paper Sections 2, 6).

Transient defenses (the paper's focus):

- **retpolines** — Spectre V2 forward-edge defense (Listing 4);
- **return retpolines** — Ret2spec/RSB backward-edge defense (Intel's
  recommendation, inlined at each return);
- **LVI-CFI** — LFENCE hardening of indirect-branch target loads
  (Listings 5 and 6);
- **fenced retpolines** — the paper's combined sequence (Listing 7), used
  when retpolines and LVI-CFI are enabled together: the two defenses
  instrument the same code and are otherwise incompatible (Section 6.3).

Non-transient defenses (LLVM-CFI, stack protector, SafeStack) are included
for the Table 1 comparison that motivates focusing on transient defenses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional


class Defense(enum.Enum):
    """Per-branch defense lowerings (values are the IR defense tags)."""

    #: Listing 4 — indirect call via RSB-trapping thunk.
    RETPOLINE = "retpoline"
    #: Listing 5 — ``lfence; jmp *reg`` thunk on the forward edge.
    LVI_CFI_FWD = "lvi_cfi_fwd"
    #: Listing 6 — ``pop; lfence; jmp *reg`` on the backward edge.
    LVI_CFI_RET = "lvi_cfi_ret"
    #: Intel return retpoline, inlined at the return site.
    RET_RETPOLINE = "ret_retpoline"
    #: Listing 7 — retpoline with LVI-protected target write.
    FENCED_RETPOLINE = "fenced_retpoline"
    #: Return retpoline combined with LVI return hardening.
    RET_RETPOLINE_LVI = "ret_retpoline_lvi"


class NonTransientDefense(enum.Enum):
    """Classical control-flow defenses (Table 1, cheap — not PIBE targets)."""

    LLVM_CFI = "llvm_cfi"
    STACKPROTECTOR = "stackprotector"
    SAFESTACK = "safestack"


#: Every stock defense tag.
STOCK_TAGS = frozenset(d.value for d in Defense)
#: Tags that protect a forward edge against BTB poisoning (Spectre V2).
SPECTRE_V2_SAFE = frozenset(
    {Defense.RETPOLINE.value, Defense.FENCED_RETPOLINE.value}
)
#: Tags that protect a backward edge against RSB poisoning (Ret2spec).
RSB_SAFE = frozenset(
    {Defense.RET_RETPOLINE.value, Defense.RET_RETPOLINE_LVI.value}
)
#: Tags that fence the target load against LVI.
LVI_SAFE = frozenset(
    {
        Defense.LVI_CFI_FWD.value,
        Defense.LVI_CFI_RET.value,
        Defense.FENCED_RETPOLINE.value,
        Defense.RET_RETPOLINE_LVI.value,
    }
)


@dataclass(frozen=True)
class DefenseConfig:
    """Which defense classes a kernel build enables.

    The three booleans match the paper's kernel configurations; arbitrary
    combinations are supported (Section 4: "arbitrary combinations of
    defenses"). ``nontransient`` adds the cheap classical defenses.
    """

    retpolines: bool = False
    ret_retpolines: bool = False
    lvi_cfi: bool = False
    nontransient: FrozenSet[NonTransientDefense] = field(
        default_factory=frozenset
    )

    # -- named configurations used throughout the evaluation ---------------

    @classmethod
    def none(cls) -> "DefenseConfig":
        return cls()

    @classmethod
    def retpolines_only(cls) -> "DefenseConfig":
        return cls(retpolines=True)

    @classmethod
    def ret_retpolines_only(cls) -> "DefenseConfig":
        return cls(ret_retpolines=True)

    @classmethod
    def lvi_only(cls) -> "DefenseConfig":
        return cls(lvi_cfi=True)

    @classmethod
    def llvm_cfi_only(cls) -> "DefenseConfig":
        """Forward-edge LLVM-CFI alone: the cheap-per-branch defense whose
        cost survives ICP promotion (it charges direct calls too), making
        it the canonical crossover partner for retpolines."""
        return cls(nontransient=frozenset({NonTransientDefense.LLVM_CFI}))

    @classmethod
    def all_defenses(cls) -> "DefenseConfig":
        return cls(retpolines=True, ret_retpolines=True, lvi_cfi=True)

    # -- lowering selection (Section 6.3) ------------------------------------

    def forward_defense(self) -> Optional[Defense]:
        """The lowering applied to indirect calls/jumps under this config."""
        if self.retpolines and self.lvi_cfi:
            return Defense.FENCED_RETPOLINE
        if self.retpolines:
            return Defense.RETPOLINE
        if self.lvi_cfi:
            return Defense.LVI_CFI_FWD
        return None

    def backward_defense(self) -> Optional[Defense]:
        """The lowering applied to returns under this config."""
        if self.ret_retpolines and self.lvi_cfi:
            return Defense.RET_RETPOLINE_LVI
        if self.ret_retpolines:
            return Defense.RET_RETPOLINE
        if self.lvi_cfi:
            return Defense.LVI_CFI_RET
        return None

    @property
    def any_transient(self) -> bool:
        return self.retpolines or self.ret_retpolines or self.lvi_cfi

    @property
    def disables_jump_tables(self) -> bool:
        """LLVM disables jump tables whenever retpolines or LVI hardening
        are enabled (Section 5.1)."""
        return self.retpolines or self.lvi_cfi

    def label(self) -> str:
        """Short human-readable configuration name."""
        if self.retpolines and self.ret_retpolines and self.lvi_cfi:
            return "all-defenses"
        parts = []
        if self.retpolines:
            parts.append("retpolines")
        if self.ret_retpolines:
            parts.append("ret-retpolines")
        if self.lvi_cfi:
            parts.append("LVI-CFI")
        for d in sorted(self.nontransient, key=lambda d: d.value):
            parts.append(d.value)
        return "+".join(parts) if parts else "none"


#: Defense selections by name: the CLI's ``--defenses``, sweep grid specs
#: and the benchmarks all resolve names here.
DEFENSE_NAMES: Dict[str, Callable[[], DefenseConfig]] = {
    "none": DefenseConfig.none,
    "retpolines": DefenseConfig.retpolines_only,
    "ret-retpolines": DefenseConfig.ret_retpolines_only,
    "lvi": DefenseConfig.lvi_only,
    "llvm-cfi": DefenseConfig.llvm_cfi_only,
    "all": DefenseConfig.all_defenses,
}


def defense_from_name(name: str) -> DefenseConfig:
    """Resolve a defense name via :data:`DEFENSE_NAMES`."""
    try:
        return DEFENSE_NAMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown defense {name!r} (known: {sorted(DEFENSE_NAMES)})"
        ) from None
