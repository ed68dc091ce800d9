"""PIBE build configuration: which defenses to enforce and how aggressively
to eliminate indirect branches first (paper Sections 4–5, 8.3)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.hardening.defenses import DefenseConfig

#: The paper's Rule 2 / Rule 3 thresholds (12,000 / 3,000 InlineCost units)
#: assume Linux-sized functions — hundreds of instructions each. The
#: synthetic kernel's functions are roughly 6x smaller, so the default
#: thresholds here scale down accordingly (calibrated so Rule 3 blocks
#: ~3% of eligible weight, matching the paper's Table 9); pass the paper
#: values explicitly to study the un-scaled behaviour.
KERNEL_CALLER_THRESHOLD = 2_000
KERNEL_CALLEE_THRESHOLD = 450


def check_budget(value: Any, name: str = "budget") -> float:
    """The one budget rule, as a float: a real number in (0, 1]. A bool
    is an int, and JSON parses NaN; neither is a budget."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and 0.0 < value <= 1.0):
        raise ValueError(
            f"{name} {value!r} out of range: must be a number in (0, 1]"
        )
    return float(value)


@dataclass(frozen=True)
class PibeConfig:
    """One kernel build variant.

    ``icp_budget`` / ``inline_budget`` are the optimization budgets of
    Section 5 (fractions of cumulative execution weight, e.g. ``0.999``);
    ``None`` disables the corresponding elimination pass. The paper's
    headline "lax heuristics" configuration is
    ``PibeConfig.lax(DefenseConfig.all_defenses())``.
    """

    defenses: DefenseConfig = field(default_factory=DefenseConfig.none)
    icp_budget: Optional[float] = None
    inline_budget: Optional[float] = None
    lax_heuristics: bool = False
    caller_threshold: int = KERNEL_CALLER_THRESHOLD
    callee_threshold: int = KERNEL_CALLEE_THRESHOLD
    #: Use LLVM's bottom-up inliner instead of PIBE's (Section 8.4 baseline).
    use_default_inliner: bool = False
    #: Drop functions made unreachable by inlining.
    run_dce: bool = True

    def __post_init__(self) -> None:
        for name in ("icp_budget", "inline_budget"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_budget(value, name))
        for name in ("caller_threshold", "callee_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")

    # -- named configurations --------------------------------------------------

    @classmethod
    def lto_baseline(cls) -> "PibeConfig":
        """Vanilla kernel: LTO pipeline, no PGO, no defenses (Section 8.1)."""
        return cls()

    @classmethod
    def pibe_baseline(cls) -> "PibeConfig":
        """PGO-optimized kernel without defenses (the 'PIBE baseline')."""
        return cls(icp_budget=0.99999, inline_budget=0.999999, lax_heuristics=True)

    @classmethod
    def hardened(
        cls,
        defenses: DefenseConfig,
        icp_budget: Optional[float] = None,
        inline_budget: Optional[float] = None,
        lax_heuristics: bool = False,
    ) -> "PibeConfig":
        return cls(
            defenses=defenses,
            icp_budget=icp_budget,
            inline_budget=inline_budget,
            lax_heuristics=lax_heuristics,
        )

    @classmethod
    def lax(cls, defenses: DefenseConfig) -> "PibeConfig":
        """The paper's optimal configuration: 99.9999% budgets with size
        heuristics disabled for sites inside the 99% budget (Section 8.3)."""
        return cls(
            defenses=defenses,
            icp_budget=0.999999,
            inline_budget=0.999999,
            lax_heuristics=True,
        )

    def label(self) -> str:
        def fmt(budget: float) -> str:
            return f"{budget * 100:.6f}".rstrip("0").rstrip(".") + "%"

        parts = [self.defenses.label()]
        if self.icp_budget is not None:
            parts.append(f"icp={fmt(self.icp_budget)}")
        if self.inline_budget is not None:
            parts.append(f"inline={fmt(self.inline_budget)}")
        if self.lax_heuristics:
            parts.append("lax")
        if self.use_default_inliner:
            parts.append("default-inliner")
        return " ".join(parts)

    @property
    def optimized(self) -> bool:
        return self.icp_budget is not None or self.inline_budget is not None
