"""Microarchitectural substrate: predictors, caches, timing, attacks."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".attacks": (
            "ALL_ATTACKS",
            "ATTACKER_GADGET",
            "AttackOutcome",
            "LVIAttack",
            "Ret2specAttack",
            "SpectreV2Attack",
            "attack_surface",
        ),
        ".btb": ("BTB",),
        ".costs": ("DEFAULT_COSTS", "NONTRANSIENT_COSTS", "CostModel"),
        ".counting": (
            "CountingTimingModel",
            "CountSummary",
            "counting_cycles",
        ),
        ".icache": ("ICache",),
        ".mob": ("MOB", "LoadResult"),
        ".pht": ("PHT",),
        ".rsb": ("RSB",),
        ".timing": ("TimingModel", "function_footprint_bytes"),
    },
)

__all__ = [
    "ALL_ATTACKS",
    "ATTACKER_GADGET",
    "AttackOutcome",
    "BTB",
    "CostModel",
    "CountSummary",
    "CountingTimingModel",
    "DEFAULT_COSTS",
    "ICache",
    "LVIAttack",
    "LoadResult",
    "MOB",
    "NONTRANSIENT_COSTS",
    "PHT",
    "RSB",
    "Ret2specAttack",
    "SpectreV2Attack",
    "TimingModel",
    "attack_surface",
    "counting_cycles",
    "function_footprint_bytes",
]
