"""Comparison baselines: JumpSwitches and RSB refilling."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".eibrs": (
            "BTBPoisoningOrigin",
            "EIBRS_MATRIX",
            "EIBRSTimingModel",
            "EIBRSVerdict",
            "eibrs_blocks",
            "simulate_eibrs_poisoning",
        ),
        ".jumpswitches": ("JumpSwitchParams", "JumpSwitchTimingModel"),
        ".rsb_refill": (
            "REFILL_COST_CYCLES",
            "RSBAttackScenario",
            "SCENARIO_MATRIX",
            "ScenarioOutcome",
            "simulate_refill_scenario",
        ),
    },
)

__all__ = [
    "BTBPoisoningOrigin",
    "EIBRSTimingModel",
    "EIBRSVerdict",
    "EIBRS_MATRIX",
    "JumpSwitchParams",
    "JumpSwitchTimingModel",
    "REFILL_COST_CYCLES",
    "RSBAttackScenario",
    "SCENARIO_MATRIX",
    "ScenarioOutcome",
    "eibrs_blocks",
    "simulate_eibrs_poisoning",
    "simulate_refill_scenario",
]
