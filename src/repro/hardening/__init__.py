"""Defense lowerings and the hardening pass (paper Sections 4, 6)."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".custom": (
            "CustomDefense",
            "CustomHardeningPass",
            "clear_registry",
            "custom_defense_cost",
            "register_defense",
            "registered_defense",
        ),
        ".defenses": (
            "Defense",
            "DefenseConfig",
            "LVI_SAFE",
            "NonTransientDefense",
            "RSB_SAFE",
            "SPECTRE_V2_SAFE",
        ),
        ".harden": (
            "HardenReport",
            "HardeningPass",
            "METADATA_KEY",
            "applied_config",
        ),
        ".lowering": (
            "SITE_EXPANSION_UNITS",
            "SITE_SEQUENCES",
            "THUNK_BODIES",
            "THUNK_UNITS",
            "lower_branch",
            "required_thunks",
            "site_expansion_units",
        ),
    },
)

__all__ = [
    "CustomDefense",
    "CustomHardeningPass",
    "Defense",
    "DefenseConfig",
    "HardenReport",
    "HardeningPass",
    "LVI_SAFE",
    "METADATA_KEY",
    "NonTransientDefense",
    "RSB_SAFE",
    "SITE_EXPANSION_UNITS",
    "SITE_SEQUENCES",
    "SPECTRE_V2_SAFE",
    "THUNK_BODIES",
    "THUNK_UNITS",
    "applied_config",
    "clear_registry",
    "custom_defense_cost",
    "lower_branch",
    "register_defense",
    "registered_defense",
    "required_thunks",
    "site_expansion_units",
]
