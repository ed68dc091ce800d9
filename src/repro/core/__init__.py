"""PIBE's public driver API."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("PibeConfig",),
        ".pipeline": ("BuildResult", "PibePipeline"),
        ".report": (
            "OverheadReport",
            "OverheadRow",
            "build_overhead_report",
            "format_percent",
            "geomean_overhead",
            "geomean_ratio",
            "overhead",
        ),
    },
)

__all__ = [
    "BuildResult",
    "OverheadReport",
    "OverheadRow",
    "PibeConfig",
    "PibePipeline",
    "build_overhead_report",
    "format_percent",
    "geomean_overhead",
    "geomean_ratio",
    "overhead",
]
