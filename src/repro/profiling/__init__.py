"""Profiling phase: LBR-style edge collection and profile lifting."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".lbr": ("BranchRecord", "LBRBuffer"),
        ".lifting": (
            "LiftReport",
            "clear_profile_metadata",
            "lift_profile",
            "provenance_chain",
        ),
        ".profile_data": ("EdgeProfile",),
        ".profiler": ("KernelProfiler",),
        ".sampling": ("SamplingProfiler",),
    },
)

__all__ = [
    "BranchRecord",
    "EdgeProfile",
    "KernelProfiler",
    "LBRBuffer",
    "LiftReport",
    "SamplingProfiler",
    "clear_profile_metadata",
    "lift_profile",
    "provenance_chain",
]
