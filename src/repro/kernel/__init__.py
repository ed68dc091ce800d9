"""Synthetic Linux-like kernel: the program PIBE optimizes and hardens."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".generator": ("KernelStats", "build_kernel", "kernel_stats"),
        ".helpers": ("Body", "define", "leaf", "ops_table", "table_dist"),
        ".spec": (
            "DEFAULT_SPEC",
            "SCALED_SPEC",
            "KernelSpec",
            "ScaledSpec",
            "SmallSpec",
        ),
    },
)

__all__ = [
    "Body",
    "DEFAULT_SPEC",
    "KernelSpec",
    "KernelStats",
    "SCALED_SPEC",
    "ScaledSpec",
    "SmallSpec",
    "build_kernel",
    "define",
    "kernel_stats",
    "leaf",
    "ops_table",
    "table_dist",
]
