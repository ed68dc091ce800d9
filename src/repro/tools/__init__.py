"""Command-line toolchain."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cli": ("build_parser", "main"),
    },
)

__all__ = ["build_parser", "main"]
