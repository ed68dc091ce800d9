"""Fault injection for the evaluation stack (``repro.faults``).

The paper's tables are regenerated from thousands of (config, workload)
cells; this package provides the controlled failures — worker crashes,
hangs, transient exceptions, corrupt cache entries, truncated writes —
that prove the harness degrades gracefully instead of discarding a whole
regeneration on the first fault. See :mod:`repro.faults.plan` for the
plan format and injection-point catalog, :mod:`repro.faults.runtime` for
activation semantics.

Enable via :func:`install` (programmatic) or the ``REPRO_FAULTS``
environment variable (inline JSON or a plan-file path); the ``repro
faults`` CLI subcommand runs a canned stress scenario.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plan": (
            "ENV_VAR",
            "MODES",
            "FaultPlan",
            "FaultSpec",
            "default_stress_plan",
        ),
        ".runtime": (
            "CRASH_EXIT_CODE",
            "InjectedFault",
            "active_plan",
            "clear",
            "fire",
            "in_worker",
            "install",
            "mark_worker",
        ),
    },
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "MODES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear",
    "default_stress_plan",
    "fire",
    "in_worker",
    "install",
    "mark_worker",
]
