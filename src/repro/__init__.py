"""repro — a Python reproduction of PIBE (ASPLOS 2021).

PIBE: Practical Kernel Control-Flow Hardening with Profile-Guided Indirect
Branch Elimination (Duta, Giuffrida, Bos, van der Kouwe).

Quickstart::

    from repro import (
        PibeConfig, PibePipeline, DefenseConfig,
        build_kernel, lmbench_workload,
    )

    kernel = build_kernel()
    pipeline = PibePipeline(kernel)
    profile = pipeline.profile(lmbench_workload(), iterations=3)
    build = pipeline.build_variant(
        PibeConfig.lax(DefenseConfig.all_defenses()), profile
    )

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
harnesses regenerating every table of the paper's evaluation.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.config": ("PibeConfig",),
        ".core.pipeline": ("BuildResult", "PibePipeline"),
        ".core.report": ("OverheadReport", "geomean_overhead", "overhead"),
        ".hardening.defenses": ("Defense", "DefenseConfig"),
        ".hardening.harden": ("HardeningPass",),
        ".kernel.generator": ("build_kernel", "kernel_stats"),
        ".kernel.spec": ("DEFAULT_SPEC", "KernelSpec"),
        ".profiling.lifting": ("lift_profile",),
        ".profiling.profile_data": ("EdgeProfile",),
        ".profiling.profiler": ("KernelProfiler",),
        ".workloads.apachebench": ("apachebench_workload",),
        ".workloads.base": (
            "measure_benchmark",
            "measure_suite",
            "profile_workload",
        ),
        ".workloads.lmbench": ("LMBENCH_BENCHMARKS", "lmbench_workload"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "BuildResult",
    "DEFAULT_SPEC",
    "Defense",
    "DefenseConfig",
    "EdgeProfile",
    "HardeningPass",
    "KernelProfiler",
    "KernelSpec",
    "LMBENCH_BENCHMARKS",
    "OverheadReport",
    "PibeConfig",
    "PibePipeline",
    "__version__",
    "apachebench_workload",
    "build_kernel",
    "geomean_overhead",
    "kernel_stats",
    "lift_profile",
    "lmbench_workload",
    "measure_benchmark",
    "measure_suite",
    "overhead",
    "profile_workload",
]
