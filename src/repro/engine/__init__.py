"""Trace-driven IR execution engines.

Three tiers share one behavioural contract: the tree-walking reference
:class:`Interpreter` (the semantic oracle), the compiling
:class:`CompiledInterpreter` (exact event replay of functions compiled
on first entry, with a fused walker that charges a lone plain
:class:`~repro.cpu.timing.TimingModel` inline, bit for bit), and the
superblock :class:`VectorizedInterpreter`
(counting-mode batching for counting sinks, with automatic fallback to
the compiled engine for sinks that need the real event stream). Select
via :func:`create_interpreter`'s ``engine=`` knob; per-seed stochastic
paths — and therefore event and count totals — are identical across all
three.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".behavior": (
            "LoopState",
            "branch_taken",
            "cumulative_weights",
            "expected_counts",
            "guard_probabilities",
            "pick_index",
            "residual_distribution",
            "weighted_choice",
        ),
        ".compiled": (
            "CompiledInterpreter",
            "CompiledProgram",
            "compile_function",
            "compile_module",
            "compiled_program",
            "create_interpreter",
        ),
        ".interpreter": ("ExecutionError", "ExecutionLimits", "Interpreter"),
        ".names": ("DEFAULT_ENGINE", "ENGINE_VERSION"),
        ".trace": ("TraceRecorder", "TraceSink"),
        # The registry is read through the vectorized engine's module,
        # which registers itself on import: ENGINES lists every engine.
        ".vectorized": (
            "ENGINES",
            "VectorProgram",
            "VectorizedInterpreter",
            "vector_program",
        ),
    },
)

__all__ = [
    "CompiledInterpreter",
    "CompiledProgram",
    "DEFAULT_ENGINE",
    "ENGINES",
    "ENGINE_VERSION",
    "ExecutionError",
    "ExecutionLimits",
    "Interpreter",
    "LoopState",
    "TraceRecorder",
    "TraceSink",
    "VectorProgram",
    "VectorizedInterpreter",
    "branch_taken",
    "compile_function",
    "compile_module",
    "compiled_program",
    "create_interpreter",
    "cumulative_weights",
    "expected_counts",
    "guard_probabilities",
    "pick_index",
    "residual_distribution",
    "vector_program",
    "weighted_choice",
]
