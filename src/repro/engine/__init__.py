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

from repro.engine.behavior import (
    LoopState,
    branch_taken,
    cumulative_weights,
    expected_counts,
    guard_probabilities,
    pick_index,
    residual_distribution,
    weighted_choice,
)
from repro.engine.compiled import (
    DEFAULT_ENGINE,
    ENGINE_VERSION,
    ENGINES,
    CompiledInterpreter,
    CompiledProgram,
    compile_function,
    compile_module,
    compiled_program,
    create_interpreter,
)
from repro.engine.interpreter import ExecutionError, ExecutionLimits, Interpreter
from repro.engine.trace import TraceRecorder, TraceSink
from repro.engine.vectorized import (
    VectorizedInterpreter,
    VectorProgram,
    vector_program,
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
