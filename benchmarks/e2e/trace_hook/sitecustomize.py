"""Outside-in span tracer for the end-to-end benchmark.

Put this directory on ``PYTHONPATH`` and set ``E2E_TRACE_DIR``: every
Python interpreter started with that environment imports this module at
start-up (``site`` loads ``sitecustomize``), including ``-j`` pool workers
and the ``repro serve`` subprocess. Nothing under ``src/`` knows about it.

The tracer wraps the *public* entry points of each layer listed in
:data:`TARGETS`. An import hook patches each function in its defining
module right after that module executes, and rebinds every
``from module import name`` copy it finds in other ``repro`` modules, so
``harness.build_kernel`` and ``sweepengine.build_kernel`` both report.

Spans live in memory as per-name aggregates (calls, total and self
seconds) plus one event per non-engine span for the Chrome trace. A
process appends what it collected to ``spans-<pid>.jsonl`` in the trace
directory whenever its span stack returns to depth 0: pool workers leave
through ``os._exit`` and never run ``atexit``. After ``fork`` the child
drops the parent's stack and buffers (``os.register_at_fork``), or a
forked worker would never return to depth 0 and would re-report the
parent's spans.

Seconds are wall-clock self time on one thread: a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "E2E_TRACE_DIR"

#: (defining module, attribute path, span name). ``None`` as the span
#: name installs only the post-call hook.
TARGETS = (
    ("repro.kernel.generator", "build_kernel", "kernel.build_kernel"),
    ("repro.workloads.base", "profile_workload", "profiling.profile"),
    ("repro.engine.interpreter", "Interpreter.run_syscall", "engine.run_syscall"),
    ("repro.engine.compiled", "CompiledInterpreter.run_function", "engine.run_function"),
    ("repro.workloads.base", "measure_benchmark", "workloads.measure_benchmark"),
    ("repro.workloads.macro", "measure_throughput", "workloads.measure_throughput"),
    ("repro.workloads.microbench", "measure_ticks", "workloads.measure_ticks"),
    ("repro.workloads.spec", "measure_spec_slowdown", "workloads.measure_spec_slowdown"),
    ("repro.profiling.lifting", "lift_profile", "passes.lift"),
    ("repro.passes.jumptables", "LowerSwitches.run", "passes.lower"),
    ("repro.passes.icp", "IndirectCallPromotion.plan", "passes.icp.plan"),
    ("repro.passes.icp", "IndirectCallPromotion.apply_plan", "passes.icp.apply"),
    ("repro.passes.inliner", "PibeInliner.plan", "passes.inline.plan"),
    ("repro.passes.inliner", "PibeInliner.apply_plan", "passes.inline.apply"),
    ("repro.passes.default_inliner", "DefaultInliner.plan", "passes.default_inline.plan"),
    ("repro.passes.default_inliner", "DefaultInliner.apply_plan", "passes.default_inline.apply"),
    ("repro.hardening.harden", "HardeningPass.run", "hardening.stamp"),
    ("repro.core.pipeline", "PibePipeline.__init__", None),
    ("repro.core.pipeline", "PibePipeline.build_variant", "core.build_variant"),
    ("repro.core.pipeline", "PibePipeline.warm_prefix", "core.warm_prefix"),
    ("repro.evaluation.cache", "DiskCache.get", "evaluation.cache.get"),
    ("repro.evaluation.cache", "DiskCache.put", "evaluation.cache.put"),
    ("repro.evaluation.harness", "EvalContext.measure", "evaluation.harness.measure"),
    ("repro.evaluation.harness", "EvalContext.measure_many", "evaluation.harness.measure_many"),
    ("repro.evaluation.harness", "EvalContext.prewarm_prefixes", "evaluation.harness.prewarm"),
    ("repro.evaluation.harness", "EvalContext.measure_jumpswitches",
     "evaluation.harness.measure_jumpswitches"),
    ("repro.analysis.security", "security_metrics", "analysis.security_metrics"),
) + tuple(
    ("repro.evaluation.tables", name, f"evaluation.tables.{name}")
    for name in (
        "figure1", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "table8", "table9", "table10", "table11",
        "table12", "robustness",
    )
)

#: Spans called tens of thousands of times per run: aggregated only (no
#: per-call event), and their self time is also charged to the layer that
#: called them, under the counter named here by the enclosing span.
ENGINE_SPANS = frozenset({"engine.run_syscall", "engine.run_function"})
ENGINE_SPLIT = {
    "profiling.profile": "engine.profile.s",
    "workloads.measure_benchmark": "engine.measure.s",
    "evaluation.harness.measure_jumpswitches": "engine.measure.s",
    "workloads.measure_throughput": "engine.throughput.s",
    "workloads.measure_ticks": "engine.ticks.s",
    "workloads.measure_spec_slowdown": "engine.spec.s",
    "evaluation.tables.table12": "engine.stack.s",
}
ENGINE_OTHER = "engine.other.s"

#: ``BenchResult.counters`` keys summed into ``cpu.<key>``.
CPU_COUNTERS = ("calls", "icalls", "rets", "defended_icalls", "defended_rets", "ijumps")


class Tracer:
    """Per-process span stacks (one per thread), aggregates and events."""

    def __init__(self, out_dir: str | None, clock=time.perf_counter) -> None:
        self.out_dir = out_dir
        self.clock = clock
        self.generation = 0
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.start = self.clock()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_ident = threading.get_ident()
        self.events = []
        self.agg = {}
        self.counters = {}
        self.covered = 0.0
        self.fd = None

    def after_fork_in_child(self) -> None:
        """The child keeps none of the parent's open spans or buffers."""
        self.generation += 1
        self._reset()

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> list:
        try:
            stack = self.local.stack
        except AttributeError:
            stack = self.local.stack = []
        split = None
        if name in ENGINE_SPANS:
            parent = stack[-1] if stack else None
            if parent is None:
                split = ENGINE_OTHER
            elif parent[3] is not None:
                split = parent[3]
            else:
                split = ENGINE_SPLIT.get(parent[0], ENGINE_OTHER)
        frame = [name, self.clock(), 0.0, split, self.generation, stack]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        if frame[4] != self.generation:
            return  # opened by the parent before a fork
        stack = frame[5]
        stack.pop()
        name, start, children, split = frame[0], frame[1], frame[2], frame[3]
        duration = end - start
        own = duration - children
        if stack:
            stack[-1][2] += duration
        with self.lock:
            totals = self.agg.get(name)
            if totals is None:
                totals = self.agg[name] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += own
            if split is not None:
                self.counters[split] = self.counters.get(split, 0.0) + own
            else:
                self.events.append(
                    (name, threading.get_ident(), start, duration)
                )
            if not stack and threading.get_ident() == self.main_ident:
                self.covered += duration
        if not stack:
            self.flush()

    def count(self, name: str, value) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- output ---------------------------------------------------------------

    def flush(self, final: bool = False) -> None:
        """Append everything collected since the last flush as one line."""
        with self.lock:
            events, self.events = self.events, []
            agg, self.agg = self.agg, {}
            counters, self.counters = self.counters, {}
            covered = self.covered
        if self.out_dir is None or not (events or agg or counters or final):
            return
        record = {
            "pid": self.pid,
            "events": [
                [name, tid, round(start * 1e6, 1), round(duration * 1e6, 1)]
                for name, tid, start, duration in events
            ],
            "agg": agg,
            "counters": counters,
        }
        if final:
            record.update(start=self.start, exit=self.clock(), covered=covered)
        if self.fd is None:
            self.fd = os.open(
                os.path.join(self.out_dir, f"spans-{self.pid}.jsonl"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        os.write(self.fd, (json.dumps(record) + "\n").encode("utf-8"))


# -- what each wrapped call counts -----------------------------------------------


def _times(args, kwargs) -> int:
    if "times" in kwargs:
        return kwargs["times"]
    return args[2] if len(args) > 2 else 1


def _entry_bytes(cache, kind, key) -> int:
    try:
        return os.stat(cache._path(kind, key)).st_size
    except (AttributeError, OSError):
        return 0


def _post_build_kernel(tracer, args, kwargs, result):
    tracer.count("kernel.functions", len(result.functions))


def _post_run_syscall(tracer, args, kwargs, result):
    tracer.count("engine.run_syscall.invocations", _times(args, kwargs))


def _post_measure_benchmark(tracer, args, kwargs, result):
    for key in CPU_COUNTERS:
        tracer.count(f"cpu.{key}", result.counters.get(key, 0))


def _post_cache_get(tracer, args, kwargs, result):
    tracer.count("evaluation.cache.gets", 1)
    if result is None:
        tracer.count("evaluation.cache.misses", 1)
    else:
        tracer.count("evaluation.cache.hits", 1)
        tracer.count("evaluation.cache.bytes", _entry_bytes(*args[:3]))


def _post_cache_put(tracer, args, kwargs, result):
    tracer.count("evaluation.cache.puts", 1)
    tracer.count("evaluation.cache.bytes", _entry_bytes(*args[:3]))


def _post_measure_many(tracer, args, kwargs, result):
    report = result.failure_report
    tracer.count("evaluation.harness.retries", report.retries)
    tracer.count("evaluation.harness.failed_cells", len(report.failures))


class _CountedStats(dict):
    """``PibePipeline.stats`` replacement that reports every increment as
    a ``core.<key>`` delta, so a forked worker counts only its own."""

    tracer = None

    def __setitem__(self, key, value):
        old = self.get(key, 0)
        dict.__setitem__(self, key, value)
        self.tracer.count(f"core.{key}", value - old)


def _post_pipeline_init(tracer, args, kwargs, result):
    pipeline = args[0]
    pipeline.stats = _CountedStats(pipeline.stats)


POST_HOOKS = {
    "kernel.build_kernel": _post_build_kernel,
    "engine.run_syscall": _post_run_syscall,
    "workloads.measure_benchmark": _post_measure_benchmark,
    "evaluation.cache.get": _post_cache_get,
    "evaluation.cache.put": _post_cache_put,
    "evaluation.harness.measure_many": _post_measure_many,
    "PibePipeline.__init__": _post_pipeline_init,
}


# -- wrapping ----------------------------------------------------------------


def wrap(tracer: Tracer, func, span, post=None):
    """``func`` timed as ``span`` (if not ``None``), then ``post`` run on
    its arguments and result."""
    if span is None:

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            post(tracer, args, kwargs, result)
            return result

    else:

        def wrapper(*args, **kwargs):
            frame = tracer.enter(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

    return functools.update_wrapper(wrapper, func)


class Instrumenter:
    """Patches :data:`TARGETS` as their modules load."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: id(original) -> (original, wrapper)
        self.wrapped = {}

    def instrument(self, module) -> None:
        fresh = []
        for modname, attr, span in TARGETS:
            if modname != module.__name__:
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            hook_name = span if span is not None else attr
            wrapper = wrap(self.tracer, original, span, POST_HOOKS.get(hook_name))
            setattr(owner, leaf, wrapper)
            self.wrapped[id(original)] = (original, wrapper)
            fresh.append(original)
        if fresh:
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    self.rebind(loaded)
        else:
            self.rebind(module)

    def rebind(self, module) -> None:
        """Point ``from x import f`` copies of wrapped functions at the
        wrapper."""
        namespace = vars(module)
        for name, value in list(namespace.items()):
            hit = self.wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[name] = hit[1]


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, instrumenter: Instrumenter) -> None:
        self.instrumenter = instrumenter

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        instrument = self.instrumenter.instrument

        def exec_and_instrument(module):
            exec_module(module)
            instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def install(out_dir: str) -> Tracer:
    """Start tracing this process (and every process it forks)."""
    tracer = Tracer(out_dir)
    _CountedStats.tracer = tracer
    sys.meta_path.insert(0, _PatchingFinder(Instrumenter(tracer)))
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    atexit.register(tracer.flush, True)
    return tracer


if os.environ.get(TRACE_DIR_ENV):
    TRACER = install(os.environ[TRACE_DIR_ENV])
