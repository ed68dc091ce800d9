"""Execution-engine benchmark: reference vs compiled vs vectorized.

Runs the engine workload mix through all three engines on the 10×
:class:`ScaledSpec` kernel under identical counting sinks, cross-checks
that event and cycle totals agree bit-for-bit (the differential gate —
a fast engine that counts differently is wrong, not fast), and records
wall time + events/sec to ``BENCH_engine.json`` at the repo root so the
engine's perf trajectory is tracked across commits.

The vectorized engine's timed window lasts only a few tens of
milliseconds, so one window is at the mercy of scheduler noise. Each
engine therefore runs ``REPETITIONS`` windows, interleaved across
engines, and the speedups are medians of the per-window ratios.

The vectorized engine carries a CI budget: at least
``MIN_VECTORIZED_SPEEDUP``× the reference interpreter's throughput.

A profile arm collects the same workload's edge profile with a
:class:`KernelProfiler` on the compiled engine (event by event) and on
the vectorized engine (counting call edges). The digests must be equal;
the seconds are recorded, with no budget.

A timing arm runs the same workload under the stateful
:class:`TimingModel` on three paths: the reference engine, the compiled
engine's fused walker (a lone ``TimingModel``) and the compiled engine's
generic replay (forced by a no-op second sink). Cycles, counters,
defense charges and predictor statistics must be equal on all three;
each path's median window seconds are recorded, with no budget.

The record also holds the program's residency: the kernel's function
count and how many of them the compiled program has compiled after the
engine workload. The compiled engine compiles a function on first entry,
so its warm-up pass is the first pass over a cold program; each engine's
``warmup_seconds`` is recorded. CI asserts that fewer functions are
compiled than exist.
"""

import json
import statistics
import time
from pathlib import Path

from _meta import stamp, write_record

from repro.cpu.counting import CountingTimingModel
from repro.cpu.timing import TimingModel
from repro.engine.compiled import (
    ENGINE_VERSION,
    compiled_program,
    create_interpreter,
)
from repro.engine.trace import TraceSink
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SCALED_SPEC
from repro.profiling.profiler import KernelProfiler
from repro.workloads.lmbench import engine_workload

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: All engines, slowest first (reference is the speedup denominator).
ALL_ENGINES = ("reference", "compiled", "vectorized")

#: CI perf budget: vectorized throughput vs the reference interpreter.
MIN_VECTORIZED_SPEEDUP = 10.0
#: The compiled engine's long-standing (looser) budget.
MIN_COMPILED_SPEEDUP = 1.2
#: Timed windows per engine; the gates read the median ratio.
REPETITIONS = 5
#: Paths of the timing arm: the reference engine, the compiled engine's
#: fused walker, and its generic replay.
TIMING_PATHS = ("reference", "compiled", "replay")


def _run_window(interp, workload, scale: bool) -> None:
    """One pass of the workload: one op per bench, or all of them."""
    for bench, ops in workload.components:
        for syscall, times in bench.syscalls:
            interp.run_syscall(syscall, times=times * ops if scale else times)


def _run_engines(module) -> dict:
    """``REPETITIONS`` timed windows per engine; totals from the sinks.

    A one-op warm-up pass precedes the timed windows so one-time program
    construction (compiled/vector programs are cached on the module, as
    in any real multi-measurement session) doesn't masquerade as
    per-event cost. Warm-up events stay in the sink's totals — they are
    identical across engines, so the differential gate still holds —
    but throughput is computed from the timed windows only. Window ``i``
    runs on every engine back to back, so each per-window ratio compares
    the same work under the same machine load.
    """
    workload = engine_workload()
    runs = {}
    for engine in ALL_ENGINES:
        sink = CountingTimingModel(module)
        interp = create_interpreter(module, [sink], seed=13, engine=engine)
        start = time.perf_counter()
        _run_window(interp, workload, scale=False)
        warmup = time.perf_counter() - start
        runs[engine] = (sink, interp, sink.total_events, warmup, [])
    for _ in range(REPETITIONS):
        for engine in ALL_ENGINES:
            sink, interp, _, _, seconds = runs[engine]
            start = time.perf_counter()
            _run_window(interp, workload, scale=True)
            seconds.append(time.perf_counter() - start)
    results = {}
    for engine, (sink, _, warmup_events, warmup, seconds) in runs.items():
        events = sink.total_events
        timed_events = events - warmup_events
        results[engine] = {
            "seconds": round(statistics.median(seconds), 4),
            "warmup_seconds": round(warmup, 4),
            "repetitions": REPETITIONS,
            "events": events,
            "timed_events": timed_events,
            "cycles": round(sink.cycles, 3),
            "events_per_sec": round(timed_events / sum(seconds)),
            "_window_seconds": seconds,
        }
    return results


def _profile_arm(module) -> dict:
    """The workload's edge profile on the compiled and vectorized engines."""
    workload = engine_workload()
    arm = {}
    for engine in ("compiled", "vectorized"):
        profiler = KernelProfiler(workload=workload.name)
        interp = create_interpreter(module, [profiler], seed=13, engine=engine)
        start = time.perf_counter()
        _run_window(interp, workload, scale=True)
        profile = profiler.finish()
        arm[engine] = {
            "seconds": round(time.perf_counter() - start, 4),
            "digest": profile.digest(),
        }
    return arm


def _timing_state(sink: TimingModel) -> dict:
    """What a stateful timing run produced: cycles, counters, defense
    charges and predictor statistics."""
    return {
        "cycles": sink.cycles,
        "counters": dict(sink.counters),
        "defense_cycles": dict(sink.defense_cycles_charged),
        "btb": [sink.btb.hits, sink.btb.misses],
        "rsb": [
            sink.rsb.hits,
            sink.rsb.misses,
            sink.rsb.underflows,
            sink.rsb.overflow_drops,
        ],
        "icache": [
            sink.icache.hits,
            sink.icache.misses,
            sink.icache.evictions,
        ],
    }


def _timing_arm(module):
    """The workload under a ``TimingModel`` on every timing path.

    Same shape as :func:`_run_engines`: a one-op warm-up, then
    ``REPETITIONS`` windows interleaved across paths. Returns the record
    entry and each path's final sink state.
    """
    workload = engine_workload()
    runs = {}
    for path in TIMING_PATHS:
        sink = TimingModel(module)
        sinks = [sink, TraceSink()] if path == "replay" else [sink]
        engine = "reference" if path == "reference" else "compiled"
        interp = create_interpreter(module, sinks, seed=13, engine=engine)
        _run_window(interp, workload, scale=False)
        runs[path] = (sink, interp, [])
    for _ in range(REPETITIONS):
        for path in TIMING_PATHS:
            _, interp, seconds = runs[path]
            start = time.perf_counter()
            _run_window(interp, workload, scale=True)
            seconds.append(time.perf_counter() - start)
    states = {path: _timing_state(runs[path][0]) for path in TIMING_PATHS}
    arm = {
        path: {
            "seconds": round(statistics.median(runs[path][2]), 4),
            "repetitions": REPETITIONS,
        }
        for path in TIMING_PATHS
    }
    arm["cycles"] = round(states["reference"]["cycles"], 3)
    arm["equal"] = all(
        states[path] == states["reference"] for path in TIMING_PATHS
    )
    return arm, states


def test_engine_throughput():
    module = build_kernel(SCALED_SPEC)
    HardeningPass(DefenseConfig.all_defenses()).run(module)
    module.bump_version()

    results = _run_engines(module)
    compiled_functions = sum(
        cfunc.blocks is not None
        for cfunc in compiled_program(module).functions.values()
    )

    # Differential gate: identical work under identical counting sinks.
    # Totals must match bit-for-bit before any number is recorded.
    reference = results["reference"]
    for engine in ("compiled", "vectorized"):
        assert results[engine]["events"] == reference["events"], engine
        assert results[engine]["cycles"] == reference["cycles"], engine

    speedups = {
        engine: round(
            statistics.median(
                ref / mine
                for ref, mine in zip(
                    reference["_window_seconds"],
                    results[engine]["_window_seconds"],
                )
            ),
            2,
        )
        for engine in ("compiled", "vectorized")
    }
    for engine in ALL_ENGINES:
        del results[engine]["_window_seconds"]

    profile = _profile_arm(module)
    assert profile["vectorized"]["digest"] == profile["compiled"]["digest"]

    timing, timing_states = _timing_arm(module)
    for path in ("compiled", "replay"):
        assert timing_states[path] == timing_states["reference"], path
    assert timing["equal"]

    record = {
        "benchmark": "engine_throughput",
        "engine_version": ENGINE_VERSION,
        "kernel": "ScaledSpec",
        "functions": len(module.functions),
        "compiled_functions": compiled_functions,
        "workload": "engine-mix",
        **{engine: results[engine] for engine in ALL_ENGINES},
        "speedup_compiled": speedups["compiled"],
        "speedup_vectorized": speedups["vectorized"],
        "budget_vectorized": MIN_VECTORIZED_SPEEDUP,
        "profile": profile,
        "timing": timing,
    }
    stamp(record)
    write_record(RECORD_PATH, record)
    print(f"\nengine benchmark ({RECORD_PATH.name}):")
    print(json.dumps(record, indent=2))

    # Perf budgets — flag regressions loudly, with headroom for noisy CI.
    assert speedups["compiled"] > MIN_COMPILED_SPEEDUP, speedups
    assert speedups["vectorized"] >= MIN_VECTORIZED_SPEEDUP, speedups
