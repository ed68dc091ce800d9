"""Bounded prefix residency: a pipeline keeps at most
``RESIDENT_PREFIXES`` prefix entries, each owning the variants stamped
on it. Evicting an entry frees its IR, its variants and their compiled
programs; a prefix requested after eviction replays its trace (from the
disk cache, or from memory without one) into a bit-identical module
whose variants measure the same cycles, and whole evaluations render
the same tables under a tiny bound."""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.core import pipeline as pipeline_module
from repro.core.config import PibeConfig
from repro.core.pipeline import (
    BuildResult,
    PibePipeline,
    PrefixEntry,
    deterministic_build_ids,
)
from repro.engine.compiled import compiled_program
from repro.evaluation import tables
from repro.evaluation.cache import DiskCache
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.module import Module
from repro.workloads.base import measure_benchmark
from repro.workloads.lmbench import BY_NAME

#: More budgets than the bound the tests force (2).
BUDGETS = (0.5, 0.8, 0.9, 0.99, 0.999999)


def _configs():
    return [
        PibeConfig(
            defenses=DefenseConfig.all_defenses(),
            icp_budget=budget,
            inline_budget=budget,
            lax_heuristics=True,
        )
        for budget in BUDGETS
    ]


def _owned(module):
    """Ids of the functions a COW clone owns (not its source's)."""
    return {
        id(func)
        for name, func in module.functions.items()
        if not module.is_cow_shared(name)
    }


def _held(pipeline):
    """Ids of every function the pipeline still references: the
    baseline, its decision bases (and their simplified clones), and its
    resident prefixes with their variants."""
    modules = [pipeline.baseline]
    held = set()
    for basis in pipeline._basis_memo.values():
        modules.append(basis.module)
        held.update(id(f) for f, _ in basis._simplified.values() if f)
    for entry in pipeline._prefix_memo.values():
        modules.append(entry.module)
        modules.extend(build.module for build in entry.variants.values())
    for module in modules:
        held.update(id(func) for func in module.functions.values())
    return held


def _cycles(module):
    return [
        measure_benchmark(module, BY_NAME[name], ops=20).cycles
        for name in ("null", "read", "open")
    ]


def test_ladder_past_the_bound_evicts_and_frees(
    monkeypatch, small_kernel, small_profile
):
    monkeypatch.setattr(pipeline_module, "RESIDENT_PREFIXES", 2)
    pipeline = PibePipeline(small_kernel)
    owned, modules, programs = set(), [], []
    for config in _configs():
        build = pipeline.variant(config, small_profile)
        assert pipeline.variant(config, small_profile) is build
        key = pipeline._memo_key(config, small_profile)
        entry = pipeline._prefix_memo[key]
        assert entry.variants == {config: build}
        assert len(pipeline._prefix_memo) <= 2
        owned |= _owned(entry.module) | _owned(build.module)
        modules.append(weakref.ref(build.module))
        programs.append(weakref.ref(compiled_program(build.module)))
        del build, entry

    evicted = len(BUDGETS) - 2
    assert pipeline.stats["prefix_evictions"] == evicted
    info = pipeline.prefix_cache_info()
    assert (info["entries"], info["variants"]) == (2, 2)
    assert (info["bound"], info["evictions"]) == (2, evicted)
    # a variant hit counts as no stamp and no prefix lookup
    assert pipeline.stats["staged_builds"] == len(BUDGETS)
    assert pipeline.stats["prefix_memory_hits"] == 0

    gc.collect()
    gone = [True] * evicted + [False] * 2
    assert [ref() is None for ref in modules] == gone
    assert [ref() is None for ref in programs] == gone
    # Function has __slots__ and no __weakref__: find survivors by id.
    # A live function whose id was recycled by a later build is held by
    # the pipeline; any other match is an evicted function still alive.
    held = _held(pipeline)
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, Function)
        and id(obj) in owned
        and id(obj) not in held
    ]
    assert alive == []


@pytest.mark.parametrize("with_cache", [True, False], ids=["disk", "memory"])
def test_evicted_prefix_replays_bit_identical(
    monkeypatch, tmp_path, small_kernel, small_profile, with_cache
):
    monkeypatch.setattr(pipeline_module, "RESIDENT_PREFIXES", 2)
    cache = DiskCache(tmp_path) if with_cache else None
    pipeline = PibePipeline(small_kernel, cache=cache)
    first, *rest = _configs()
    key = pipeline._memo_key(first, small_profile)
    build = pipeline.variant(first, small_profile)
    prefix_fp = module_fingerprint(pipeline._prefix_memo[key].module)
    variant_fp = module_fingerprint(build.module)
    cycles = _cycles(build.module)
    del build
    for config in rest:
        pipeline.variant(config, small_profile)
    assert key not in pipeline._prefix_memo
    planned = (
        pipeline.stats["prefix_builds"],
        pipeline.stats["prefix_delta_builds"],
    )
    assert planned == (len(BUDGETS), len(BUDGETS))

    again = pipeline.variant(first, small_profile)
    entry = pipeline._prefix_memo[key]
    assert module_fingerprint(entry.module) == prefix_fp
    assert module_fingerprint(again.module) == variant_fp
    assert _cycles(again.module) == cycles
    assert (
        pipeline.stats["prefix_builds"],
        pipeline.stats["prefix_delta_builds"],
    ) == planned
    source = "disk" if with_cache else "memory"
    assert entry.source == source
    assert pipeline.stats["prefix_disk_hits"] == int(with_cache)
    assert pipeline.stats["prefix_memory_replays"] == int(not with_cache)
    assert pipeline.prefix_cache_info()["by_source"] == {
        "built": 1, source: 1
    }


def _fast_tables(kernel):
    with deterministic_build_ids():
        with EvalContext(EvalSettings.fast(), kernel=kernel) as ctx:
            rendered = [
                generate(ctx).table.to_text()
                for _, _, generate in tables.EXPERIMENTS
            ]
    assert not any(key[0] == "variant" for key in ctx._memo)
    return rendered, dict(ctx.pipeline.stats)


def test_fast_tables_identical_under_a_tiny_bound(monkeypatch, small_kernel):
    default, stats = _fast_tables(small_kernel)
    assert stats["prefix_evictions"] == 0
    monkeypatch.setattr(pipeline_module, "RESIDENT_PREFIXES", 2)
    bounded, stats = _fast_tables(small_kernel)
    assert stats["prefix_evictions"] > 0
    assert stats["prefix_memory_replays"] > 0
    assert bounded == default


def test_prefix_cache_info_survives_concurrent_inserts(small_kernel):
    """The serve ``stats`` op snapshots the memo on its event-loop
    thread while the eval thread inserts prefixes and variants. Here
    reading a module's ``functions`` inserts, standing in for that
    thread: the snapshot must count what it copied, and not raise
    ``RuntimeError: dictionary changed size during iteration``."""

    class Inserting:
        def __init__(self, target, value):
            self.target, self.value = target, value

        @property
        def functions(self):
            self.target[object()] = self.value
            return small_kernel.functions

    pipeline = PibePipeline(small_kernel)
    memo = pipeline._prefix_memo
    filler = PrefixEntry(module=small_kernel, reports={})
    memo["racing"] = PrefixEntry(module=Inserting(memo, filler), reports={})
    memo["after"] = filler
    assert pipeline.prefix_cache_info()["entries"] == 2
    assert len(memo) == 3

    pipeline = PibePipeline(small_kernel)
    entry = pipeline._prefix_memo["only"] = PrefixEntry(
        module=small_kernel, reports={}
    )
    config = PibeConfig.lto_baseline()
    stamped = BuildResult(config, small_kernel)
    entry.variants[config] = BuildResult(
        config, Inserting(entry.variants, stamped)
    )
    entry.variants["after"] = stamped
    assert pipeline.prefix_cache_info()["variants"] == 2
    assert len(entry.variants) == 3


def test_prefix_cache_info_under_concurrent_writers(small_kernel):
    """One writer thread inserts and evicts prefixes, another stamps
    and drops variants, as the eval thread does, while this thread
    snapshots the memo with the interpreter switching threads every
    microsecond."""
    pipeline = PibePipeline(small_kernel)
    memo = pipeline._prefix_memo
    stamped = BuildResult(PibeConfig.lto_baseline(), Module("stamped"))
    entry = memo["stamps"] = PrefixEntry(module=Module("p"), reports={})
    stop = threading.Event()

    def churn(table, value, keep):
        step = 0
        while not stop.is_set():
            table[step] = value
            table.pop(step - keep, None)
            step += 1

    writers = [
        threading.Thread(target=churn, args=(memo, entry, 16)),
        threading.Thread(target=churn, args=(entry.variants, stamped, 4)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for writer in writers:
            writer.start()
        snapshots = 0
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            info = pipeline.prefix_cache_info()
            assert info["entries"] <= 1 + 17
            snapshots += 1
    finally:
        stop.set()
        for writer in writers:
            writer.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(writer.is_alive() for writer in writers)
    assert snapshots > 0
