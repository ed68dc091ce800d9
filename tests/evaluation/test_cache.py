"""Disk cache and parallel measurement: persistence, keying, merge order."""

import json

import pytest

from repro.core.config import PibeConfig
from repro.evaluation.cache import DiskCache, cache_key, canonicalize
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import BY_NAME
from repro.workloads.macro import NGINX


def _settings(tmp_path=None, **kw):
    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.1,
        cache_dir=str(tmp_path) if tmp_path is not None else None,
        **kw,
    )


BENCHES = (BY_NAME["null"], BY_NAME["read"])
CONFIGS = [
    PibeConfig.lto_baseline(),
    PibeConfig.hardened(DefenseConfig.retpolines_only()),
    PibeConfig.hardened(DefenseConfig.retpolines_only(), icp_budget=0.99),
]


# -- DiskCache primitives ----------------------------------------------------


def test_put_get_roundtrip(tmp_path):
    cache = DiskCache(tmp_path)
    key = cache_key("measure", {"a": 1})
    assert cache.get("measure", key) is None
    cache.put("measure", key, {"null": 1.5})
    assert cache.get("measure", key) == {"null": 1.5}
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "corrupt": 0,
        "by_kind": {"measure": {"hits": 1, "misses": 1, "corrupt": 0}},
    }


def test_corrupt_entry_is_quarantined(tmp_path):
    cache = DiskCache(tmp_path)
    key = cache_key("x")
    cache.put("measure", key, {"v": 1})
    path = tmp_path / "measure" / f"{key}.json"
    path.write_text("{truncated", encoding="utf-8")
    # first lookup: counted as corrupt + miss, entry moved aside
    assert cache.get("measure", key) is None
    assert cache.stats() == {
        "hits": 0,
        "misses": 1,
        "corrupt": 1,
        "by_kind": {"measure": {"hits": 0, "misses": 1, "corrupt": 1}},
    }
    assert not path.exists()
    quarantined = list(cache.quarantine_dir().iterdir())
    assert [p.name for p in quarantined] == [f"measure-{key}.json"]
    assert quarantined[0].read_text(encoding="utf-8") == "{truncated"
    # second lookup: a plain miss, the corrupt file is not re-parsed
    assert cache.get("measure", key) is None
    assert cache.stats() == {
        "hits": 0,
        "misses": 2,
        "corrupt": 1,
        "by_kind": {"measure": {"hits": 0, "misses": 2, "corrupt": 1}},
    }
    # a fresh put repopulates the slot cleanly
    cache.put("measure", key, {"v": 2})
    assert cache.get("measure", key) == {"v": 2}


def test_cache_key_canonical_and_order_sensitive():
    # dict ordering doesn't matter; value changes and list order do
    assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})
    assert cache_key({"a": 1}) != cache_key({"a": 2})
    assert cache_key([1, 2]) != cache_key([2, 1])
    # dataclasses (configs) and frozensets canonicalize deterministically
    a = canonicalize(PibeConfig.lax(DefenseConfig.all_defenses()))
    b = canonicalize(PibeConfig.lax(DefenseConfig.all_defenses()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert cache_key(PibeConfig.lto_baseline()) != cache_key(
        PibeConfig.pibe_baseline()
    )


# -- harness integration -----------------------------------------------------


def _kinds(ctx):
    return {
        kind: (stats["hits"], stats["misses"])
        for kind, stats in ctx.cache.stats()["by_kind"].items()
    }


def test_warm_cache_skips_profiling_and_measurement(tmp_path):
    """Every measured kind keys on the kernel's site-sensitive
    fingerprint: the BTB model indexes by site id, so cycles measured on
    one id assignment are served to the same kernel and to no other."""
    config = PibeConfig.hardened(
        DefenseConfig.retpolines_only(), icp_budget=0.99
    )

    def cells(ctx):
        return (
            ctx.measure(config, BENCHES),
            ctx.throughput(config, NGINX, 1),
            ctx.peak_stack(config),
            ctx.measure_jumpswitches(BENCHES),
        )

    cold = EvalContext(_settings(tmp_path))
    baseline = cells(cold)
    assert cold.cache.stats()["hits"] == 0

    # A later run builds a kernel with the same ids (every process
    # builds its kernel first), which the shared kernel stands in for.
    warm = EvalContext(_settings(tmp_path), kernel=cold.kernel)
    assert cells(warm) == baseline
    # served entirely from disk: four measured hits, no profiling run
    assert _kinds(warm) == {"measure": (4, 0)}
    assert ("profile", "lmbench") not in warm._memo
    # a second in-process kernel build gets different site ids, so neither
    # the cached profile nor any measured cell is replayed against it...
    rebuilt = EvalContext(_settings(tmp_path))
    profile = rebuilt.profile("lmbench")
    stats = rebuilt.cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 1, 0)
    cells(rebuilt)
    assert _kinds(rebuilt)["measure"] == (0, 4)
    # ...though the id-independent content agrees
    assert profile.invocations == cold.profile("lmbench").invocations


def test_cache_keys_isolate_settings(tmp_path):
    config = PibeConfig.lto_baseline()
    a = EvalContext(_settings(tmp_path))
    a.measure(config, BENCHES)
    # different measurement scale -> different cell, not a stale hit; the
    # shared kernel keeps the fingerprint equal, so only the scale differs
    b = EvalContext(
        EvalSettings(
            spec=SmallSpec(),
            profile_iterations=1,
            profile_ops_scale=0.05,
            measure_ops_scale=0.2,
            cache_dir=str(tmp_path),
        ),
        kernel=a.kernel,
    )
    b.measure(config, BENCHES)
    kinds = _kinds(b)
    assert kinds["measure"] == (0, 1)
    # the scale-free prefix is served, so the kernel did match
    assert kinds["prefix"] == (1, 0)


def test_measure_many_sequential_matches_measure(tmp_path):
    ctx = EvalContext(_settings())
    many = ctx.measure_many(CONFIGS, BENCHES)
    singles = [ctx.measure(c, BENCHES) for c in CONFIGS]
    assert many == singles


def test_measure_many_parallel_matches_sequential(tmp_path):
    parallel_ctx = EvalContext(_settings(tmp_path / "par", jobs=2))
    parallel = parallel_ctx.measure_many(CONFIGS, BENCHES)
    sequential_ctx = EvalContext(_settings())
    sequential = sequential_ctx.measure_many(CONFIGS, BENCHES)
    assert parallel == sequential
    # merged results are now in the parent's in-memory cache
    for config, expected in zip(CONFIGS, sequential):
        assert parallel_ctx.measure(config, BENCHES) == expected


def test_engines_share_no_cache_entries(tmp_path):
    config = PibeConfig.lto_baseline()
    compiled = EvalContext(_settings(tmp_path, engine="compiled"))
    reference = EvalContext(
        _settings(tmp_path, engine="reference"), kernel=compiled.kernel
    )
    first = compiled.measure(config, BENCHES)
    assert reference.cache.stats()["hits"] == 0
    second = reference.measure(config, BENCHES)
    kinds = _kinds(reference)
    assert kinds["measure"] == (0, 1)  # engine keyed separately
    assert first == second  # ...even though the results agree
    # built prefixes do not depend on the engine, so they are served
    assert kinds["prefix"] == (1, 0)


def test_disk_usage_reflects_other_writers(tmp_path):
    writer = DiskCache(tmp_path)
    writer.put("measure", "k1", {"cycles": 1})
    writer.put("measure", "k2", {"cycles": 2})
    writer.put("prefix", "p1", {"module": {}})

    # a fresh handle (another process, conceptually) sees the same files
    reader = DiskCache(tmp_path)
    usage = reader.disk_usage()
    assert usage["measure"]["entries"] == 2
    assert usage["prefix"]["entries"] == 1
    assert usage["measure"]["bytes"] > 0
    assert reader.stats()["hits"] == 0  # disk_usage is not a cache access

    # an empty root reports nothing rather than crashing
    assert DiskCache(tmp_path / "nowhere").disk_usage() == {}


# -- cross-process concurrency (the serve/CI sharing story) ------------------
#
# Module-level workers: ProcessPoolExecutor pickles the callable, and the
# children must import it fresh.


def _hammer_same_key(args):
    """Write and read one key repeatedly; return observed payload values."""
    root, key, worker_id, iterations = args
    cache = DiskCache(root)
    seen = set()
    for i in range(iterations):
        cache.put("measure", key, {"writer": worker_id, "round": i})
        entry = cache.get("measure", key)
        if entry is not None:  # a concurrent quarantine would yield None
            assert set(entry) == {"writer", "round"}
            seen.add(entry["writer"])
    return {"seen": sorted(seen), "stats": cache.stats()}


def _read_under_corruption(args):
    """Race the quarantine path: alternate corrupting and reading."""
    root, key, iterations = args
    cache = DiskCache(root)
    path = cache.root / "measure" / f"{key}.json"
    outcomes = {"valid": 0, "miss": 0}
    for i in range(iterations):
        if i % 2:
            try:
                path.write_text("{torn write", encoding="utf-8")
            except OSError:
                pass
        else:
            cache.put("measure", key, {"v": i})
        entry = cache.get("measure", key)
        outcomes["valid" if entry is not None else "miss"] += 1
    outcomes["stats"] = cache.stats()
    return outcomes


def test_concurrent_writers_same_key_race_free(tmp_path):
    """Two processes hammering one key never tear it: the atomic
    tempfile + rename publish means every read parses and carries a
    complete payload from one writer or the other."""
    from concurrent.futures import ProcessPoolExecutor

    key = cache_key("contended")
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(
            pool.map(
                _hammer_same_key,
                [(str(tmp_path), key, wid, 150) for wid in (1, 2)],
            )
        )
    for result in results:
        # no reader ever saw a corrupt entry
        assert result["stats"]["corrupt"] == 0
    # the slot holds one complete, parseable payload at the end
    final = DiskCache(tmp_path).get("measure", key)
    assert final is not None and final["writer"] in (1, 2)


def test_quarantine_under_contention(tmp_path):
    """Concurrent readers of a corrupted entry each either quarantine it
    or take a clean miss — never an exception — and the counters add up
    to what each process observed."""
    from concurrent.futures import ProcessPoolExecutor

    key = cache_key("corruptible")
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(
            pool.map(
                _read_under_corruption,
                [(str(tmp_path), key, 100)] * 2,
            )
        )
    for outcome in results:
        stats = outcome["stats"]
        # every lookup is accounted for exactly once
        assert stats["hits"] + stats["misses"] == 100
        assert outcome["valid"] + outcome["miss"] == 100
        assert stats["corrupt"] <= stats["misses"]
    assert sum(r["stats"]["corrupt"] for r in results) >= 1
    # quarantined copies are preserved for inspection, names are unique
    cache = DiskCache(tmp_path)
    quarantined = list(cache.quarantine_dir().glob("*.json"))
    assert quarantined, "no corrupt entry was preserved"
    # and the slot itself recovers with a fresh put
    cache.put("measure", key, {"v": "clean"})
    assert cache.get("measure", key) == {"v": "clean"}
