"""Staged build engine: bit-identity with the ``validate=True`` reference
build, prefix sharing, disk persistence and copy-on-write discipline."""

import json

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import (
    PibePipeline,
    PrefixKey,
    deterministic_build_ids,
)
from repro.evaluation.cache import DiskCache
from repro.hardening.defenses import DefenseConfig
from repro.ir.fingerprint import module_fingerprint
from repro.ir.printer import format_module
from repro.ir.validate import validate_module

DEFENSE_SWEEP = (
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
)


def _build(pipeline, config, profile, validate=False):
    """One variant under a fresh id checkpoint, so staged and reference
    (``validate=True``: every pass through the pass manager) builds mint
    identical site ids and inline labels."""
    with deterministic_build_ids():
        return pipeline.build_variant(config, profile, validate=validate)


@pytest.fixture()
def fresh_pipeline(small_kernel):
    """Bit-identity needs the prefix built *inside* the test's own id
    checkpoint — a session-shared pipeline would serve memory-cached
    prefixes minted under some earlier allocator state."""
    return PibePipeline(small_kernel)


# -- differential: staged output must match the reference build ---------------


@pytest.mark.parametrize(
    "defenses", DEFENSE_SWEEP, ids=lambda d: d.label()
)
def test_staged_bit_identical_to_monolithic(
    fresh_pipeline, small_profile, defenses
):
    config = PibeConfig.lax(defenses)
    mono = _build(fresh_pipeline, config, small_profile, validate=True)
    staged = _build(fresh_pipeline, config, small_profile)
    assert module_fingerprint(staged.module) == module_fingerprint(mono.module)
    assert format_module(staged.module) == format_module(mono.module)
    validate_module(staged.module)


def test_staged_unoptimized_bit_identical(fresh_pipeline):
    # none keeps jump tables, retpolines disables them
    for defenses in (DefenseConfig.none(), DefenseConfig.retpolines_only()):
        config = PibeConfig.hardened(defenses)
        mono = _build(fresh_pipeline, config, None, validate=True)
        staged = _build(fresh_pipeline, config, None)
        assert module_fingerprint(staged.module) == module_fingerprint(
            mono.module
        )
        assert format_module(staged.module) == format_module(mono.module)
        assert list(staged.reports) == list(mono.reports)


def test_staged_reports_match_monolithic(fresh_pipeline, small_profile):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    mono = _build(fresh_pipeline, config, small_profile, validate=True)
    staged = _build(fresh_pipeline, config, small_profile)
    assert set(staged.reports) == set(mono.reports)
    assert (
        staged.reports["hardening"].sites_by_defense
        == mono.reports["hardening"].sites_by_defense
    )
    assert (
        staged.reports["pibe-inliner"].inlined_weight
        == mono.reports["pibe-inliner"].inlined_weight
    )


# -- prefix sharing ------------------------------------------------------------


def test_defense_sweep_shares_prefixes(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    for defenses in DEFENSE_SWEEP:
        pipeline.build_variant(PibeConfig.lax(defenses), small_profile)
    # jump-table legality is the only defense facet inside the prefix:
    # {none, ret-retpolines} allow tables, the other three do not.
    assert pipeline.stats["staged_builds"] == 5
    assert pipeline.stats["prefix_builds"] == 2
    assert pipeline.stats["prefix_memory_hits"] == 3
    assert pipeline.stats["reference_builds"] == 0


def test_prefix_key_ignores_defense_selection():
    lax_none = PrefixKey.from_config(PibeConfig.lax(DefenseConfig.none()))
    lax_rr = PrefixKey.from_config(
        PibeConfig.lax(DefenseConfig.ret_retpolines_only())
    )
    lax_ret = PrefixKey.from_config(
        PibeConfig.lax(DefenseConfig.retpolines_only())
    )
    lax_all = PrefixKey.from_config(
        PibeConfig.lax(DefenseConfig.all_defenses())
    )
    assert lax_none == lax_rr  # both keep jump tables
    assert lax_ret == lax_all  # both disable them
    assert lax_none != lax_ret


def test_prefix_key_drops_budget_facets_when_unoptimized():
    a = PrefixKey.from_config(
        PibeConfig.hardened(DefenseConfig.retpolines_only())
    )
    assert a.icp_budget is None and a.inline_budget is None
    assert not a.lax_heuristics


def test_validate_mode_forces_monolithic(small_pipeline, small_profile):
    before = small_pipeline.stats["reference_builds"]
    small_pipeline.build_variant(
        PibeConfig.lax(DefenseConfig.retpolines_only()),
        small_profile,
        validate=True,
    )
    assert small_pipeline.stats["reference_builds"] == before + 1


def test_variant_reports_are_private(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    config = PibeConfig.lax(DefenseConfig.retpolines_only())
    first = pipeline.build_variant(config, small_profile)
    first.reports["pibe-inliner"].inlined_weight = -1
    second = pipeline.build_variant(config, small_profile)
    assert second.reports["pibe-inliner"].inlined_weight != -1


def test_staged_baseline_never_mutated(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    fp_before = module_fingerprint(small_kernel)
    for defenses in DEFENSE_SWEEP:
        pipeline.build_variant(PibeConfig.lax(defenses), small_profile)
    assert module_fingerprint(small_kernel) == fp_before


# -- disk persistence ----------------------------------------------------------


def test_disk_warm_prefix_is_bit_identical(
    tmp_path, small_kernel, small_profile
):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    cache = DiskCache(tmp_path)

    cold_pipeline = PibePipeline(small_kernel, cache=cache)
    cold = _build(cold_pipeline, config, small_profile)
    assert cold_pipeline.stats["prefix_builds"] == 1

    warm_pipeline = PibePipeline(small_kernel, cache=cache)
    warm = _build(warm_pipeline, config, small_profile)
    assert warm_pipeline.stats["prefix_disk_hits"] == 1
    assert warm_pipeline.stats["prefix_builds"] == 0
    assert cache.stats()["by_kind"]["prefix"]["hits"] == 1

    assert module_fingerprint(warm.module) == module_fingerprint(cold.module)
    assert format_module(warm.module) == format_module(cold.module)
    # the replay rebuilds the reports, the persisted inliner report too
    assert json.dumps(cold.reports, default=repr, sort_keys=True) == json.dumps(
        warm.reports, default=repr, sort_keys=True
    )


def test_tampered_prefix_payload_is_rebuilt(
    tmp_path, small_kernel, small_profile
):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    cache = DiskCache(tmp_path)
    cold_pipeline = PibePipeline(small_kernel, cache=cache)
    cold = _build(cold_pipeline, config, small_profile)

    (entry,) = (tmp_path / "prefix").glob("*.json")
    payload = json.loads(entry.read_text())
    payload["trace"]["inline"][0].reverse()  # the trace's sha is now stale
    entry.write_text(json.dumps(payload))

    warm_pipeline = PibePipeline(small_kernel, cache=cache)
    warm = _build(warm_pipeline, config, small_profile)
    # content hash mismatch -> treated as a miss, prefix rebuilt; the
    # corrupt trace is quarantined and counted, like any corrupt entry
    assert warm_pipeline.stats["prefix_disk_hits"] == 0
    assert warm_pipeline.stats["prefix_builds"] == 1
    assert warm_pipeline.stats["prefix_decode_failures"] == 1
    # the tampered trace was moved aside (the slot now holds the rebuild)
    assert (cache.quarantine_dir() / f"prefix-{entry.stem}.json").exists()
    assert module_fingerprint(warm.module) == module_fingerprint(cold.module)


def test_profile_identity_keys_prefix(tmp_path, small_kernel, small_profile):
    from repro.workloads.lmbench import lmbench_workload

    cache = DiskCache(tmp_path)
    config = PibeConfig.lax(DefenseConfig.retpolines_only())
    pipeline = PibePipeline(small_kernel, cache=cache)
    pipeline.build_variant(config, small_profile)

    other_profile = PibePipeline(small_kernel).profile(
        lmbench_workload(ops_scale=0.01), iterations=1
    )
    assert other_profile.digest() != small_profile.digest()
    pipeline.build_variant(config, other_profile)
    # a different profile must not reuse the first prefix
    assert pipeline.stats["prefix_builds"] == 2
