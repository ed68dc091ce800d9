"""Delta prefix engine: budget ladders derived from a shared decision
basis must be bit-identical to the ``validate=True`` reference build
(every pass through the pass manager from a fresh baseline clone),
chunked persistence must dedup across entries, quarantine corrupt
chunks and keep no prefix-owned function alive, and the prewarm path
must hand prefixes over through the disk cache."""

import collections
import gc
import json

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import (
    PibePipeline,
    deterministic_build_ids,
)
from repro.evaluation.cache import DiskCache
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import DEFENSE_NAMES, DefenseConfig
from repro.ir import serialize
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.printer import format_module
from repro.ir.validate import validate_module
from repro.kernel.spec import SmallSpec

#: Budget ladder: the one-profile-many-budgets workflow the delta
#: engine exists for.
LADDER = (0.5, 0.9, 0.999999)


def _build(pipeline, config, profile, validate=False):
    with deterministic_build_ids():
        return pipeline.build_variant(config, profile, validate=validate)


def _ladder_configs(defenses, **overrides):
    return [
        PibeConfig(
            defenses=defenses,
            icp_budget=budget,
            inline_budget=budget,
            **overrides,
        )
        for budget in LADDER
    ]


# -- delta == reference bit-identity -------------------------------------------


@pytest.mark.parametrize(
    "defenses",
    # none keeps jump tables, retpolines disables them: both decision
    # basis axes.
    [DefenseConfig.none(), DefenseConfig.retpolines_only()],
    ids=lambda d: d.label(),
)
def test_delta_ladder_bit_identical_to_cold(
    small_kernel, small_profile, defenses
):
    pipeline = PibePipeline(small_kernel)
    for config in _ladder_configs(defenses, lax_heuristics=True):
        d = _build(pipeline, config, small_profile)
        r = _build(pipeline, config, small_profile, validate=True)
        validate_module(d.module)
        assert module_fingerprint(d.module) == module_fingerprint(r.module)
        assert format_module(d.module) == format_module(r.module)
        assert json.dumps(
            d.reports, default=repr, sort_keys=True
        ) == json.dumps(r.reports, default=repr, sort_keys=True)
    assert pipeline.stats["prefix_delta_builds"] == len(LADDER)
    assert pipeline.stats["prefix_builds"] == len(LADDER)
    assert pipeline.stats["reference_builds"] == len(LADDER)


def test_delta_default_inliner_bit_identical(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    configs = _ladder_configs(
        DefenseConfig.all_defenses(), use_default_inliner=True
    )
    for config in configs:
        d = _build(pipeline, config, small_profile)
        r = _build(pipeline, config, small_profile, validate=True)
        assert module_fingerprint(d.module) == module_fingerprint(r.module)
        assert format_module(d.module) == format_module(r.module)
    assert pipeline.stats["prefix_delta_builds"] == len(LADDER)


def test_delta_strict_heuristics_bit_identical(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    config = PibeConfig.hardened(
        DefenseConfig.all_defenses(), icp_budget=0.99, inline_budget=0.99
    )
    d = _build(pipeline, config, small_profile)
    r = _build(pipeline, config, small_profile, validate=True)
    assert module_fingerprint(d.module) == module_fingerprint(r.module)
    assert format_module(d.module) == format_module(r.module)


def test_ladder_shares_one_decision_basis(small_kernel, small_profile):
    pipeline = PibePipeline(small_kernel)
    for config in _ladder_configs(DefenseConfig.none(), lax_heuristics=True):
        _build(pipeline, config, small_profile)
    assert len(pipeline._basis_memo) == 1
    # the other jump-table axis gets its own basis
    _build(
        pipeline,
        _ladder_configs(DefenseConfig.retpolines_only(), lax_heuristics=True)[
            0
        ],
        small_profile,
    )
    assert len(pipeline._basis_memo) == 2


# -- resident-function accounting (COW sharing) -------------------------------


def test_prefix_cache_info_counts_unique_functions(
    small_kernel, small_profile
):
    pipeline = PibePipeline(small_kernel)
    for config in _ladder_configs(DefenseConfig.none(), lax_heuristics=True):
        _build(pipeline, config, small_profile)
    info = pipeline.prefix_cache_info()
    assert info["entries"] == len(LADDER)
    naive = sum(
        len(entry.module.functions)
        for entry in pipeline._prefix_memo.values()
    )
    unique = len(
        {
            id(func)
            for entry in pipeline._prefix_memo.values()
            for func in entry.module.functions.values()
        }
    )
    assert info["resident_functions"] == unique
    # deltas share every untouched Function across the ladder, so the
    # unique count must sit well below the per-entry sum
    assert info["resident_functions"] < naive


# -- chunked persistence -------------------------------------------------------


def test_ladder_chunks_dedup_on_disk(tmp_path, small_kernel, small_profile):
    cache = DiskCache(tmp_path)
    pipeline = PibePipeline(small_kernel, cache=cache)
    configs = _ladder_configs(
        DefenseConfig.all_defenses(), lax_heuristics=True
    )
    for config in configs:
        _build(pipeline, config, small_profile)
    headers = list((tmp_path / "prefix").glob("*.json"))
    assert len(headers) == len(LADDER)
    group_refs = 0
    for header in headers:
        group_refs += len(json.loads(header.read_text())["groups"])
    chunk_files = len(list((tmp_path / "prefix-chunk").glob("*.json")))
    # content-addressed chunks: untouched windows are shared between
    # ladder entries, so distinct files < total group references
    assert 0 < chunk_files < group_refs


def test_warm_ladder_shares_decoded_chunks(
    tmp_path, small_kernel, small_profile
):
    cache = DiskCache(tmp_path)
    configs = _ladder_configs(
        DefenseConfig.all_defenses(), lax_heuristics=True
    )
    cold = PibePipeline(small_kernel, cache=cache)
    cold_builds = [_build(cold, c, small_profile) for c in configs]

    warm = PibePipeline(small_kernel, cache=cache)
    for config, cold_build in zip(configs, cold_builds):
        warm_build = _build(warm, config, small_profile)
        assert module_fingerprint(warm_build.module) == module_fingerprint(
            cold_build.module
        )
    assert warm.stats["prefix_disk_hits"] == len(LADDER)
    assert warm.stats["prefix_builds"] == 0
    # chunks shared between entries decode once and are served from the
    # in-process memo afterwards
    assert warm.stats["prefix_chunks_reused"] > 0


def test_tampered_chunk_is_quarantined_and_rebuilt(
    tmp_path, small_kernel, small_profile
):
    cache = DiskCache(tmp_path)
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    cold_pipeline = PibePipeline(small_kernel, cache=cache)
    cold = _build(cold_pipeline, config, small_profile)

    chunks = sorted((tmp_path / "prefix-chunk").glob("*.json"))
    victim = chunks[0]
    payload = json.loads(victim.read_text())
    payload["functions"] = payload["functions"][::-1]  # sha now stale
    victim.write_text(json.dumps(payload))

    warm_pipeline = PibePipeline(small_kernel, cache=cache)
    warm = _build(warm_pipeline, config, small_profile)
    assert warm_pipeline.stats["prefix_disk_hits"] == 0
    assert warm_pipeline.stats["prefix_builds"] == 1
    assert warm_pipeline.stats["prefix_decode_failures"] == 1
    assert (
        cache.quarantine_dir() / f"prefix-chunk-{victim.stem}.json"
    ).exists()
    assert module_fingerprint(warm.module) == module_fingerprint(cold.module)


def _owned_and_shared(pipeline):
    """Ids of the prefix-owned functions of every memoized prefix, and
    how many entries share each COW-shared function object."""
    owned = set()
    shared = collections.Counter()
    for entry in pipeline._prefix_memo.values():
        module = entry.module
        for name, func in module.functions.items():
            if module.is_cow_shared(name):
                shared[id(func)] += 1
            else:
                owned.add(id(func))
    return owned, shared


def test_persisted_prefixes_keep_no_owned_function_alive(
    tmp_path, small_kernel, small_profile
):
    pipeline = PibePipeline(small_kernel, cache=DiskCache(tmp_path))
    for config in _ladder_configs(
        DefenseConfig.all_defenses(), lax_heuristics=True
    ):
        _build(pipeline, config, small_profile)  # the BuildResult is dropped
    owned, _ = _owned_and_shared(pipeline)
    assert owned
    pipeline._prefix_memo.clear()
    gc.collect()
    # Function has __slots__ and no __weakref__: find survivors by id.
    # Nothing allocates a Function between the clear and this scan, so
    # a match is a survivor, not a recycled id.
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, Function) and id(obj) in owned
    ]
    assert alive == []


def test_shared_functions_serialize_once(
    tmp_path, small_kernel, small_profile, monkeypatch
):
    calls = collections.Counter()
    to_dict = serialize._function_to_dict

    def counting(func):
        calls[id(func)] += 1
        return to_dict(func)

    monkeypatch.setattr(serialize, "_function_to_dict", counting)
    pipeline = PibePipeline(small_kernel, cache=DiskCache(tmp_path))
    for config in _ladder_configs(
        DefenseConfig.all_defenses(), lax_heuristics=True
    ):
        _build(pipeline, config, small_profile)
    owned, shared = _owned_and_shared(pipeline)
    # The ladder's entries share function objects, so an unmemoized
    # persist would serialize them more than once.
    assert max(shared.values()) == len(LADDER)
    assert all(calls[key] == 1 for key in owned)
    assert all(calls[key] <= 1 for key in shared)
    assert set(calls) <= owned | set(shared)


def test_builds_never_write_shared_instructions(small_kernel, small_profile):
    """Inline splices add the callee's immutable instructions to the
    caller by reference, so prefix-owned functions hold objects of the
    baseline and of the decision bases. No build step may write one:
    after every stock defense set over a budget ladder, a custom defense
    stamp, the default inliner, an unoptimized config and the reference
    build, those modules fingerprint as before."""
    pipeline = PibePipeline(small_kernel)
    for allow_jump_tables in (True, False):
        pipeline._decision_basis(small_profile, allow_jump_tables)
    sources = [small_kernel] + [
        basis.module for basis in pipeline._basis_memo.values()
    ]
    before = [module_fingerprint(m) for m in sources]

    for make_defenses in DEFENSE_NAMES.values():
        for config in _ladder_configs(make_defenses(), lax_heuristics=True):
            _build(pipeline, config, small_profile)
    fwd = CustomDefense(name="ladder_fwd", kind="forward", cycles=30.0)
    bwd = CustomDefense(name="ladder_ret", kind="backward", cycles=20.0)
    try:
        for config in _ladder_configs(DefenseConfig.none()):
            variant = _build(pipeline, config, small_profile).module
            CustomHardeningPass(forward=fwd, backward=bwd).run(variant)
    finally:
        clear_registry()
    for config in _ladder_configs(
        DefenseConfig.all_defenses(), use_default_inliner=True
    ):
        _build(pipeline, config, small_profile)
    _build(pipeline, PibeConfig.hardened(DefenseConfig.all_defenses()), None)
    _build(
        pipeline,
        PibeConfig.lax(DefenseConfig.all_defenses()),
        small_profile,
        validate=True,
    )

    assert len(pipeline._basis_memo) == 2
    assert [module_fingerprint(m) for m in sources] == before


def test_second_stamp_never_writes_shared_instructions(
    small_kernel, small_profile
):
    """A stamp leaves skeletons whose blocks still belong to the prefix,
    a decision basis or the baseline. A custom stamp on such a variant
    (its first stamp tagged branches) must copy what it tags too: every
    source and prefix fingerprints as before, and a variant built
    afterwards carries none of the second stamp's tags."""
    pipeline = PibePipeline(small_kernel)
    variants = [
        _build(pipeline, config, small_profile).module
        for config in _ladder_configs(
            DefenseConfig.all_defenses(), lax_heuristics=True
        )
    ]
    unoptimized = PibeConfig.hardened(DefenseConfig.retpolines_only())
    variants.append(_build(pipeline, unoptimized, None).module)
    sources = (
        [small_kernel]
        + [basis.module for basis in pipeline._basis_memo.values()]
        + [entry.module for entry in pipeline._prefix_memo.values()]
    )
    before = [module_fingerprint(m) for m in sources]

    fwd = CustomDefense(name="restamp_fwd", kind="forward", cycles=30.0)
    bwd = CustomDefense(name="restamp_ret", kind="backward", cycles=20.0)
    try:
        for variant in variants:
            report = CustomHardeningPass(forward=fwd, backward=bwd).run(
                variant
            )
            assert report.sites_by_defense["restamp_ret"] > 0
    finally:
        clear_registry()

    assert [module_fingerprint(m) for m in sources] == before
    fresh = _build(
        pipeline, PibeConfig.hardened(DefenseConfig.none()), None
    ).module
    assert not any(
        inst.defense in ("restamp_fwd", "restamp_ret")
        for inst in fresh.instructions()
    )


# -- prefix state + prewarming -------------------------------------------------


def test_prefix_state_transitions(tmp_path, small_kernel, small_profile):
    cache = DiskCache(tmp_path)
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    pipeline = PibePipeline(small_kernel, cache=cache)
    assert pipeline.prefix_state(config, small_profile) == "cold"
    pipeline.warm_prefix(config, small_profile)
    assert pipeline.prefix_state(config, small_profile) == "memory"
    fresh = PibePipeline(small_kernel, cache=cache)
    assert fresh.prefix_state(config, small_profile) == "disk"
    # unoptimized configs have no prefix work to warm
    no_opt = PibeConfig.hardened(DefenseConfig.retpolines_only())
    pipeline.warm_prefix(no_opt, None)
    assert pipeline.stats["prefix_builds"] == 1


def test_prewarm_prefixes_hands_over_via_disk(tmp_path):
    settings = EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.05,
        jobs=2,
        cache_dir=str(tmp_path / "cache"),
    )
    configs = [PibeConfig.lto_baseline()] + _ladder_configs(
        DefenseConfig.retpolines_only(), lax_heuristics=True
    )
    with EvalContext(settings) as ctx:
        warmed = ctx.prewarm_prefixes(configs, "lmbench")
        assert warmed == len(LADDER)
        profile = ctx.profile("lmbench")
        for config in configs[1:]:
            assert ctx.pipeline.prefix_state(config, profile) == "disk"
        # everything warm: a second prewarm dispatches nothing
        assert ctx.prewarm_prefixes(configs, "lmbench") == 0
        build = ctx.variant(configs[1], "lmbench")
        validate_module(build.module)
        assert ctx.pipeline.stats["prefix_disk_hits"] == 1
        assert ctx.pipeline.stats["prefix_builds"] == 0


def test_prewarm_noop_without_cache_or_jobs(small_kernel):
    configs = _ladder_configs(
        DefenseConfig.retpolines_only(), lax_heuristics=True
    )
    for jobs in (1, 4):  # jobs=4 still has no cache to hand prefixes back
        settings = EvalSettings(spec=SmallSpec(), jobs=jobs)
        with EvalContext(settings, kernel=small_kernel) as ctx:
            assert ctx.prewarm_prefixes(configs, "lmbench") == 0
