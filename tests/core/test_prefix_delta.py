"""Delta prefix engine: budget ladders derived from a shared decision
basis must be bit-identical to the ``validate=True`` reference build
(every pass through the pass manager from a fresh baseline clone), a
persisted decision trace must replay to the writer's module in any
process, sharing the reader's basis, corrupt traces must be quarantined
and rebuilt, persisting must keep no prefix-owned function alive, and
the prewarm path must hand prefixes over through the disk cache."""

import collections
import contextlib
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import (
    PibePipeline,
    build_id_scope,
    deterministic_build_ids,
    trace_sha,
)
from repro.evaluation.cache import DiskCache
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import DEFENSE_NAMES, DefenseConfig
from repro.ir import clone, instruction
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.printer import format_module
from repro.ir.validate import validate_module
from repro.ir.types import Opcode
from repro.kernel.spec import SmallSpec

SRC = Path(__file__).resolve().parents[2] / "src"

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


# -- trace persistence ---------------------------------------------------------


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize(
    "starts, after",
    [((10, 5), (1000, 200)), ((5000, 700), (5003, 703))],
    ids=["below", "above"],
)
def test_build_id_scope_mints_from_starts(monkeypatch, starts, after, raises):
    monkeypatch.setattr(instruction, "_max_issued", 1000)
    monkeypatch.setattr(clone, "_inline_serial", 200)
    with build_id_scope() as current:
        assert current == (1000, 200)
    with contextlib.suppress(RuntimeError):
        with build_id_scope(starts) as used:
            assert used == starts
            sites = [
                Instruction(Opcode.CALL, callee="f").site_id for _ in range(3)
            ]
            serials = [clone._next_inline_serial() for _ in range(3)]
            assert sites == [starts[0] + i for i in (1, 2, 3)]
            assert serials == [starts[1] + i for i in (1, 2, 3)]
            if raises:
                raise RuntimeError("build failed")
    # each allocator stands at max(before, after the block's mints)
    assert (instruction._max_issued, clone._inline_serial) == after


def test_warm_ladder_replays_on_shared_basis(
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
        assert json.dumps(
            warm_build.reports, default=repr, sort_keys=True
        ) == json.dumps(cold_build.reports, default=repr, sort_keys=True)
    assert warm.stats["prefix_disk_hits"] == len(LADDER)
    assert warm.stats["prefix_builds"] == 0
    assert warm.stats["prefix_delta_builds"] == 0
    # A replay is a delta off the reader's own basis: every untouched
    # function is the basis's object, shared by the whole ladder.
    (basis,) = warm._basis_memo.values()
    basis_ids = {id(func) for func in basis.module.functions.values()}
    basis_ids.update(
        id(shared)
        for shared, _ in basis._simplified.values()
        if shared is not None
    )
    _, shared = _owned_and_shared(warm)
    assert set(shared) <= basis_ids
    assert max(shared.values()) == len(LADDER)
    assert all(entry.source == "disk" for entry in warm._prefix_memo.values())


def _resealed(payload):
    payload["sha"] = trace_sha(payload["trace"])
    return payload


def _missing_field(payload):
    del payload["trace"]["icp"]
    return _resealed(payload)


def _wrong_type(payload):
    decision = payload["trace"]["icp"][4][0]
    decision[0] = str(decision[0])  # a site id as a string
    return _resealed(payload)


def _wrong_report_type(payload):
    report = payload["trace"]["inline"][1]["data"]
    report["inlined_sites"] = str(report["inlined_sites"])
    return _resealed(payload)


@pytest.mark.parametrize(
    "tamper",
    [_missing_field, _wrong_type, _wrong_report_type],
    ids=["missing-field", "wrong-type", "wrong-report-type"],
)
def test_corrupt_trace_is_quarantined_and_rebuilt(
    tmp_path, small_kernel, small_profile, tamper
):
    """A trace resealed after an edit passes its sha, so decoding must
    still catch what the replay cannot take. (A stale sha is
    ``test_tampered_prefix_payload_is_rebuilt``.)"""
    cache = DiskCache(tmp_path)
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    cold_pipeline = PibePipeline(small_kernel, cache=cache)
    cold = _build(cold_pipeline, config, small_profile)

    (entry,) = (tmp_path / "prefix").glob("*.json")
    written = entry.read_text()
    entry.write_text(json.dumps(tamper(json.loads(written))))

    warm_pipeline = PibePipeline(small_kernel, cache=cache)
    warm = _build(warm_pipeline, config, small_profile)
    assert warm_pipeline.stats["prefix_disk_hits"] == 0
    assert warm_pipeline.stats["prefix_builds"] == 1
    assert warm_pipeline.stats["prefix_decode_failures"] == 1
    assert (cache.quarantine_dir() / f"prefix-{entry.stem}.json").exists()
    assert module_fingerprint(warm.module) == module_fingerprint(cold.module)
    # the slot holds the rebuild's trace, the one first written
    assert entry.read_text() == written


#: Writes (``writer``) or reads (``reader``) the prefixes of a budget
#: ladder, the lax and default-inliner keys and two unoptimized keys, and
#: prints every variant's fingerprint with the pipeline's counters. The
#: reader first makes one uncached build, which moves both id
#: allocators, reads the variants in reverse order, and then builds the
#: first one again without a cache (the control: its ids differ).
_REPLAY_SCRIPT = """
import json, sys
from pathlib import Path
from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.evaluation.cache import DiskCache
from repro.hardening.defenses import DefenseConfig
from repro.ir.fingerprint import module_fingerprint
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import lmbench_workload

cache_dir, role = sys.argv[1:]
kernel = build_kernel(SmallSpec())
profile = PibePipeline(kernel).profile(
    lmbench_workload(ops_scale=0.02), iterations=1
)
all_defenses = DefenseConfig.all_defenses()
configs = [
    PibeConfig(defenses=all_defenses, icp_budget=budget,
               inline_budget=budget, lax_heuristics=True)
    for budget in (0.5, 0.9, 0.999999)
] + [
    PibeConfig.lax(DefenseConfig.none()),
    PibeConfig.lax(DefenseConfig.ret_retpolines_only()),
    PibeConfig.lax(DefenseConfig.retpolines_only()),
    PibeConfig(defenses=all_defenses, icp_budget=0.99, inline_budget=0.99,
               use_default_inliner=True),
    PibeConfig.lto_baseline(),
    PibeConfig.hardened(all_defenses),
]
order = list(range(len(configs)))
if role == "reader":
    PibePipeline(kernel).build_variant(configs[0], profile)
    order.reverse()
pipeline = PibePipeline(kernel, cache=DiskCache(Path(cache_dir)))
fingerprints = [None] * len(configs)
for i in order:
    build = pipeline.build_variant(configs[i], profile)
    fingerprints[i] = module_fingerprint(build.module)
control = None
if role == "reader":
    control = module_fingerprint(
        PibePipeline(kernel).build_variant(configs[0], profile).module
    )
print(json.dumps({"fingerprints": fingerprints, "stats": pipeline.stats,
                  "control": control}))
"""


def test_trace_replays_across_processes(tmp_path):
    """A trace records where its build's ids started, so a fresh
    interpreter with another build history replays the writer's exact
    modules: every prefix is a disk hit and none is planned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )

    def run(role):
        out = subprocess.run(
            [sys.executable, "-c", _REPLAY_SCRIPT, str(tmp_path), role],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        ).stdout
        return json.loads(out)

    writer = run("writer")
    reader = run("reader")
    built = writer["stats"]["prefix_builds"]
    # ten variants, seven prefixes: lax retpolines is the ladder's top
    # rung, and lax none and lax ret-retpolines share one key
    assert built == len(list((tmp_path / "prefix").glob("*.json"))) == 7
    assert reader["fingerprints"] == writer["fingerprints"]
    assert reader["stats"]["prefix_disk_hits"] == built
    assert reader["stats"]["prefix_delta_builds"] == 0
    assert reader["stats"]["prefix_builds"] == 0
    assert reader["stats"]["prefix_decode_failures"] == 0
    assert reader["control"] != writer["fingerprints"][0]


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
