"""The PIBE two-phase driver (paper Section 4).

Phase 1 (:meth:`PibePipeline.profile`): run a representative workload on a
profiling build and collect edge execution counts.

Phase 2 (:meth:`PibePipeline.build_variant`): on a fresh copy of the
linked module, lift the profile onto the IR, eliminate the hottest
indirect branches (ICP, then the security-driven inliner), clean up, and
harden every remaining indirect branch with the requested defenses.

Phase 2 is *staged*: everything up to hardening — lowering, profile
lifting, ICP, inlining, CFG cleanup, DCE — depends only on the baseline,
the profile, and the optimization facets of the config (budgets,
thresholds, jump-table legality), not on which defenses get stamped on
top. That shared **optimized prefix** is built once per distinct
:class:`PrefixKey`, memoized in memory and (when the pipeline has a
:class:`~repro.evaluation.cache.DiskCache`) persisted to disk via the
exact IR codec, and every variant at the same budget is produced by
stamping the hardening pass onto a copy-on-write clone of the cached
prefix. A defense sweep at one budget runs ICP + inlining once instead
of once per defense combination.

Every prefix is built **incrementally** (paper Section 4's "one profile,
many budgets" workflow) as a copy-on-write delta of a shared *decision
basis*: the lifted + switch-lowered module for optimized keys, the
baseline itself for unoptimized ones. ICP and the inliners split into a
decision phase — ranked against the profile and budget over a
:class:`~repro.passes.decisions.VirtualSpace`, no IR mutation — and an
apply phase that replays the decisions onto the clone. Only functions
the decisions touch are materialized; everything else is shared with the
basis (and hence with every neighboring budget's prefix), and
per-function SimplifyCFG results, call-graph edges and validation are
cached on the basis. The replay mints global ids in the exact order the
reference pass run would, so prefixes are bit-identical to
``build_variant(validate=True)``, which runs every pass through the
:class:`~repro.passes.manager.PassManager` from a fresh baseline clone
(pinned by the differential, property and golden-fingerprint tests). On
disk, prefixes persist as a header plus content-addressed function-group
chunks, so warm loads decode each shared group once per process no
matter how many budget entries reference it.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import PibeConfig
from repro.hardening.harden import HardenReport, HardeningPass
from repro.ir.clone import (
    clone_function_exact,
    clone_module,
    inline_serial_checkpoint,
)
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.instruction import reserve_site_ids, site_id_checkpoint
from repro.ir.module import Module
from repro.ir.serialize import (
    functions_from_chunk,
    functions_to_chunk,
    module_from_header,
    module_header_to_dict,
)
from repro.ir.validate import (
    ValidationError,
    validate_function,
    validate_module,
)
from repro.passes.decisions import (
    FunctionSeed,
    VirtualSpace,
    seed_function,
)
from repro.passes.default_inliner import DefaultInliner, DefaultInlineReport
from repro.passes.icp import ICPReport, IndirectCallPromotion, PromotionRecord
from repro.passes.inliner import InlineReport, PibeInliner
from repro.passes.jumptables import LowerSwitches, SwitchLoweringReport
from repro.passes.lto import (
    DCEReport,
    DeadFunctionElimination,
    SimplifyCFG,
    SimplifyCFGReport,
    mergeable_pairs,
)
from repro.passes.manager import ModulePass, PassManager
from repro.engine.compiled import DEFAULT_ENGINE
from repro.profiling.lifting import lift_profile
from repro.profiling.profile_data import EdgeProfile
from repro.workloads.base import Workload, profile_workload

#: Bump to invalidate persisted prefix entries when pass behaviour changes.
#: v2: chunked header + content-addressed function-group layout.
PREFIX_CACHE_VERSION = "prefix-v2"

#: Functions per persisted prefix chunk. Windows are carved over the
#: *sorted baseline* namespace so adjacent budgets emit identical chunks
#: for every window no decision touched (content-addressed dedup).
PREFIX_CHUNK_SIZE = 64


def _function_call_targets(func: Function) -> Tuple[str, ...]:
    """The function's outgoing call-graph targets: direct callees plus
    every indirect site's ground-truth target set — exactly the edges
    :class:`~repro.ir.callgraph.CallGraph` derives for it."""
    from repro.ir.types import ATTR_TARGETS, Opcode

    targets: List[str] = []
    for inst in func.call_sites():
        if inst.opcode == Opcode.CALL:
            if inst.callee is not None:
                targets.append(inst.callee)
        else:
            targets.extend(inst.attrs.get(ATTR_TARGETS, ()))
    return tuple(targets)


def _module_dict_sha(module_dict: Dict[str, Any]) -> str:
    """Content hash of a serialized module dict.

    Computed over the plain ``json.dumps`` text (no ``sort_keys`` — see
    :mod:`repro.ir.serialize` on order sensitivity), which round-trips
    byte-identically through ``json.load``, so the hash taken before
    :meth:`DiskCache.put` and the one recomputed on the loaded payload
    agree exactly when the entry is intact.
    """
    text = json.dumps(module_dict)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def deterministic_build_ids():
    """Snapshot/restore every global id the build engine mints (call-site
    ids, inline label serials) around a block.

    Two builds wrapped in separate ``deterministic_build_ids()`` blocks
    allocate identical ids, making their output directly comparable —
    the backbone of the fast-vs-reference differential tests and the
    golden build fingerprints. The caveat of
    :func:`repro.ir.instruction.site_id_checkpoint` applies: modules from
    different checkpoints reuse ids, so never mix them under one profile.
    """
    with site_id_checkpoint(), inline_serial_checkpoint():
        yield


@dataclass
class BuildResult:
    """A built kernel variant plus per-pass reports."""

    config: PibeConfig
    module: Module
    reports: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.config.label()


@dataclass(frozen=True)
class PrefixKey:
    """The optimization facets of a :class:`PibeConfig` — everything the
    optimized prefix depends on, and nothing it doesn't.

    Two configs with equal keys (and the same profile) share one prefix;
    notably the defense *selection* is absent — only its side effect on
    jump-table legality participates, because ``LowerSwitches`` runs
    inside the prefix.
    """

    allow_jump_tables: bool
    icp_budget: Optional[float]
    inline_budget: Optional[float]
    lax_heuristics: bool
    caller_threshold: int
    callee_threshold: int
    use_default_inliner: bool
    run_dce: bool

    @classmethod
    def from_config(cls, config: PibeConfig) -> "PrefixKey":
        optimized = config.optimized
        return cls(
            allow_jump_tables=not config.defenses.disables_jump_tables,
            icp_budget=config.icp_budget if optimized else None,
            inline_budget=config.inline_budget if optimized else None,
            lax_heuristics=config.lax_heuristics if optimized else False,
            caller_threshold=config.caller_threshold,
            callee_threshold=config.callee_threshold,
            use_default_inliner=(
                config.use_default_inliner if optimized else False
            ),
            run_dce=config.run_dce,
        )


@dataclass
class PrefixEntry:
    """One cached optimized prefix.

    ``module`` is treated as immutable once cached: variants are stamped
    on copy-on-write clones of it, never on the entry itself. It is
    validated once, when built (or, for disk entries, implied by the
    fingerprint matching a validated build) — stamped variants skip
    re-validation because hardening only annotates instructions.
    """

    module: Module
    reports: Dict[str, Any]
    #: provenance of this entry: "built" | "memory" | "disk"
    source: str = "built"
    #: site-sensitive fingerprint, computed lazily (only persistence and
    #: disk-load verification need it)
    _fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = module_fingerprint(
                self.module, include_sites=True
            )
        return self._fingerprint


class _DecisionBasis:
    """Shared state for delta builds of one basis module.

    For optimized prefixes that module is the per-(profile, jump-table
    legality) lifted + switch-lowered copy-on-write clone of the baseline
    that every budget's decision/apply run clones from; unoptimized
    prefixes use the baseline itself (``lower_report`` is ``None``: they
    lower switches on their own clone). The basis caches everything that
    depends only on its module: the lowering report, ICP's candidate
    list, the pre-ICP static ICALL census, per-function decision seeds,
    per-function SimplifyCFG results and call-graph edges for functions
    no decision touched, and the names whose (shared) bodies already
    passed validation. The module is immutable after construction —
    deltas only ever read it or COW-clone it.
    """

    def __init__(self, module: Module, lower_report: Any) -> None:
        self.module = module
        self.lower_report = lower_report
        self.validated: set = set()
        self._candidates: Optional[List[Tuple[int, int, str, str]]] = None
        self._icalls_before: Optional[int] = None
        self._seeds: Dict[str, FunctionSeed] = {}
        self._simplified: Dict[str, Tuple[Optional[Function], int]] = {}
        self._call_targets: Dict[str, Tuple[str, ...]] = {}

    def icp_candidates(
        self, icp: IndirectCallPromotion
    ) -> List[Tuple[int, int, str, str]]:
        if self._candidates is None:
            self._candidates = icp._gather_candidates(self.module)
        return self._candidates

    def icalls_before(self) -> int:
        if self._icalls_before is None:
            self._icalls_before = sum(
                1 for _ in self.module.indirect_call_sites()
            )
        return self._icalls_before

    def seed(self, name: str) -> FunctionSeed:
        seed = self._seeds.get(name)
        if seed is None:
            seed = seed_function(self.module.functions[name])
            self._seeds[name] = seed
        return seed

    def simplified(self, name: str) -> Tuple[Optional[Function], int]:
        """SimplifyCFG's result for an untouched function: ``(None, 0)``
        when it has nothing to merge, else a shared simplified clone plus
        its merge count (computed once, reused by every delta)."""
        cached = self._simplified.get(name)
        if cached is None:
            func = self.module.functions[name]
            if mergeable_pairs(func):
                clone = clone_function_exact(func)
                cached = (clone, SimplifyCFG()._simplify(clone))
            else:
                cached = (None, 0)
            self._simplified[name] = cached
        return cached

    def call_targets(self, name: str) -> Tuple[str, ...]:
        """Outgoing call-graph targets of an untouched function, scanned
        once on the basis body and reused by every delta's DCE: shared
        functions are never rewritten by ICP or inlining, and SimplifyCFG
        block merges never add or drop call instructions, so the basis
        edges stay exact for every budget's shared copy."""
        cached = self._call_targets.get(name)
        if cached is None:
            cached = _function_call_targets(self.module.functions[name])
            self._call_targets[name] = cached
        return cached


# -- pass-report (de)serialization ------------------------------------------------
#
# Prefix entries persist their pass reports next to the module so a
# disk-warm build returns the same BuildResult.reports a cold one does.
# Reports are flat dataclasses; the one nested structure (ICP's promotion
# records) is rebuilt explicitly.

_REPORT_CLASSES = {
    cls.__name__: cls
    for cls in (
        SwitchLoweringReport,
        ICPReport,
        InlineReport,
        DefaultInlineReport,
        SimplifyCFGReport,
        DCEReport,
        HardenReport,
    )
}


def encode_report(report: Any) -> Dict[str, Any]:
    """Render one pass report as JSON-encodable data."""
    cls_name = type(report).__name__
    if cls_name not in _REPORT_CLASSES:
        raise TypeError(f"unknown report type {cls_name}")
    return {"__report__": cls_name, "data": dataclasses.asdict(report)}


def decode_report(payload: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_report`."""
    cls = _REPORT_CLASSES[payload["__report__"]]
    data = dict(payload["data"])
    if cls is ICPReport:
        data["records"] = [
            PromotionRecord(
                site_id=r["site_id"],
                caller=r["caller"],
                targets=tuple(r["targets"]),
                promoted_weight=r["promoted_weight"],
                site_weight=r["site_weight"],
            )
            for r in data.get("records", ())
        ]
    return cls(**data)


class PibePipeline:
    """Profile-then-optimize driver over a linked baseline module.

    The baseline module is never mutated: every variant is built on a deep
    copy, so one profile feeds arbitrarily many configurations (the
    evaluation sweeps budgets and defense combinations from a single
    profiling run, like the paper's workflow scripts).

    Parameters
    ----------
    baseline:
        The linked module every variant starts from. Must stay immutable
        for the pipeline's lifetime (copy-on-write clones share its
        functions).
    cache:
        Optional :class:`~repro.evaluation.cache.DiskCache`; when given,
        optimized prefixes persist under the ``"prefix"`` kind (header)
        and ``"prefix-chunk"`` kind (content-addressed function groups)
        so other processes (parallel evaluation workers, later runs)
        skip the ICP + inlining work entirely.
    """

    def __init__(
        self,
        baseline: Module,
        cache: Optional[Any] = None,
    ) -> None:
        validate_module(baseline)
        self.baseline = baseline
        self.cache = cache
        self._baseline_fp: Optional[str] = None
        self._prefix_memo: Dict[Any, PrefixEntry] = {}
        self._basis_memo: Dict[Tuple[str, bool], _DecisionBasis] = {}
        #: basis of unoptimized prefixes, for both jump-table settings:
        #: they lower switches on their own clone, so the functions
        #: lowering rewrites are prefix-owned and persist outside the
        #: shared baseline-name chunk windows.
        self._baseline_basis = _DecisionBasis(baseline, None)
        #: decoded prefix chunks by content sha — shared across entries so
        #: a warm budget ladder decodes each untouched group once.
        self._chunk_memo: Dict[str, Tuple[Dict[str, Function], int]] = {}
        #: serialized-chunk shas keyed by the window's function-object
        #: identities — a delta ladder shares its untouched windows as
        #: the very same objects, so each serializes once per process.
        #: The value pins the objects so a recycled id can never alias.
        self._chunk_sha_memo: Dict[
            Tuple[Tuple[str, ...], Tuple[int, ...]],
            Tuple[str, List[Function]],
        ] = {}
        #: per-function serialized dicts by object identity, shared
        #: across chunk groupings (two budgets that carve the same
        #: function into different windows still serialize it once);
        #: ``_serialized_pins`` keeps every memoized object alive so a
        #: recycled id can never alias.
        self._func_dict_memo: Dict[int, Dict[str, Any]] = {}
        self._serialized_pins: Dict[int, Function] = {}
        self._baseline_windows_memo: Optional[List[List[str]]] = None
        #: build-engine counters (surfaced by benchmarks and ``repro
        #: cache stats``)
        self.stats: Dict[str, int] = {
            "staged_builds": 0,
            "reference_builds": 0,
            "prefix_builds": 0,
            "prefix_delta_builds": 0,
            "prefix_memory_hits": 0,
            "prefix_disk_hits": 0,
            "prefix_decode_failures": 0,
            "prefix_chunks_decoded": 0,
            "prefix_chunks_reused": 0,
        }

    def _baseline_fingerprint(self) -> str:
        if self._baseline_fp is None:
            self._baseline_fp = module_fingerprint(
                self.baseline, include_sites=True
            )
        return self._baseline_fp

    def prefix_cache_info(self) -> Dict[str, Any]:
        """Snapshot of the in-memory prefix cache for stats surfaces.

        Deterministically ordered (sorted keys throughout) so the serve
        ``stats`` endpoint and its tests can compare rendered JSON.
        """
        by_source: Dict[str, int] = {}
        # Delta prefixes (and chunk-sharing disk loads) share most
        # Function objects across entries; count unique objects, not
        # per-entry sums, so the figure reflects actual residency.
        unique_functions: set = set()
        for entry in self._prefix_memo.values():
            by_source[entry.source] = by_source.get(entry.source, 0) + 1
            unique_functions.update(
                id(func) for func in entry.module.functions.values()
            )
        return {
            "entries": len(self._prefix_memo),
            "by_source": {k: by_source[k] for k in sorted(by_source)},
            "resident_functions": len(unique_functions),
            "counters": {k: self.stats[k] for k in sorted(self.stats)},
        }

    # -- phase 1: profiling -----------------------------------------------------

    def profile(
        self,
        workload: Workload,
        iterations: int = 11,
        ops_scale: float = 1.0,
        seed: int = 3,
        engine: str = DEFAULT_ENGINE,
    ) -> EdgeProfile:
        """Run the profiling build and return merged edge counts.

        Profiling never mutates IR, so the profiling build is a
        copy-on-write clone; the engine programs compiled for it are
        keyed to the clone and go with it.
        """
        profiling_build = clone_module(self.baseline, cow=True)
        return profile_workload(
            profiling_build,
            workload,
            iterations=iterations,
            seed=seed,
            ops_scale=ops_scale,
            engine=engine,
        )

    # -- phase 2: optimization + hardening ----------------------------------------

    def build_variant(
        self,
        config: PibeConfig,
        profile: Optional[EdgeProfile] = None,
        validate: bool = False,
        verify_each: bool = False,
    ) -> BuildResult:
        """Produce one kernel variant.

        ``profile`` is required whenever the config enables ICP or
        inlining. By default the hardening pass is stamped onto the
        shared optimized prefix (one ICP + inlining run per budget
        instead of per variant). ``validate`` takes the reference path
        instead: every pass runs through the :class:`PassManager` on a
        fresh baseline clone and the module is re-verified after each
        (slower; on for tests, off for benchmark sweeps). ``verify_each``
        also takes the reference path and additionally runs the full
        static-analysis rule set at every pass boundary, raising on
        error-severity findings. Both paths produce bit-identical output.
        """
        if config.optimized and profile is None:
            raise ValueError(
                f"config {config.label()!r} needs a profile for its "
                "optimization budgets"
            )
        if not (validate or verify_each):
            return self._build_staged(config, profile)
        self.stats["reference_builds"] += 1
        module = clone_module(self.baseline)

        passes: List[ModulePass] = [
            LowerSwitches(
                allow_jump_tables=not config.defenses.disables_jump_tables
            )
        ]
        if profile is not None and config.optimized:
            lift_profile(module, profile)
            if config.icp_budget is not None:
                passes.append(IndirectCallPromotion(budget=config.icp_budget))
            if config.inline_budget is not None:
                if config.use_default_inliner:
                    passes.append(DefaultInliner(profile=profile))
                else:
                    passes.append(
                        PibeInliner(
                            profile,
                            budget=config.inline_budget,
                            caller_threshold=config.caller_threshold,
                            callee_threshold=config.callee_threshold,
                            lax_heuristics=config.lax_heuristics,
                        )
                    )
            passes.append(SimplifyCFG())
        if config.run_dce:
            passes.append(DeadFunctionElimination())
        passes.append(HardeningPass(config.defenses))

        manager = PassManager(
            validate_after_each=validate,
            verify_each=verify_each,
            verify_profile=profile,
        )
        for pass_ in passes:
            manager.add(pass_)
        reports = manager.run(module)
        if not validate:
            validate_module(module)
        return BuildResult(config=config, module=module, reports=reports)

    # -- staged engine ---------------------------------------------------------

    def _build_staged(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> BuildResult:
        """Stamp ``config``'s defenses onto the shared optimized prefix."""
        self.stats["staged_builds"] += 1
        prefix = self._optimized_prefix(config, profile)
        module = clone_module(prefix.module, cow=True)
        manager = PassManager(validate_after_each=False)
        manager.add(HardeningPass(config.defenses))
        harden_reports = manager.run(module)
        # No per-variant validate_module: the prefix was validated when
        # built, and hardening only sets instruction/module attributes —
        # it cannot change the structure validation checks.
        # Prefix reports are shared by every variant stamped from the
        # entry; hand each BuildResult its own copy so downstream
        # consumers can annotate them freely.
        reports = copy.deepcopy(prefix.reports)
        reports.update(harden_reports)
        return BuildResult(config=config, module=module, reports=reports)

    def _prefix_keys(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> Tuple[Tuple[Optional[str], PrefixKey], Optional[str]]:
        """The memo key of ``config``'s prefix — the digest of the profile
        it is built from (``None`` for an unoptimized config, which never
        reads one) and its :class:`PrefixKey` — and its disk key
        (``None`` without a cache)."""
        # Imported here: repro.evaluation imports this module.
        from repro.evaluation.cache import cache_key

        optimized = profile is not None and config.optimized
        digest = profile.digest() if optimized else None
        memo_key = (digest, PrefixKey.from_config(config))
        if self.cache is None:
            return memo_key, None
        return memo_key, cache_key(
            "prefix", PREFIX_CACHE_VERSION, self._baseline_fingerprint(), *memo_key
        )

    def _optimized_prefix(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> PrefixEntry:
        """The shared pre-hardening module for ``config``'s optimization
        facets: from the in-memory memo, else the disk cache, else built."""
        if not config.optimized:
            profile = None  # unoptimized prefixes never read the profile
        memo_key, disk_key = self._prefix_keys(config, profile)
        entry = self._prefix_memo.get(memo_key)
        if entry is not None:
            self.stats["prefix_memory_hits"] += 1
            return entry

        if disk_key is not None:
            payload = self.cache.get("prefix", disk_key)
            if payload is not None:
                entry = self._prefix_from_payload(payload, disk_key)
                if entry is not None:
                    self.stats["prefix_disk_hits"] += 1
                    self._prefix_memo[memo_key] = entry
                    return entry

        entry = self._build_prefix(profile, memo_key[1])
        self.stats["prefix_builds"] += 1
        self._prefix_memo[memo_key] = entry
        if disk_key is not None:
            self._persist_prefix(disk_key, entry)
        return entry

    def warm_prefix(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> None:
        """Build (or load) and persist the optimized prefix for ``config``
        without stamping a variant — the parallel-prewarm entry point."""
        if not config.optimized:
            return
        self._optimized_prefix(config, profile)

    def prefix_state(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> str:
        """Where ``config``'s prefix currently resides: ``"memory"``,
        ``"disk"`` or ``"cold"`` (prewarm planning; no side effects)."""
        memo_key, disk_key = self._prefix_keys(config, profile)
        if memo_key in self._prefix_memo:
            return "memory"
        if disk_key is not None and self.cache.has("prefix", disk_key):
            return "disk"
        return "cold"

    # -- delta engine ------------------------------------------------------------

    def _decision_basis(
        self, profile: EdgeProfile, allow_jump_tables: bool
    ) -> _DecisionBasis:
        basis_key = (profile.digest(), allow_jump_tables)
        basis = self._basis_memo.get(basis_key)
        if basis is None:
            # Exactly the reference path's pre-decision steps, in its
            # order: COW clone, lift the profile, lower switches. None of
            # them mint global ids, so the basis is allocator-neutral and
            # the replay below stays bit-identical to the reference build.
            module = clone_module(self.baseline, cow=True)
            lift_profile(module, profile)
            lower_report = LowerSwitches(
                allow_jump_tables=allow_jump_tables
            ).run(module)
            basis = _DecisionBasis(module, lower_report)
            self._basis_memo[basis_key] = basis
        return basis

    def _build_prefix(
        self, profile: Optional[EdgeProfile], key: PrefixKey
    ) -> PrefixEntry:
        """Decision/apply build of one prefix from its shared basis,
        transforming only functions the decisions touch.

        The pass sequence (and the reports dict's insertion order) mirrors
        the reference pass run exactly: lower, ICP, inliner, SimplifyCFG,
        DCE — the middle three only for optimized keys (``profile`` set).
        Decisions are planned against seeds / a :class:`VirtualSpace` (no
        IR mutation), then replayed onto a COW clone of the basis in
        decided order, so id minting matches the reference run step for
        step.
        """
        self.stats["prefix_delta_builds"] += 1
        if profile is None:
            basis = self._baseline_basis
            module = clone_module(basis.module, cow=True)
            lower = LowerSwitches(allow_jump_tables=key.allow_jump_tables)
            reports: Dict[str, Any] = {LowerSwitches.name: lower.run(module)}
        else:
            basis = self._decision_basis(profile, key.allow_jump_tables)
            module = clone_module(basis.module, cow=True)
            reports = {LowerSwitches.name: copy.deepcopy(basis.lower_report)}

        # Unoptimized keys carry no budgets: no ICP, no inlining.
        icp_touched: set = set()
        if key.icp_budget is not None:
            icp = IndirectCallPromotion(budget=key.icp_budget)
            icp_plan = icp.plan(
                module, candidates=basis.icp_candidates(icp)
            )
            reports[IndirectCallPromotion.name] = icp.apply_plan(
                module, icp_plan, icalls_before=basis.icalls_before()
            )
            icp_touched = {
                name
                for name in module.functions
                if not module.is_cow_shared(name)
            }

        if key.inline_budget is not None:

            def seed_for(name: str) -> FunctionSeed:
                # ICP rewrote these callers, so their basis seeds are
                # stale; everything else is byte-for-byte basis state.
                if name in icp_touched:
                    return seed_function(module.functions[name])
                return basis.seed(name)

            space = VirtualSpace(list(module.functions), seed_for)
            if key.use_default_inliner:
                default_inliner = DefaultInliner(profile=profile)
                inline_plan = default_inliner.plan(module, space)
                reports[DefaultInliner.name] = default_inliner.apply_plan(
                    module, inline_plan
                )
            else:
                inliner = PibeInliner(
                    profile,
                    budget=key.inline_budget,
                    caller_threshold=key.caller_threshold,
                    callee_threshold=key.callee_threshold,
                    lax_heuristics=key.lax_heuristics,
                )
                inline_plan = inliner.plan(space)
                reports[PibeInliner.name] = inliner.apply_plan(
                    module, inline_plan
                )

        # SimplifyCFG (optimized keys only, like the reference path):
        # touched functions get a direct in-place pass; untouched ones
        # reuse the basis's per-function result (a shared simplified
        # clone, or nothing to merge). Replacing the mapping while leaving
        # the name COW-shared is safe — the shared clone is never
        # mutated, and any later mutable() clones it first.
        if profile is not None:
            simplifier = SimplifyCFG()
            simplify_report = SimplifyCFGReport()
            for name in list(module.functions):
                if module.is_cow_shared(name):
                    shared_clone, merges = basis.simplified(name)
                    if shared_clone is not None:
                        module.functions[name] = shared_clone
                        simplify_report.merged_blocks += merges
                else:
                    simplify_report.merged_blocks += simplifier._simplify(
                        module.functions[name]
                    )
            reports[SimplifyCFG.name] = simplify_report

        if key.run_dce:
            reports[DeadFunctionElimination.name] = self._dce_incremental(
                module, basis
            )

        # Validation: touched functions always; untouched (shared) bodies
        # once per basis — every delta sees the same objects.
        from repro.static.rules.structural import STRUCTURAL

        errors: List[str] = []
        for name, func in module.functions.items():
            if module.is_cow_shared(name):
                if name in basis.validated:
                    continue
                basis.validated.add(name)
            errors.extend(validate_function(func, module))
        errors.extend(
            d.legacy_message() for d in STRUCTURAL.module_diagnostics(module)
        )
        if errors:
            raise ValidationError(errors)
        return PrefixEntry(module=module, reports=reports, source="built")

    def _dce_incremental(
        self, module: Module, basis: _DecisionBasis
    ) -> DCEReport:
        """:class:`DeadFunctionElimination` without the per-build call
        graph: shared functions reuse edge lists cached on the basis, so
        each delta only scans the functions its decisions touched. Same
        roots, same reachability, same removal order — the report and the
        surviving module are bit-identical to the pass.
        """
        from repro.ir.types import FunctionAttr

        report = DCEReport()
        roots: List[str] = list(module.syscalls.values())
        for table in module.fptr_tables.values():
            roots.extend(table.entries)
        for func in module:
            if func.has_attr(FunctionAttr.BOOT_ONLY) or func.has_attr(
                FunctionAttr.SYSCALL_ENTRY
            ):
                roots.append(func.name)
        seen: set = set()
        stack = [r for r in roots if r in module.functions]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            targets = (
                basis.call_targets(name)
                if module.is_cow_shared(name)
                else _function_call_targets(module.functions[name])
            )
            for target in targets:
                if target not in seen and target in module.functions:
                    stack.append(target)
        for name in list(module.functions):
            if name not in seen:
                report.removed_instructions += module.functions[name].size()
                del module.functions[name]
                module._cow_shared.discard(name)
                report.removed_functions += 1
        return report

    # -- chunked prefix persistence ---------------------------------------------

    def _baseline_windows(self) -> List[List[str]]:
        """Sorted-baseline-name windows of :data:`PREFIX_CHUNK_SIZE`.

        Every prefix's functions are a subset of the baseline's, so
        carving groups from this fixed partition makes two budgets' chunks
        identical for every window neither touched.
        """
        if self._baseline_windows_memo is None:
            names = sorted(self.baseline.functions)
            self._baseline_windows_memo = [
                names[i : i + PREFIX_CHUNK_SIZE]
                for i in range(0, len(names), PREFIX_CHUNK_SIZE)
            ]
        return self._baseline_windows_memo

    def _prefix_groups(self, module: Module) -> List[List[str]]:
        shared = {
            name
            for name in module.functions
            if module.is_cow_shared(name)
        }
        groups: List[List[str]] = []
        for window in self._baseline_windows():
            names = [n for n in window if n in shared]
            if names:
                groups.append(names)
        owned = sorted(n for n in module.functions if n not in shared)
        for i in range(0, len(owned), PREFIX_CHUNK_SIZE):
            groups.append(owned[i : i + PREFIX_CHUNK_SIZE])
        return groups

    @staticmethod
    def _chunk_key(sha: str) -> str:
        from repro.evaluation.cache import cache_key

        return cache_key("prefix-chunk", PREFIX_CACHE_VERSION, sha)

    def _persist_prefix(self, disk_key: str, entry: PrefixEntry) -> None:
        """Write ``entry`` as a header plus content-addressed chunks.

        Chunks are keyed by the sha of their serialized payload, so a
        group shared between two budget entries is stored once; ``has``
        skips even the re-serialization for groups already on disk from
        this or any other process.
        """
        try:
            header = module_header_to_dict(entry.module)
            groups: List[Dict[str, Any]] = []
            for names in self._prefix_groups(entry.module):
                funcs = [entry.module.functions[n] for n in names]
                memo_key = (tuple(names), tuple(map(id, funcs)))
                memo = self._chunk_sha_memo.get(memo_key)
                if memo is None:
                    for func in funcs:
                        self._serialized_pins.setdefault(id(func), func)
                    chunk = functions_to_chunk(
                        funcs, dict_memo=self._func_dict_memo
                    )
                    text = json.dumps(chunk)
                    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    chunk_key = self._chunk_key(sha)
                    if not self.cache.has("prefix-chunk", chunk_key):
                        self.cache.put(
                            "prefix-chunk", chunk_key, chunk, text=text
                        )
                    self._chunk_sha_memo[memo_key] = (sha, funcs)
                else:
                    sha = memo[0]
                groups.append({"names": names, "sha": sha})
            self.cache.put(
                "prefix",
                disk_key,
                {
                    "header": header,
                    "groups": groups,
                    # Covers everything the loader trusts structurally;
                    # each chunk's integrity rides on its content address.
                    "payload_sha": _module_dict_sha(
                        {"header": header, "groups": groups}
                    ),
                    "reports": {
                        name: encode_report(report)
                        for name, report in entry.reports.items()
                    },
                },
            )
        except TypeError:
            # Unencodable metadata or report: keep the entry memory-only
            # rather than persisting a lossy payload.
            pass

    def _prefix_from_payload(
        self, payload: Dict[str, Any], disk_key: str
    ) -> Optional[PrefixEntry]:
        """Deserialize a persisted prefix; ``None`` (treated as a miss) on
        any structural problem or content-hash mismatch — the corrupt
        entry is quarantined and counted in ``prefix_decode_failures``.

        Integrity is checked by re-hashing serialized dicts
        (``json.load``/``json.dumps`` round-trip identically for codec
        output) rather than recomputing the module fingerprint of the
        decoded IR — the fingerprint walk costs more than the decode
        itself and would tax every warm load. Chunks decode once per
        process: a budget ladder's entries share both the decoded
        Function objects and the decode work for every common group.
        """
        try:
            header = payload["header"]
            groups = payload["groups"]
            sealed = _module_dict_sha({"header": header, "groups": groups})
            if sealed != payload["payload_sha"]:
                raise ValueError("prefix payload hash mismatch")
            functions: Dict[str, Function] = {}
            max_site = 0
            for group in groups:
                sha = group["sha"]
                cached = self._chunk_memo.get(sha)
                if cached is None:
                    chunk_key = self._chunk_key(sha)
                    chunk = self.cache.get("prefix-chunk", chunk_key)
                    if chunk is None:
                        raise ValueError(
                            f"prefix chunk {sha[:12]} missing"
                        )
                    if _module_dict_sha(chunk) != sha:
                        self.cache.quarantine_entry(
                            "prefix-chunk", chunk_key
                        )
                        raise ValueError(
                            f"prefix chunk {sha[:12]} hash mismatch"
                        )
                    cached = functions_from_chunk(chunk)
                    self._chunk_memo[sha] = cached
                    self.stats["prefix_chunks_decoded"] += 1
                else:
                    self.stats["prefix_chunks_reused"] += 1
                chunk_functions, chunk_max = cached
                for name in group["names"]:
                    functions[name] = chunk_functions[name]
                if chunk_max > max_site:
                    max_site = chunk_max
            module = module_from_header(header, functions)
            reserve_site_ids(max_site)
            reports = {
                name: decode_report(report)
                for name, report in payload["reports"].items()
            }
        except (KeyError, TypeError, ValueError):
            self.stats["prefix_decode_failures"] += 1
            if self.cache is not None:
                self.cache.quarantine_entry("prefix", disk_key)
            return None
        return PrefixEntry(module=module, reports=reports, source="disk")
