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
:class:`~repro.evaluation.cache.DiskCache`) persisted to disk as the
:class:`PrefixTrace` of decisions that built it, and every variant at the
same budget is produced by stamping the hardening pass onto a
copy-on-write clone of the cached prefix. A defense sweep at one budget
runs ICP + inlining once instead of once per defense combination.

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
disk, a prefix is its decisions plus the ids its build started minting
from; a disk hit applies them to the memoized basis through the same
build path, so it rebuilds the writer's module exactly in any process.

Memory is bounded: at most :data:`RESIDENT_PREFIXES` prefixes stay
resident, each owning the variants stamped on it. An evicted prefix is
rebuilt the same way, from its disk trace or, without a cache, from the
encoded trace the pipeline keeps in memory.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.config import PibeConfig
from repro.hardening.harden import HardeningPass
from repro.ir.clone import (
    clone_function_exact,
    clone_module,
    inline_serial_checkpoint,
    inline_serial_scope,
)
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.instruction import site_id_checkpoint, site_id_scope
from repro.ir.module import Module
from repro.ir.validate import (
    ValidationError,
    validate_function,
    validate_module,
)
from repro.passes.decisions import (
    FunctionSeed,
    InlinePlan,
    InlineStep,
    VirtualSpace,
    seed_function,
)
from repro.passes.default_inliner import DefaultInliner, DefaultInlineReport
from repro.passes.icp import ICPPlan, IndirectCallPromotion, PromotionDecision
from repro.passes.inliner import InlineReport, PibeInliner
from repro.passes.jumptables import LowerSwitches
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
#: v3: the decision trace (:class:`PrefixTrace`), replayed on the basis.
PREFIX_CACHE_VERSION = "prefix-v3"

#: Prefix entries a pipeline keeps in memory. Past it the least recently
#: used entry is evicted, with the variants stamped on it, and a later
#: request replays its trace. Every in-tree batch run fits: 17 prefixes in
#: ``full_evaluation.py``, 13 and 25 per replica in the fast and default
#: sweep grids. A server that keeps meeting fresh budgets evicts.
RESIDENT_PREFIXES = 32


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


@contextlib.contextmanager
def build_id_scope(
    starts: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple[int, int]]:
    """Mint a block's call-site ids and inline label serials from
    ``starts`` (``None``: where both allocators stand) and yield the
    starts used; on exit each allocator stands at the larger of its
    value before and after the block.

    A prefix build records the starts it ran from in its
    :class:`PrefixTrace`, and a replay runs from them, so both mint the
    same ids: allocation is a pure function of the start. Both values
    are needed: the inline plan names call sites that ICP minted.
    """
    site_start, serial_start = starts if starts is not None else (None, None)
    with site_id_scope(site_start) as site, inline_serial_scope(
        serial_start
    ) as serial:
        yield site, serial


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
    """One cached optimized prefix and the variants stamped on it.

    ``module`` is treated as immutable once cached: variants are stamped
    on copy-on-write clones of it, never on the entry itself. It is
    validated once, when built or replayed from its trace (both run the
    same build path) — stamped variants skip re-validation because
    hardening only annotates instructions. ``variants`` holds the builds
    :meth:`PibePipeline.variant` memoizes, by config: the entry owns
    them, so they leave memory with it.
    """

    module: Module
    reports: Dict[str, Any]
    #: provenance of this entry: "built", or replayed from its trace on
    #: "disk" or in "memory" (an evicted prefix of a cache-less pipeline)
    source: str = "built"
    variants: Dict[PibeConfig, BuildResult] = field(default_factory=dict)


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
        its merge count (computed once, reused by every delta). Block
        merges write no instruction, so the clone shares the basis
        body's immutable instructions, as a delta's own copy would."""
        cached = self._simplified.get(name)
        if cached is None:
            func = self.module.functions[name]
            if mergeable_pairs(func):
                clone = clone_function_exact(func, cow=True)
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


# -- the decision trace ----------------------------------------------------------
#
# A persisted prefix is the trace of the build that made it: the two
# plans, as positional rows (``dataclasses.asdict`` deep-copies every
# step and encodes far slower), and the inliner's report. Every other
# report comes out of the replay. The sha covers the whole trace; a
# decoded trace is type-checked field by field, so what reaches the
# replay is what a build recorded.


@dataclass
class PrefixTrace:
    """What one prefix build decided, and where it minted ids from.

    ``starts`` are the site-id allocator and inline serial the build
    started from (:func:`build_id_scope`); ``icp`` and ``inline`` are
    ICP's and the inliner's plans (``None`` for a pass the key skips).
    Applied to the build's decision basis from those starts, the trace
    rebuilds the prefix exactly, in any process
    (:meth:`PibePipeline._build_prefix`).
    """

    starts: Tuple[int, int]
    icp: Optional[ICPPlan] = None
    inline: Optional[InlinePlan] = None


_REPORT_CLASSES = {
    cls.__name__: cls for cls in (InlineReport, DefaultInlineReport)
}


def _checked(value: Any, *types: type) -> Any:
    """``value`` if its exact type is one of ``types`` (so a bool is no
    int), else ``TypeError``."""
    if type(value) not in types:
        raise TypeError(f"trace value {value!r} is not {types}")
    return value


def encode_report(report: Any) -> Dict[str, Any]:
    """Render an inliner report as JSON-encodable data."""
    cls_name = type(report).__name__
    if cls_name not in _REPORT_CLASSES:
        raise TypeError(f"unknown report type {cls_name}")
    return {"__report__": cls_name, "data": dataclasses.asdict(report)}


def decode_report(payload: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_report`. An inliner report holds numbers
    and one name -> count dict; any other value raises ``TypeError``."""
    report = _REPORT_CLASSES[payload["__report__"]](**payload["data"])
    for value in vars(report).values():
        if type(value) is dict:
            for name, count in value.items():
                _checked(name, str)
                _checked(count, int)
        else:
            _checked(value, int, float)
    return report


def trace_sha(data: Any) -> str:
    """Content hash of an encoded trace. Plain ``json.dumps`` text of
    this data round-trips byte-identically through ``json.load``, so the
    sha taken when writing and the one recomputed on reading agree
    exactly when the entry is intact."""
    return hashlib.sha256(json.dumps(data).encode("utf-8")).hexdigest()


def encode_trace(trace: PrefixTrace) -> Dict[str, Any]:
    """The ``prefix`` disk payload of ``trace``: its rows and their sha."""
    icp, inline = trace.icp, trace.inline
    data: Dict[str, Any] = {
        "starts": trace.starts, "icp": None, "inline": None
    }
    if icp is not None:
        data["icp"] = (
            icp.budget,
            icp.total_weight,
            icp.total_sites,
            icp.total_targets,
            [(d.site_id, d.caller, d.targets) for d in icp.decisions],
        )
    if inline is not None:
        data["inline"] = (
            [
                (s.caller, s.vid, s.callee, s.weight, s.invocations,
                 s.ratio, s.clones)
                for s in inline.steps
            ],
            encode_report(inline.report),
        )
    return {"trace": data, "sha": trace_sha(data)}


def decode_trace(payload: Dict[str, Any]) -> PrefixTrace:
    """Inverse of :func:`encode_trace`. Raises ``ValueError`` on a sha
    mismatch or a row of the wrong length, ``KeyError`` on a missing
    field and ``TypeError`` on a value of the wrong type."""
    data = payload["trace"]
    if trace_sha(data) != payload["sha"]:
        raise ValueError("prefix trace hash mismatch")
    site_start, serial_start = data["starts"]
    trace = PrefixTrace(
        (_checked(site_start, int), _checked(serial_start, int))
    )
    if data["icp"] is not None:
        budget, weight, sites, targets, decisions = data["icp"]
        trace.icp = ICPPlan(
            budget=_checked(budget, float, int),
            total_weight=_checked(weight, int),
            total_sites=_checked(sites, int),
            total_targets=_checked(targets, int),
            decisions=[
                PromotionDecision(
                    site_id=_checked(site_id, int),
                    caller=_checked(caller, str),
                    targets=[
                        (_checked(target, str), _checked(count, int))
                        for target, count in promoted
                    ],
                )
                for site_id, caller, promoted in decisions
            ],
        )
    if data["inline"] is not None:
        steps, report = data["inline"]
        trace.inline = InlinePlan(
            steps=[
                InlineStep(
                    caller=_checked(caller, str),
                    vid=_checked(vid, int),
                    callee=_checked(callee, str),
                    weight=_checked(weight, int),
                    invocations=_checked(invocations, int),
                    ratio=_checked(ratio, float, type(None)),
                    clones=[
                        (_checked(clone, int), _checked(source, int))
                        for clone, source in clones
                    ],
                )
                for (
                    caller, vid, callee, weight, invocations, ratio, clones
                ) in steps
            ],
            report=decode_report(report),
        )
    return trace


class PibePipeline:
    """Profile-then-optimize driver over a linked baseline module.

    The baseline module is never mutated: a staged variant is a
    copy-on-write clone of its prefix, and only the reference path
    (``build_variant(validate=True)`` or ``verify_each=True``) starts
    from a deep copy of the baseline. So one profile feeds arbitrarily
    many configurations (the evaluation sweeps budgets and defense
    combinations from a single profiling run, like the paper's workflow
    scripts).

    Parameters
    ----------
    baseline:
        The linked module every variant starts from. Must stay immutable
        for the pipeline's lifetime (copy-on-write clones share its
        functions).
    cache:
        Optional :class:`~repro.evaluation.cache.DiskCache`; when given,
        each prefix persists its :class:`PrefixTrace` under the
        ``"prefix"`` kind, so other processes (parallel evaluation
        workers, later runs) replay its decisions on their own basis
        instead of planning ICP and inlining again. Without one, the
        pipeline keeps each trace's encoded text in memory instead.

    At most :data:`RESIDENT_PREFIXES` prefix entries stay in memory; an
    evicted one, requested again, is replayed from its trace, so it and
    the variants stamped on it are bit-identical to the first build.
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
        #: resident prefixes, least recently used first
        self._prefix_memo: "OrderedDict[Any, PrefixEntry]" = OrderedDict()
        #: memo key -> the encoded trace (the JSON a disk entry would
        #: hold) of every prefix a cache-less pipeline built
        self._traces: Dict[Any, str] = {}
        self._basis_memo: Dict[Tuple[str, bool], _DecisionBasis] = {}
        #: basis of unoptimized prefixes, for both jump-table settings:
        #: they lower switches on their own clone, so one basis shares
        #: its DCE and validation caches across both settings.
        self._baseline_basis = _DecisionBasis(baseline, None)
        #: build-engine counters (surfaced by benchmarks and ``repro
        #: cache stats``)
        self.stats: Dict[str, int] = {
            "staged_builds": 0,
            "reference_builds": 0,
            "prefix_builds": 0,
            "prefix_delta_builds": 0,
            "prefix_memory_hits": 0,
            "prefix_disk_hits": 0,
            "prefix_memory_replays": 0,
            "prefix_decode_failures": 0,
            "prefix_evictions": 0,
        }

    def baseline_fingerprint(self) -> str:
        """The baseline's module fingerprint, computed once: every disk
        key of the pipeline and of the evaluation cells on it leads with
        it."""
        if self._baseline_fp is None:
            self._baseline_fp = module_fingerprint(self.baseline)
        return self._baseline_fp

    def prefix_cache_info(self) -> Dict[str, Any]:
        """Snapshot of the in-memory prefix cache for stats surfaces.

        Deterministically ordered (sorted keys throughout) so the serve
        ``stats`` endpoint and its tests can compare rendered JSON. The
        serve ``stats`` op calls this on its event-loop thread while the
        eval thread inserts entries and variants, so both dicts are
        copied with ``list()`` before a loop walks them: a C call that
        runs no bytecode, so no other thread runs in the middle of it.
        """
        by_source: Dict[str, int] = {}
        variants = 0
        # Delta prefixes, built or replayed, share most Function objects
        # with their basis and each other, and a variant shares all but
        # its stamped functions with its prefix; count unique objects,
        # not per-entry sums, so the figure reflects actual residency.
        unique_functions: set = set()
        entries = list(self._prefix_memo.values())
        for entry in entries:
            by_source[entry.source] = by_source.get(entry.source, 0) + 1
            builds = list(entry.variants.values())
            variants += len(builds)
            for module in [entry.module] + [b.module for b in builds]:
                unique_functions.update(map(id, module.functions.values()))
        return {
            "entries": len(entries),
            "bound": RESIDENT_PREFIXES,
            "evictions": self.stats["prefix_evictions"],
            "variants": variants,
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
        Every call returns a fresh build; :meth:`variant` memoizes one.
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

    def variant(
        self,
        config: PibeConfig,
        profile: Optional[EdgeProfile],
        build: bool = True,
    ) -> Optional[BuildResult]:
        """``config``'s staged variant, memoized on its prefix entry.

        The entry owns the build, so it leaves memory when the entry is
        evicted; requested again, it is stamped again on the replayed
        prefix, bit-identical to the first. While resident, every call
        returns the same object and counts in no stat; a miss is a
        :meth:`build_variant`. With ``build=False`` the call is a
        lookup: ``None`` unless the variant is resident.
        """
        memo_key = self._memo_key(config, profile)
        entry = self._prefix_memo.get(memo_key)
        result = None if entry is None else entry.variants.get(config)
        if result is not None:
            self._prefix_memo.move_to_end(memo_key)
        elif build:
            result = self.build_variant(config, profile)
            # The stamp just used the entry, so it is the newest.
            self._prefix_memo[memo_key].variants[config] = result
        return result

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

    @staticmethod
    def _memo_key(
        config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> Tuple[Optional[str], PrefixKey]:
        """The memo key of ``config``'s prefix: the digest of the profile
        it is built from (``None`` for an unoptimized config, which never
        reads one) and its :class:`PrefixKey`."""
        optimized = profile is not None and config.optimized
        digest = profile.digest() if optimized else None
        return digest, PrefixKey.from_config(config)

    def _prefix_keys(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> Tuple[Tuple[Optional[str], PrefixKey], Optional[str]]:
        """The memo key of ``config``'s prefix and its disk key (``None``
        without a cache)."""
        # Imported here: repro.evaluation imports this module.
        from repro.evaluation.cache import cache_key

        memo_key = self._memo_key(config, profile)
        if self.cache is None:
            return memo_key, None
        return memo_key, cache_key(
            "prefix", PREFIX_CACHE_VERSION, self.baseline_fingerprint(), *memo_key
        )

    def _optimized_prefix(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> PrefixEntry:
        """The shared pre-hardening module for ``config``'s optimization
        facets: from the in-memory memo, else replayed from its trace (in
        the disk cache, or kept in memory by a cache-less pipeline), else
        built (and its trace kept). The entry becomes the most recently
        used; past :data:`RESIDENT_PREFIXES` the least recently used one
        is evicted with its variants."""
        if not config.optimized:
            profile = None  # unoptimized prefixes never read the profile
        memo_key, disk_key = self._prefix_keys(config, profile)
        entry = self._prefix_memo.get(memo_key)
        if entry is not None:
            self.stats["prefix_memory_hits"] += 1
            self._prefix_memo.move_to_end(memo_key)
            return entry

        trace = None
        if disk_key is not None:
            payload = self.cache.get("prefix", disk_key)
            if payload is not None:
                trace = self._trace_from_payload(payload, disk_key)
        elif memo_key in self._traces:
            trace = decode_trace(json.loads(self._traces[memo_key]))

        entry, built = self._build_prefix(profile, memo_key[1], trace)
        if trace is None:
            self.stats["prefix_builds"] += 1
        elif disk_key is not None:
            entry.source = "disk"
            self.stats["prefix_disk_hits"] += 1
        else:
            entry.source = "memory"
            self.stats["prefix_memory_replays"] += 1
        self._prefix_memo[memo_key] = entry
        while len(self._prefix_memo) > RESIDENT_PREFIXES:
            self._prefix_memo.popitem(last=False)
            self.stats["prefix_evictions"] += 1
        if trace is None:
            encoded = encode_trace(built)
            if disk_key is not None:
                self.cache.put("prefix", disk_key, encoded)
            else:
                self._traces[memo_key] = json.dumps(encoded)
        return entry

    def warm_prefix(
        self, config: PibeConfig, profile: Optional[EdgeProfile]
    ) -> None:
        """Build (or replay) and persist the optimized prefix for
        ``config`` without stamping a variant — the parallel-prewarm
        entry point."""
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
        self,
        profile: Optional[EdgeProfile],
        key: PrefixKey,
        trace: Optional[PrefixTrace] = None,
    ) -> Tuple[PrefixEntry, PrefixTrace]:
        """Decision/apply build of one prefix from its shared basis,
        transforming only functions the decisions touch; returns the
        entry and the trace that rebuilds it.

        The pass sequence (and the reports dict's insertion order) mirrors
        the reference pass run exactly: lower, ICP, inliner, SimplifyCFG,
        DCE — the middle three only for optimized keys (``profile`` set).
        Without ``trace``, decisions are planned against seeds / a
        :class:`VirtualSpace` (no IR mutation) and recorded, with the ids
        the build starts minting from, in a new trace. With one (a replay
        from disk or memory), planning is skipped and the recorded plans
        are applied from the recorded starts. Either way the plans are
        replayed onto a COW clone of the basis in decided order, so id
        minting matches the reference run step for step, and a replay
        matches the build that recorded it.
        """
        planning = trace is None
        if planning:
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

        # ICP and inlining are the steps that mint ids; lowering,
        # SimplifyCFG, DCE and validation mint none.
        with build_id_scope(None if planning else trace.starts) as starts:
            if planning:
                trace = PrefixTrace(starts)

            # Unoptimized keys carry no budgets: no ICP, no inlining.
            if key.icp_budget is not None:
                icp = IndirectCallPromotion(budget=key.icp_budget)
                if planning:
                    trace.icp = icp.plan(
                        module, candidates=basis.icp_candidates(icp)
                    )
                reports[icp.name] = icp.apply_plan(
                    module, trace.icp, icalls_before=basis.icalls_before()
                )

            if key.inline_budget is not None:
                if key.use_default_inliner:
                    inliner: ModulePass = DefaultInliner(profile=profile)
                else:
                    inliner = PibeInliner(
                        profile,
                        budget=key.inline_budget,
                        caller_threshold=key.caller_threshold,
                        callee_threshold=key.callee_threshold,
                        lax_heuristics=key.lax_heuristics,
                    )
                if planning:
                    # ICP rewrote the callers it materialized, so their
                    # basis seeds are stale; everything else is
                    # byte-for-byte basis state.
                    icp_touched = {
                        name
                        for name in module.functions
                        if not module.is_cow_shared(name)
                    }

                    def seed_for(name: str) -> FunctionSeed:
                        if name in icp_touched:
                            return seed_function(module.functions[name])
                        return basis.seed(name)

                    space = VirtualSpace(list(module.functions), seed_for)
                    trace.inline = (
                        inliner.plan(module, space)
                        if key.use_default_inliner
                        else inliner.plan(space)
                    )
                reports[inliner.name] = inliner.apply_plan(
                    module, trace.inline
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
        return PrefixEntry(module=module, reports=reports), trace

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
                removed = module.remove_function(name)
                report.removed_instructions += removed.size()
                report.removed_functions += 1
        return report

    # -- prefix persistence ---------------------------------------------------

    def _trace_from_payload(
        self, payload: Dict[str, Any], disk_key: str
    ) -> Optional[PrefixTrace]:
        """The trace a ``prefix`` entry holds; ``None`` (treated as a
        miss) on a sha mismatch, a missing field or a value of the wrong
        type — the corrupt entry is quarantined and counted in
        ``prefix_decode_failures``, and the prefix is rebuilt. A trace
        that passes is replayed as is: a replay that raises on it is a
        bug, not corruption."""
        try:
            return decode_trace(payload)
        except (KeyError, TypeError, ValueError):
            self.stats["prefix_decode_failures"] += 1
            self.cache.quarantine_entry("prefix", disk_key)
            return None
