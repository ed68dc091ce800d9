"""Evaluation harness: builds, profiles and measures kernel variants with
caching, so the per-table generators share one kernel, one profiling run
and one measurement per configuration.

Every cell (profile, lint, measurement, a variant's static census,
Table 1's defense costs) is read through one memo and one path,
``EvalContext._cell``; built variants live on their prefix entries in
the pipeline, which bounds them (:meth:`EvalContext.variant`). Two
accelerators sit on the memo:

- **Disk cache** (``EvalSettings.cache_dir``): profiles, measurements,
  censuses and defense costs persist under ``.repro-cache/`` keyed by
  kernel fingerprint, config, workload, seed, scale knobs and engine
  version, so a repeat run of the same experiment matrix builds no
  variant and runs no engine.
- **Parallel measurement** (:meth:`EvalContext.measure_many`): independent
  (config, workload) cells fan out over a :class:`ProcessPoolExecutor`
  and merge deterministically in input order regardless of completion
  order.

The fan-out is fault tolerant: each cell is its own future with a
per-cell timeout, failing cells are retried with exponential backoff
(the pool is rebuilt after a crash or hang), a repeatedly failing cell
degrades to inline sequential execution, and whatever still fails is
recorded in the :class:`FailureReport` attached to the result — one bad
cell costs one table gap, never the regeneration. The
:mod:`repro.faults` injection points (``measure.cell``, ``cache.put``)
let tests and the ``repro faults`` CLI prove all of this under
deliberately induced crashes, hangs and corruption.
"""

from __future__ import annotations

import dataclasses
import time
# Imported up front although only jobs > 1 builds a pool: a pool that an
# unclosed context holds at exit is freed when this module is torn down,
# and its cleanup needs multiprocessing still loaded (teardown runs in
# reverse import order).
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults

from repro.core.config import PibeConfig
from repro.core.pipeline import (
    PREFIX_CACHE_VERSION,
    BuildResult,
    PibePipeline,
    PrefixKey,
)
from repro.engine.names import DEFAULT_ENGINE, ENGINE_VERSION
from repro.evaluation.cache import DiskCache, cache_key
from repro.evaluation.failures import (
    KIND_CRASH,
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    FailureReport,
    MeasureManyResult,
)
from repro.hardening.defenses import DefenseConfig
from repro.kernel.generator import build_kernel
from repro.kernel.spec import DEFAULT_SPEC, KernelSpec, SmallSpec
from repro.profiling.profile_data import EdgeProfile
from repro.workloads.base import Benchmark, measure_benchmark
from repro.workloads.lmbench import LMBENCH_BENCHMARKS
from repro.workloads.macro import (
    MacroBenchmark,
    ThroughputResult,
    measure_throughput,
)

# What one cell alone runs (the census analyses, the stack tracker,
# JumpSwitches, the pass reports, the microbenchmark and SPEC drivers,
# the engine) is imported inside that cell, so a process loads only the
# cells it computes or decodes. The names below serve annotations only.
if TYPE_CHECKING:
    from repro.analysis.gadgets import ForwardEdgeCensus
    from repro.baselines.jumpswitches import JumpSwitchParams
    from repro.passes.icp import ICPReport
    from repro.passes.inliner import InlineReport

#: Table 12's stack-depth run: each syscall, this many times.
_STACK_SYSCALLS = ("read", "open", "fork_exit", "select_tcp")
_STACK_RUNS = 20


@dataclass(frozen=True)
class Census:
    """The static counts of one built variant that Tables 8-12 read (a
    ``census`` cell): fixed for a given key, so a warm run reads them
    instead of building the variant."""

    #: ICP's report without its per-site ``records`` (``None`` when the
    #: config runs no ICP).
    icp: Optional[ICPReport]
    #: PIBE's inliner report (``None`` when the config runs no PIBE
    #: inlining).
    inline: Optional[InlineReport]
    #: Return and indirect-call instructions in the module.
    returns: int
    icalls: int
    forward_edges: ForwardEdgeCensus
    #: Lowered text and startup slab bytes (Table 12's sizes).
    text_bytes: int
    slab_bytes: int

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Census":
        from repro.analysis.gadgets import ForwardEdgeCensus
        from repro.passes.icp import ICPReport
        from repro.passes.inliner import InlineReport

        return cls(
            icp=None if d["icp"] is None else ICPReport(**d["icp"]),
            inline=None if d["inline"] is None else InlineReport(**d["inline"]),
            returns=d["returns"],
            icalls=d["icalls"],
            forward_edges=ForwardEdgeCensus(**d["forward_edges"]),
            text_bytes=d["text_bytes"],
            slab_bytes=d["slab_bytes"],
        )


#: Bump when a census record would count differently for the same
#: variant: what :func:`census_of` reads, i.e. the forward-edge policy
#: (the classes a *stock* tag protects in
#: :func:`repro.hardening.classes.defense_classes`, the per-edge rules
#: and the boot-only exemption), the text and slab size model of
#: :mod:`repro.analysis.sizes` and the lowering units it sums. Census
#: disk keys carry it. What a custom defense's tag protects does not
#: warrant a bump: every census cell is keyed by a stock config and
#: counted on that config's variant, which carries stock tags only.
CENSUS_VERSION = 1


def census_of(build: BuildResult) -> Census:
    """A variant's :class:`Census`, from the reference analyses of its
    module and its pass reports' totals."""
    from repro.analysis.gadgets import forward_edge_census
    from repro.analysis.sizes import slab_size_bytes, text_size_bytes
    from repro.passes.icp import IndirectCallPromotion
    from repro.passes.inliner import PibeInliner

    module = build.module
    icp = build.reports.get(IndirectCallPromotion.name)
    return Census(
        icp=None if icp is None else dataclasses.replace(icp, records=[]),
        inline=build.reports.get(PibeInliner.name),
        returns=sum(1 for _ in module.return_sites()),
        icalls=sum(1 for _ in module.indirect_call_sites()),
        forward_edges=forward_edge_census(module),
        text_bytes=text_size_bytes(module),
        slab_bytes=slab_size_bytes(module),
    )


@dataclass(frozen=True)
class DefenseCosts:
    """Table 1's microbenchmark results (a ``defense_costs`` cell)."""

    #: config label -> call kind (dcall/icall/vcall) -> ticks per call
    ticks: Dict[str, Dict[str, float]]
    #: config label -> SPEC-like component -> slowdown
    spec_slowdowns: Dict[str, Dict[str, float]]


def measure_defense_costs(
    configs: Sequence[Tuple[str, DefenseConfig]],
    iterations: int,
    spec_iterations: int,
) -> DefenseCosts:
    """Run Table 1's microbenchmarks for ``(label, defenses)`` pairs on the
    default engine: tick loops of ``iterations`` and SPEC-like components
    of ``spec_iterations``."""
    from repro.workloads.microbench import measure_all_ticks
    from repro.workloads.spec import measure_all_spec_slowdowns

    configs = dict(configs)
    return DefenseCosts(
        measure_all_ticks(configs, iterations=iterations),
        measure_all_spec_slowdowns(configs, iterations=spec_iterations),
    )


#: How each persisted cell kind is stored: (disk-cache kind, encode,
#: decode). The measured kinds, Table 1's defense costs included, share
#: the ``"measure"`` disk kind; the inputs in their keys tell them apart
#: (``EvalContext._cell``). Censuses are static counts, kept apart under
#: ``"census"``.
_DISK_CODECS: Dict[str, Tuple[str, Callable, Callable]] = {
    "profile": ("profile", EdgeProfile.to_dict, EdgeProfile.from_dict),
    "measure": ("measure", dict, dict),
    "jumpswitches": ("measure", dict, dict),
    "throughput": ("measure", dataclasses.asdict, lambda d: ThroughputResult(**d)),
    "peak_stack": (
        "measure", lambda v: {"peak_bytes": v}, lambda d: float(d["peak_bytes"])
    ),
    "defense_costs": (
        "measure", dataclasses.asdict, lambda d: DefenseCosts(**d)
    ),
    "census": ("census", dataclasses.asdict, Census.from_dict),
}


@dataclass(frozen=True)
class EvalSettings:
    """Scale knobs shared by every experiment."""

    spec: KernelSpec = DEFAULT_SPEC
    profile_iterations: int = 3
    profile_ops_scale: float = 1.0
    measure_ops_scale: float = 0.5
    seed: int = 7
    #: Execution engine for profiling and measurement runs. ``reference``
    #: and ``compiled`` produce identical event streams per seed, so their
    #: results are interchangeable — only wall time differs. ``vectorized``
    #: measures in *counting mode* (warm predictors, additive charges; see
    #: :mod:`repro.cpu.counting`): per-seed event totals still match the
    #: other engines exactly, but cycle totals follow the counting
    #: semantics, so never mix engines within one comparison. Profiles are
    #: identical on every engine; all but ``reference`` (the event-by-event
    #: oracle) collect them by counting call edges on the vectorized
    #: engine. Cache keys include both ``ENGINE_VERSION`` and the engine
    #: name, which keeps cached results from different semantics apart
    #: automatically.
    engine: str = DEFAULT_ENGINE
    #: Worker processes for the context's pool: ``measure_many``,
    #: ``prewarm_prefixes`` and sharded ``lint`` (1 = inline).
    jobs: int = 1
    #: Directory for the persistent result cache; ``None`` disables it.
    cache_dir: Optional[str] = None
    #: Resubmissions per failing cell before it degrades to inline
    #: execution (and, failing that too, lands in the FailureReport).
    max_retries: int = 2
    #: Per-cell wall-clock limit in the parallel path; on expiry the pool
    #: is killed and rebuilt. ``None`` waits forever (a hung worker then
    #: hangs the run — only disable the timeout in controlled settings).
    cell_timeout: Optional[float] = 300.0
    #: Base of the exponential backoff between retries of one cell
    #: (``retry_backoff * 2**(attempt - 1)`` seconds).
    retry_backoff: float = 0.05

    @classmethod
    def fast(cls) -> "EvalSettings":
        """The ``--fast`` scale of the CLI, the examples and the
        benchmarks: the small kernel, one profiling iteration, reduced
        op counts."""
        return cls(
            spec=SmallSpec(),
            profile_iterations=1,
            profile_ops_scale=0.2,
            measure_ops_scale=0.15,
        )


class EvalContext:
    """Caches the kernel, profiles and measurements; its pipeline holds
    the built variants."""

    def __init__(
        self,
        settings: Optional[EvalSettings] = None,
        kernel: Optional["Module"] = None,
    ) -> None:
        """``kernel`` lets callers share one built kernel across contexts
        whose settings differ only in seed/scale knobs (the sweep engine
        runs one context per seed replica); it must be the module
        :func:`build_kernel` would produce for ``settings.spec``."""
        self.settings = settings or EvalSettings()
        self.kernel = kernel if kernel is not None else build_kernel(
            self.settings.spec
        )
        self.cache: Optional[DiskCache] = (
            DiskCache(Path(self.settings.cache_dir))
            if self.settings.cache_dir
            else None
        )
        # The pipeline shares the harness cache so staged variant builds
        # persist their optimized prefixes: parallel workers and later
        # runs stamp defenses onto disk-loaded prefixes instead of
        # re-running ICP + inlining per variant.
        self.pipeline = PibePipeline(self.kernel, cache=self.cache)
        # The one memo of every cell, keyed by (kind,) + the cell's key:
        # cell_key() for a config's cells, so two configs that differ in
        # any field never share an entry. It holds results only; built
        # variants stay with their prefixes in the pipeline.
        self._memo: Dict[Tuple, Any] = {}
        # Persistent worker pool: created on the first parallel
        # measure_many and reused by every later call (the serve layer
        # runs many batches against one context), torn down by close().
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers: int = 0
        self._pool_plan: Optional["faults.FaultPlan"] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down the persistent worker pool and retire the context.

        Idempotent. After ``close()`` the caches remain readable (so a
        final ``stats`` snapshot still works) but any cell that would be
        computed raises :class:`RuntimeError`. Shutdown waits for the
        workers, so when this returns no child process of the pool is
        left running — the regression tests assert exactly that.
        """
        global _WORKER_CTX
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._shutdown_pool(self._pool, kill=False)
            self._pool = None
            self._pool_workers = 0
            self._pool_plan = None
        if _WORKER_CTX is self:
            _WORKER_CTX = None

    def __enter__(self) -> "EvalContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("EvalContext is closed")

    def _cell(
        self,
        key: Tuple,
        compute: Optional[Callable[[], Any]] = None,
        inputs: Optional[Callable[[], Tuple]] = None,
        fault: Optional[Callable[[], str]] = None,
    ) -> Any:
        """The one path of every cell: memo, disk ``get``, compute, disk
        ``put``, memo. ``key`` is ``(kind,) + ...``.

        ``inputs`` gives the cell's disk-key inputs (called after a memo
        miss, with a cache); without it the cell stays in memory. Every
        disk key is the disk kind, ``ENGINE_VERSION``, the engine, the
        kernel fingerprint, the inputs and the seed. The fingerprint is
        the pipeline's, so profiles, prefixes and measured cells all key
        on the kernel's exact site ids. An entry that does not decode is
        quarantined and the cell computed. With no ``compute`` the call
        is a lookup: memo or disk, else ``None``. A computing call
        checks that the context is open, then fires the ``measure.cell``
        injection point for the label ``fault`` makes, then reads disk.
        """
        value = self._memo.get(key)
        if value is not None:
            return value
        if compute is not None:
            self._check_open()
            if fault is not None:
                faults.fire("measure.cell", fault())
        digest = None
        if inputs is not None and self.cache is not None:
            disk_kind, encode, decode = _DISK_CODECS[key[0]]
            s = self.settings
            digest = cache_key(
                disk_kind,
                ENGINE_VERSION,
                s.engine,
                self.pipeline.baseline_fingerprint(),
                *inputs(),
                s.seed,
            )
            entry = self.cache.get(disk_kind, digest)
            if entry is not None:
                try:
                    value = decode(entry)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # Valid JSON of the wrong shape (a manual edit, an
                    # older payload): moved aside like a torn file.
                    self.cache.quarantine_entry(disk_kind, digest)
                else:
                    self._memo[key] = value
                    return value
        if compute is None:
            return None
        value = compute()
        if digest is not None:
            self.cache.put(disk_kind, digest, encode(value))
        self._memo[key] = value
        return value

    # -- profiles -----------------------------------------------------------

    def profile(self, workload_name: str = "lmbench") -> EdgeProfile:
        s = self.settings

        def compute() -> EdgeProfile:
            from repro.workloads.training import TRAINING_WORKLOADS

            factory = TRAINING_WORKLOADS.get(workload_name)
            if factory is None:
                raise ValueError(f"unknown workload {workload_name!r}")
            return self.pipeline.profile(
                factory(),
                iterations=s.profile_iterations,
                ops_scale=s.profile_ops_scale,
                seed=s.seed,
                engine=s.engine,
            )

        return self._cell(
            ("profile", workload_name),
            compute,
            lambda: (workload_name, s.profile_iterations, s.profile_ops_scale),
        )

    # -- variants -------------------------------------------------------------

    def variant(
        self, config: PibeConfig, workload_name: str = "lmbench"
    ) -> BuildResult:
        """``config``'s variant trained on ``workload_name``, memoized on
        its prefix entry (:meth:`PibePipeline.variant`): the same object
        while the entry is resident, a bit-identical rebuild after it
        was evicted. A closed context returns a resident variant and
        builds none."""
        profile = self.profile(workload_name) if config.optimized else None
        build = self.pipeline.variant(config, profile, build=not self._closed)
        if build is None:
            self._check_open()
        return build

    def security(
        self, config: PibeConfig, workload_name: str = "lmbench"
    ) -> "SecurityMetrics":  # noqa: F821 — imported lazily below
        """Residual-target security metrics of a variant (the sweep's
        security axis). Not memoized: the variant already is, and the
        points-to analysis memoizes per module."""
        from repro.analysis.security import security_metrics

        return security_metrics(
            self.variant(config, workload_name).module, label=config.label()
        )

    def prewarm_prefixes(
        self,
        configs: Sequence[PibeConfig],
        workload_name: str = "lmbench",
    ) -> int:
        """Build the distinct cold optimized prefixes of ``configs`` in
        parallel, ahead of measurement.

        A sweep grid's configs collapse to a handful of
        :class:`~repro.core.pipeline.PrefixKey` values (defense stamps
        share prefixes), and each cold prefix is an independent build —
        so workers fan them out and hand results back through the disk
        cache's ``"prefix"`` kind, where the serial measurement path
        loads them as disk hits. Budget ladders sharing one decision
        basis (same profile, same jump-table legality) are sliced
        contiguously so a single worker derives the whole ladder from
        one basis instead of each worker rebuilding it.

        Returns the number of prefixes dispatched. Requires the disk
        cache (it is the hand-back channel) and ``settings.jobs > 1``;
        otherwise a no-op — prefixes then build lazily inline, exactly as
        before. Worker failures are absorbed: an unwarmed prefix just
        builds inline later.
        """
        self._check_open()
        jobs = self.settings.jobs
        if self.cache is None or jobs <= 1:
            return 0
        # Materialize the profile before workers fork so they inherit it.
        profile = self.profile(workload_name)
        seen = set()
        cold: Dict[bool, List[Tuple[PrefixKey, PibeConfig]]] = {}
        for config in configs:
            if not config.optimized:
                continue
            key = PrefixKey.from_config(config)
            if key in seen:
                continue
            seen.add(key)
            if self.pipeline.prefix_state(config, profile) != "cold":
                continue
            cold.setdefault(key.allow_jump_tables, []).append((key, config))
        if not cold:
            return 0
        # One slice = one worker's run up a budget ladder, grouped by
        # decision-basis axis (jump-table legality). Apply cost climbs
        # steeply with budget (a budget's decisions cover the profile
        # tail), so budgets are dealt longest-processing-time: highest
        # cost first, each onto the lightest slice — the top budget gets
        # a slice to itself instead of dragging a ladder behind it.
        def ladder_key(kc):
            return (
                kc[0].icp_budget if kc[0].icp_budget is not None else -1.0,
                kc[0].inline_budget
                if kc[0].inline_budget is not None
                else -1.0,
                kc[0].lax_heuristics,
            )

        def cost(kc):
            budget = max(ladder_key(kc)[0], ladder_key(kc)[1], 0.0)
            return 1.0 + 1.0 / max(1e-9, 1.0 - min(budget, 1.0))

        slices: List[Tuple[PibeConfig, ...]] = []
        per_group = max(1, jobs // len(cold))
        for axis in sorted(cold):
            group = sorted(cold[axis], key=ladder_key, reverse=True)
            bins: List[List[Tuple[PrefixKey, PibeConfig]]] = [
                [] for _ in range(min(per_group, len(group)))
            ]
            loads = [0.0] * len(bins)
            for kc in group:
                lightest = loads.index(min(loads))
                bins[lightest].append(kc)
                loads[lightest] += cost(kc)
            slices.extend(
                tuple(config for _, config in sorted(b, key=ladder_key))
                for b in bins
            )
        # A lost slice (None) costs nothing: its prefixes build inline.
        warmed = self._pool_map(
            _prewarm_prefix_cell,
            [(chunk, workload_name) for chunk in slices],
            min(len(slices), jobs),
        )
        return sum(n for n in warmed if n is not None)

    # -- lint ---------------------------------------------------------------

    def lint(
        self,
        config: PibeConfig,
        workload_name: str = "lmbench",
        rules: Optional[Sequence[str]] = None,
    ):
        """Incrementally lint a built variant, sharding cache misses over
        the persistent worker pool.

        Reports are memoized like measurements, and the incremental
        engine's disk cache (shared ``"lint"`` kind) makes even the
        first lint of a *new* variant warm when it shares an optimized
        prefix with an already-linted one — sweep variants differ only
        in defense stamps, and the function-chunk keys are
        content-addressed.
        """
        jobs = self.settings.jobs

        def map_shards(shards):
            # Shards run over the persistent pool. Workers resolve the
            # variant through their own context: forked ones inherit the
            # one compute() built, so diagnostics match the parent's. A
            # spawned worker would build it right after a fresh kernel
            # of its own: the parent's site ids only if the parent, too,
            # built nothing but its kernel before this variant. A lost
            # shard comes back None and is recomputed inline.
            return self._pool_map(
                _lint_shard_cell,
                [(config, workload_name, shard) for shard in shards],
                min(len(shards), jobs),
            )

        def compute():
            from repro.static.incremental import lint_module

            return lint_module(
                self.variant(config, workload_name).module,
                rules=list(rules) if rules else None,
                profile=self.profile(workload_name) if config.optimized else None,
                cache=self.cache,
                jobs=max(jobs, 1),
                map_shards=map_shards if jobs > 1 else None,
            )

        selection = tuple(rules) if rules else None
        return self._cell(
            ("lint",) + cell_key(config, workload_name, selection), compute
        )

    def _pool_map(self, fn, items: Sequence, workers: int) -> List:
        """``fn`` over ``items`` on the persistent pool, one future per
        item, results in input order.

        A future lost to an exception or a dead worker comes back
        ``None`` (callers redo that item inline or skip it), and a
        broken pool is replaced so later batches start healthy.
        :meth:`_measure_cells_parallel` keeps a loop of its own: it adds
        per-cell timeouts and retries.
        """
        global _WORKER_CTX
        plan = faults.active_plan()
        _WORKER_CTX = self
        pool = self._ensure_pool(workers, plan)
        futures = [pool.submit(fn, item) for item in items]
        results = []
        broken = False
        for fut in futures:
            try:
                results.append(fut.result())
            except BrokenExecutor:
                results.append(None)
                broken = True
            except Exception:  # noqa: BLE001 — the caller fills the gap
                results.append(None)
        if broken:
            self._replace_pool(plan, kill=True)
        return results

    # -- measurements -------------------------------------------------------------

    def _profile_part(self, config: PibeConfig, workload_name: str):
        """A measured cell's training-profile key part: its knobs matter
        only when the config consumes a profile."""
        s = self.settings
        if config.optimized:
            return (workload_name, s.profile_iterations, s.profile_ops_scale)
        return None

    def _measurement(self, config, benches, workload_name, compute: bool):
        """:meth:`measure`'s cell; a lookup unless ``compute``."""
        s = self.settings

        def run() -> Dict[str, float]:
            module = self.variant(config, workload_name).module
            results: Dict[str, float] = {}
            for bench in benches:
                ops = max(1, int(bench.default_ops * s.measure_ops_scale))
                results[bench.name] = measure_benchmark(
                    module, bench, ops=ops, seed=s.seed, engine=s.engine
                ).cycles_per_op
            return results

        return self._cell(
            ("measure",) + cell_key(config, workload_name, bench_names(benches)),
            run if compute else None,
            lambda: (
                config,
                self._profile_part(config, workload_name),
                benches,
                s.measure_ops_scale,
            ),
            fault=lambda: cell_label(config, workload_name),
        )

    def cached_measurement(
        self,
        config: PibeConfig,
        benches: Sequence[Benchmark] = tuple(LMBENCH_BENCHMARKS),
        workload_name: str = "lmbench",
    ) -> Optional[Dict[str, float]]:
        """A previously computed measurement, or ``None`` without
        evaluating anything.

        Checks the in-memory memo first, then the disk cache (promoting a
        disk hit into memory). This is the cache-aware routing seam the
        serve layer uses: requests answerable here are served inline on
        the event loop, everything else is dispatched to the worker pool.
        """
        return self._measurement(
            config, tuple(benches), workload_name, compute=False
        )

    def measure(
        self,
        config: PibeConfig,
        benches: Sequence[Benchmark] = tuple(LMBENCH_BENCHMARKS),
        workload_name: str = "lmbench",
    ) -> Dict[str, float]:
        """Per-benchmark cycles/op for a configuration (cached)."""
        return self._measurement(
            config, tuple(benches), workload_name, compute=True
        )

    def measure_many(
        self,
        configs: Sequence[PibeConfig],
        benches: Sequence[Benchmark] = tuple(LMBENCH_BENCHMARKS),
        workload_name: str = "lmbench",
    ) -> MeasureManyResult:
        """Measure every configuration; results in input order.

        The executor's knobs (``jobs``, ``max_retries``,
        ``cell_timeout``, ``retry_backoff``) come from :attr:`settings`.
        With ``jobs == 1`` (or one pending cell) pending cells are
        measured inline in input order, so builds happen in the order the
        caller lists them.
        With ``jobs > 1`` the uncached cells fan out over worker
        processes, one future per cell. Each worker owns a full
        :class:`EvalContext` (on platforms that fork, inherited from this
        one with its warm profile; elsewhere rebuilt from ``settings``),
        and the merge is by input position, so the output is identical to
        the sequential path regardless of which worker finishes first.

        Failure semantics: a cell whose worker crashes, hangs past
        ``cell_timeout`` or raises is resubmitted up to ``max_retries``
        times with exponential backoff (crashes and hangs cost a pool
        rebuild; results completed by other workers are kept, and cells
        already persisted to the disk cache are salvaged on retry). A
        cell that exhausts its retries runs once more inline; if even
        that fails, its slot in the returned list is ``None`` and the
        attached :attr:`MeasureManyResult.failure_report` records the
        cell, so callers render a gap instead of losing the table.
        """
        configs = list(configs)
        benches = tuple(benches)
        names = bench_names(benches)
        keys = [("measure",) + cell_key(c, workload_name, names) for c in configs]
        pending = [i for i, key in enumerate(keys) if key not in self._memo]
        if pending:
            self._check_open()
        report = FailureReport(total_cells=len(configs))
        if pending and self.settings.jobs > 1 and len(pending) > 1:
            self._measure_cells_parallel(
                pending, configs, keys, benches, workload_name, report
            )
        elif pending:
            for i in pending:
                self._measure_cell_salvaged(
                    i,
                    configs[i],
                    benches,
                    workload_name,
                    self.settings.max_retries,
                    report,
                )

        results = MeasureManyResult(self._memo.get(key) for key in keys)
        results.failure_report = report
        return results

    def _measure_cell_salvaged(
        self,
        index: int,
        config: PibeConfig,
        benches: Tuple[Benchmark, ...],
        workload_name: str,
        max_retries: int,
        report: FailureReport,
        prior_attempts: int = 0,
        prior_kind: Optional[str] = None,
    ) -> Optional[Dict[str, float]]:
        """Measure one cell inline, absorbing failures into ``report``.

        Used both for the sequential path (with its own retry budget) and
        as the degradation target after the pool gave up on a cell
        (``max_retries=0`` there: one last inline chance, which also
        salvages any result a worker persisted to the disk cache before
        dying).
        """
        label = cell_label(config, workload_name)
        attempts = prior_attempts
        while True:
            attempts += 1
            try:
                values = self.measure(config, benches, workload_name)
            except Exception as exc:  # noqa: BLE001 — absorbed into report
                if attempts - prior_attempts > max_retries:
                    report.record(
                        index,
                        label,
                        prior_kind or KIND_EXCEPTION,
                        attempts,
                        f"{type(exc).__name__}: {exc}",
                    )
                    return None
                report.retries += 1
                time.sleep(
                    self.settings.retry_backoff
                    * 2 ** (attempts - prior_attempts - 1)
                )
            else:
                if prior_attempts:
                    report.degraded.append(label)
                return values

    def _new_pool(
        self, workers: int, plan: Optional["faults.FaultPlan"]
    ) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.settings, plan),
        )

    def _ensure_pool(
        self, workers: int, plan: Optional["faults.FaultPlan"]
    ) -> ProcessPoolExecutor:
        """The persistent pool, (re)built when the shape no longer fits.

        A pool sized for an earlier, larger batch is reused as-is (idle
        workers are cheap; forking them again is not). A smaller one, or
        one initialized under a different fault plan, is replaced.
        """
        if self._pool is not None and (
            self._pool_workers < workers or self._pool_plan != plan
        ):
            self._shutdown_pool(self._pool, kill=False)
            self._pool = None
        if self._pool is None:
            self._pool = self._new_pool(max(workers, 1), plan)
            self._pool_workers = max(workers, 1)
            self._pool_plan = plan
        return self._pool

    def _replace_pool(
        self, plan: Optional["faults.FaultPlan"], kill: bool
    ) -> ProcessPoolExecutor:
        """Tear down a crashed/hung pool and stand up a fresh one."""
        if self._pool is not None:
            self._shutdown_pool(self._pool, kill=kill)
        self._pool = self._new_pool(self._pool_workers, plan)
        self._pool_plan = plan
        return self._pool

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
        """Tear down a pool; ``kill`` terminates workers (hang recovery)."""
        if kill:
            # A hung worker never drains its queue, so shutdown alone
            # would block forever; SIGTERM the processes first. The
            # executor's internal machinery reaps them.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 — already-dead worker
                    pass
        pool.shutdown(wait=not kill, cancel_futures=True)

    def _measure_cells_parallel(
        self,
        pending: List[int],
        configs: List[PibeConfig],
        keys: List[Tuple],
        benches: Tuple[Benchmark, ...],
        workload_name: str,
        report: FailureReport,
    ) -> None:
        """Fan pending cells out over the persistent pool, recovering per
        cell. The pool outlives this call — the next batch reuses its
        warm workers — and is only replaced here after a crash or hang
        poisons it."""
        global _WORKER_CTX
        if any(configs[i].optimized for i in pending):
            # Profile once up front so every forked worker inherits it
            # instead of redoing the training run.
            self.profile(workload_name)
        max_retries = self.settings.max_retries
        cell_timeout = self.settings.cell_timeout
        plan = faults.active_plan()
        workers = min(self.settings.jobs, len(pending))
        attempts: Dict[int, int] = {i: 0 for i in pending}
        last_kind: Dict[int, str] = {}
        degraded: List[int] = []
        # Workers fork lazily at submit time, so the context must stay
        # visible for the pool's whole lifetime (later batches may still
        # grow the pool); close() clears it.
        _WORKER_CTX = self
        pool = self._ensure_pool(workers, plan)
        futures: Dict[Future, int] = {}
        deadlines: Dict[int, float] = {}
        try:

            def submit(index: int) -> None:
                fut = pool.submit(
                    _measure_cell, (configs[index], benches, workload_name)
                )
                futures[fut] = index
                if cell_timeout is not None:
                    deadlines[index] = time.monotonic() + cell_timeout

            def recycle(index: int, kind: str) -> None:
                """Count a failed attempt; resubmit or mark for inline."""
                attempts[index] += 1
                last_kind[index] = kind
                if attempts[index] > max_retries:
                    degraded.append(index)
                    return
                report.retries += 1
                time.sleep(
                    self.settings.retry_backoff * 2 ** (attempts[index] - 1)
                )
                submit(index)

            for i in pending:
                submit(i)
            while futures:
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - time.monotonic())
                done, _ = wait(
                    set(futures), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # A deadline expired with nothing finishing: at least
                    # one worker is hung. Kill the pool (the only way to
                    # reclaim its slot) and resubmit the victims —
                    # counting the attempt only against timed-out cells.
                    now = time.monotonic()
                    expired = {
                        i for i, dl in deadlines.items() if dl <= now
                    }
                    victims = list(futures.values())
                    pool = self._replace_pool(plan, kill=True)
                    futures.clear()
                    deadlines.clear()
                    for i in victims:
                        if i in expired:
                            recycle(i, KIND_TIMEOUT)
                        else:
                            submit(i)
                    continue
                broken = False
                retry: List[Tuple[int, str]] = []
                for fut in done:
                    i = futures.pop(fut)
                    deadlines.pop(i, None)
                    try:
                        values = fut.result()
                    except BrokenExecutor:
                        broken = True
                        retry.append((i, KIND_CRASH))
                    except Exception:  # noqa: BLE001
                        retry.append((i, KIND_EXCEPTION))
                    else:
                        self._memo[keys[i]] = values
                if broken:
                    # One dead worker poisons the whole executor: every
                    # in-flight future is lost. Rebuild once and resubmit
                    # the collateral victims along with the casualties.
                    for fut, i in list(futures.items()):
                        retry.append((i, KIND_CRASH))
                    futures.clear()
                    deadlines.clear()
                    pool = self._replace_pool(plan, kill=True)
                for i, kind in retry:
                    recycle(i, kind)
        except BaseException:
            # Leave no half-drained pool behind an exception escaping the
            # recovery machinery itself (KeyboardInterrupt, bugs): the
            # persistent pool only survives a *clean* batch.
            if self._pool is not None:
                self._shutdown_pool(self._pool, kill=True)
                self._pool = None
            raise
        for i in degraded:
            # Last resort: run the cell inline (one attempt). A result a
            # worker cached to disk before dying is salvaged here for free.
            self._measure_cell_salvaged(
                i,
                configs[i],
                benches,
                workload_name,
                0,
                report,
                prior_attempts=attempts[i],
                prior_kind=last_kind.get(i),
            )

    def measure_jumpswitches(
        self,
        benches: Sequence[Benchmark] = tuple(LMBENCH_BENCHMARKS),
        params: Optional[JumpSwitchParams] = None,
    ) -> Dict[str, float]:
        """JumpSwitches baseline: retpolines image, runtime promotion
        under ``params`` (default ``JumpSwitchParams()``)."""
        from repro.baselines.jumpswitches import (
            JumpSwitchParams,
            JumpSwitchTimingModel,
        )

        benches = tuple(benches)
        params = JumpSwitchParams() if params is None else params
        s = self.settings

        def compute() -> Dict[str, float]:
            from repro.engine.compiled import create_interpreter

            config = PibeConfig.hardened(DefenseConfig.retpolines_only())
            module = self.variant(config).module
            results: Dict[str, float] = {}
            for bench in benches:
                ops = max(1, int(bench.default_ops * s.measure_ops_scale))
                timing = JumpSwitchTimingModel(module, params=params)
                interpreter = create_interpreter(
                    module, [timing], seed=s.seed, engine=s.engine
                )
                bench.run(interpreter, ops=ops)
                results[bench.name] = timing.cycles / ops
            return results

        return self._cell(
            ("jumpswitches", params, bench_names(benches)),
            compute,
            lambda: ("jumpswitches", params, benches, s.measure_ops_scale),
        )

    def throughput(
        self, config: PibeConfig, app: MacroBenchmark, batches: int
    ) -> ThroughputResult:
        """Throughput of macrobenchmark ``app`` on a variant over
        ``batches`` batches (a Table 7 cell)."""
        s = self.settings
        trained = self._profile_part(config, "lmbench")
        return self._cell(
            ("throughput",) + cell_key(config, "lmbench", app, batches),
            lambda: measure_throughput(
                self.variant(config).module,
                app,
                batches=batches,
                seed=s.seed,
                engine=s.engine,
            ),
            lambda: ("throughput", config, trained, app, batches),
        )

    def peak_stack(self, config: PibeConfig) -> float:
        """Peak stack bytes of a variant over a fixed syscall mix (a
        Table 12 cell)."""
        s = self.settings

        def compute() -> float:
            from repro.analysis.stack import StackUsageTracker
            from repro.engine.compiled import create_interpreter

            tracker = StackUsageTracker()
            module = self.variant(config).module
            interpreter = create_interpreter(
                module, [tracker], seed=s.seed, engine=s.engine
            )
            for syscall in _STACK_SYSCALLS:
                interpreter.run_syscall(syscall, times=_STACK_RUNS)
            return float(tracker.peak_bytes)

        trained = self._profile_part(config, "lmbench")
        return self._cell(
            ("peak_stack",) + cell_key(config, "lmbench"),
            compute,
            lambda: (
                "peak_stack", config, trained, _STACK_SYSCALLS, _STACK_RUNS
            ),
        )

    def census(self, config: PibeConfig) -> Census:
        """The static counts of a variant trained on ``lmbench`` (a
        Tables 8-12 cell). The record is a function of the optimized
        prefix and of what :func:`census_of` counts, so its key carries
        ``PREFIX_CACHE_VERSION`` and ``CENSUS_VERSION``."""
        trained = self._profile_part(config, "lmbench")
        return self._cell(
            ("census",) + cell_key(config, "lmbench"),
            lambda: census_of(self.variant(config)),
            lambda: (
                "census", PREFIX_CACHE_VERSION, CENSUS_VERSION, config, trained
            ),
        )

    def defense_costs(
        self,
        configs: Sequence[Tuple[str, DefenseConfig]],
        iterations: int,
        spec_iterations: int,
    ) -> DefenseCosts:
        """Table 1's cell: :func:`measure_defense_costs`. Its
        microbenchmarks run on the default engine whatever
        ``settings.engine`` is; the engine and kernel fingerprint in the
        disk key only make the key more specific."""
        configs = tuple(configs)
        return self._cell(
            ("defense_costs", configs, iterations, spec_iterations),
            lambda: measure_defense_costs(configs, iterations, spec_iterations),
            lambda: ("defense_costs", configs, iterations, spec_iterations),
        )

    # -- common baselines ---------------------------------------------------------

    def lto_measurements(
        self, benches: Sequence[Benchmark] = tuple(LMBENCH_BENCHMARKS)
    ) -> Dict[str, float]:
        return self.measure(PibeConfig.lto_baseline(), benches)


def cell_key(config: PibeConfig, workload_name: str, *selection) -> Tuple:
    """The one key of an evaluation cell.

    The frozen config value itself — every field, where ``label()``
    drops the Rule 2/3 thresholds, ``run_dce`` and the non-transient
    defenses of an all-defenses config — plus the training workload
    (``"-"`` for a config that consumes no profile) and whatever
    selects within the cell: bench names for a measurement, the rule
    selection for a lint. Every :class:`EvalContext` memo and the
    server's single-flight are keyed by it.
    """
    return (config, workload_name if config.optimized else "-") + selection


def bench_names(benches: Sequence[Benchmark]) -> Tuple[str, ...]:
    """The bench selection part of a measurement's :func:`cell_key`."""
    return tuple(b.name for b in benches)


def cell_label(config: PibeConfig, workload_name: str) -> str:
    """The label a measurement cell carries at the ``measure.cell``
    injection point and in :class:`FailureReport` entries: for humans
    and fault plans, never a memo key (see :func:`cell_key`)."""
    return f"{config.label()}@{workload_name}"


# -- worker-process plumbing for measure_many --------------------------------
#
# On fork platforms the child inherits _WORKER_CTX (the parent context with
# its warm kernel/profile caches) and the initializer is a no-op; under
# spawn the module is re-imported, _WORKER_CTX is None, and the initializer
# rebuilds an equivalent context from the (picklable) settings. The fault
# plan rides along explicitly for the same reason: module globals don't
# survive spawn.

_WORKER_CTX: Optional[EvalContext] = None


def _init_worker(
    settings: EvalSettings, plan: Optional[faults.FaultPlan] = None
) -> None:
    global _WORKER_CTX
    faults.mark_worker()
    if plan is not None:
        # Shares the parent's activation state_dir, so "times: 1" means
        # once across the whole pool, not once per worker.
        faults.install(plan)
    if _WORKER_CTX is None:
        _WORKER_CTX = EvalContext(settings)


def _measure_cell(
    cell: Tuple[PibeConfig, Tuple[Benchmark, ...], str]
) -> Dict[str, float]:
    config, benches, workload_name = cell
    assert _WORKER_CTX is not None, "worker initialized without a context"
    return _WORKER_CTX.measure(config, benches, workload_name)


def _prewarm_prefix_cell(cell: Tuple[Tuple[PibeConfig, ...], str]) -> int:
    """Build one contiguous slice of cold prefixes in a worker.

    The worker's pipeline persists each prefix to the shared disk cache;
    the parent (and its other workers) then load them as disk hits.
    Slices walk a budget ladder in order, so the worker's incremental
    engine derives each prefix from the decision basis it just built.
    """
    configs, workload_name = cell
    assert _WORKER_CTX is not None, "worker initialized without a context"
    profile = _WORKER_CTX.profile(workload_name)
    for config in configs:
        _WORKER_CTX.pipeline.warm_prefix(config, profile)
    return len(configs)


def _lint_shard_cell(cell):
    """Run one lint shard (rule-names × function-names) in a worker.

    The worker resolves the variant through its own context: forked
    workers inherit the parent's memoized build outright, so diagnostics
    — including site ids — match the parent's. Site ids come from a
    process-wide counter, so a spawned worker, which builds a fresh
    kernel and then the variant, mints the parent's ids only if the
    parent, too, built nothing but its kernel before this variant.
    """
    config, workload_name, shard = cell
    assert _WORKER_CTX is not None, "worker initialized without a context"
    from repro.static.incremental import run_shard

    build = _WORKER_CTX.variant(config, workload_name)
    profile = (
        _WORKER_CTX.profile(workload_name) if config.optimized else None
    )
    rule_names, func_names = shard
    return run_shard(build.module, profile, rule_names, func_names)
