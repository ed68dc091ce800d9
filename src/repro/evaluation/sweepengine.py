"""Exhaustive solution-space sweep with Pareto/crossover analysis.

The paper samples the overhead-vs-security space at a handful of budget
points (Tables 5-12). This engine computes the whole surface: it fans
the full (optimization budget x defense selection x training workload x
kernel scale) grid through :meth:`EvalContext.measure_many` — or a
running ``repro serve`` instance — with N-seed repetition per cell,
aggregates each cell to nearest-rank median/IQR run statistics instead
of single numbers, attaches the residual-target security metrics of
:mod:`repro.analysis.security` to every variant, and derives two things
the paper only eyeballs:

- the **Pareto frontier** of (geomean overhead ↓, AIR ↑) per
  (scale, workload) slice — the configurations for which no other grid
  point is both faster and more secure;
- the **budget crossover points** between defense pairs: the budget at
  which one defense's overhead curve crosses another's. The
  structurally interesting pair is a FineIBT-style cheap-per-branch CFI
  against retpoline-style thunks: the CFI check keeps charging on every
  call — including the direct calls ICP promotes — while retpoline cost
  rides the indirect-branch count down to zero as the budget grows, so
  retpolines overtake the CFI at high budgets. LLVM-CFI
  (:data:`~repro.cpu.costs.NONTRANSIENT_COSTS`) is that defense in this
  cost model, which is why the grid presets include it.

Output is a deterministic CSV (stable row order, shortest-round-trip
floats — two runs over the same measurements are byte-identical) plus a
rendered text/markdown report. ``repro sweep`` is the CLI.

Scale economics: every (scale, seed) replica is its own
:class:`EvalContext` (the seed feeds profiling *and* measurement, so a
replica is a genuinely independent experiment), but all replicas share
one built kernel per scale and one disk cache, so staged prefix builds
and measurements are paid once per distinct cell across the whole run —
the warm-prefix sublinearity that ``benchmarks/bench_sweep.py`` asserts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import PibeConfig, check_budget
from repro.core.report import build_overhead_report
from repro.evaluation.formatting import Table, fmt_budget, pct
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.evaluation.stats import quartiles
from repro.hardening.defenses import DefenseConfig, defense_from_name
from repro.kernel.generator import build_kernel
from repro.kernel.spec import DEFAULT_SPEC, SCALED_SPEC, SmallSpec
from repro.workloads.base import Benchmark
from repro.workloads.lmbench import LMBENCH_BENCHMARKS
from repro.workloads.training import TRAINING_WORKLOADS

#: Kernel scales the grid can span (name -> spec).
SCALE_SPECS = {
    "small": SmallSpec(),
    "default": DEFAULT_SPEC,
    "scaled": SCALED_SPEC,
}

#: The paper's Table 5 budget grid.
PAPER_BUDGETS = (0.9, 0.99, 0.999, 0.9999, 0.999999)


@dataclass(frozen=True)
class SweepGrid:
    """The (budget x defense x workload x scale) grid, plus repetition.

    ``seeds`` replicas run the whole experiment — profiling and
    measurement — at ``seed_base + i``, so every cell aggregates N
    independent runs.
    """

    budgets: Tuple[float, ...]
    defenses: Tuple[DefenseConfig, ...]
    workloads: Tuple[str, ...] = ("lmbench",)
    scales: Tuple[str, ...] = ("default",)
    seeds: int = 1
    seed_base: int = 7
    lax_heuristics: bool = False

    def __post_init__(self) -> None:
        if not self.budgets or not self.defenses:
            raise ValueError("sweep grid needs >= 1 budget and >= 1 defense")
        object.__setattr__(
            self, "budgets", tuple(check_budget(b) for b in self.budgets)
        )
        # A repeat is the only way two grid cells could share a config
        # (or a row): grid configs always set budgets, so none equals
        # the LTO baseline either, and no dedup layer is needed.
        if len(set(self.budgets)) < len(self.budgets):
            raise ValueError(f"repeated budget in {self.budgets!r}")
        labels = [d.label() for d in self.defenses]
        if len(set(labels)) < len(labels):
            raise ValueError(f"repeated defense label in {labels!r}")
        for workload in self.workloads:
            if workload not in TRAINING_WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r} "
                    f"(known: {tuple(TRAINING_WORKLOADS)})"
                )
        for scale in self.scales:
            if scale not in SCALE_SPECS:
                raise ValueError(
                    f"unknown scale {scale!r} (known: {sorted(SCALE_SPECS)})"
                )
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")

    @property
    def cell_count(self) -> int:
        """Grid cells (excluding baselines and seed replicas)."""
        return (
            len(self.budgets)
            * len(self.defenses)
            * len(self.workloads)
            * len(self.scales)
        )

    def config(self, defense: DefenseConfig, budget: float) -> PibeConfig:
        return PibeConfig.hardened(
            defense,
            icp_budget=budget,
            inline_budget=budget,
            lax_heuristics=self.lax_heuristics,
        )

    def describe(self) -> str:
        return (
            f"{len(self.defenses)} defenses x {len(self.budgets)} budgets x "
            f"{len(self.workloads)} workloads x {len(self.scales)} scales, "
            f"{self.seeds} seed(s) -> {self.cell_count} cells"
        )


#: Acceptance-sized grid: 3 defenses x 3 budgets x 2 workloads, 2 seeds.
#: The 0.5 budget anchors the low end where the cheap-per-branch CFI
#: undercuts retpolines, so the retpolines/llvm_cfi crossover falls
#: inside the grid.
FAST_GRID = SweepGrid(
    budgets=(0.5, 0.9, 0.999999),
    defenses=(
        DefenseConfig.retpolines_only(),
        DefenseConfig.llvm_cfi_only(),
        DefenseConfig.all_defenses(),
    ),
    workloads=("lmbench", "apache"),
    scales=("small",),
    seeds=2,
)

#: Paper-scale grid over the default kernel.
DEFAULT_GRID = SweepGrid(
    budgets=(0.5,) + PAPER_BUDGETS,
    defenses=(
        DefenseConfig.retpolines_only(),
        DefenseConfig.ret_retpolines_only(),
        DefenseConfig.lvi_only(),
        DefenseConfig.llvm_cfi_only(),
        DefenseConfig.all_defenses(),
    ),
    workloads=("lmbench", "apache"),
    scales=("default",),
    seeds=3,
)

GRID_PRESETS = {"fast": FAST_GRID, "default": DEFAULT_GRID, "paper": DEFAULT_GRID}


def grid_from_spec(spec: str) -> SweepGrid:
    """A grid from a preset name, a JSON file path, or inline JSON.

    JSON fields (all optional, defaults from the ``fast`` preset):
    ``budgets`` (list of numbers in (0, 1]), ``defenses`` (names from
    :data:`~repro.hardening.defenses.DEFENSE_NAMES`), ``workloads``,
    ``scales``, ``seeds``, ``seed_base``, ``lax`` (bool).
    """
    if spec in GRID_PRESETS:
        return GRID_PRESETS[spec]
    text = spec
    if not spec.lstrip().startswith("{"):
        path = Path(spec)
        if not path.is_file():
            raise ValueError(
                f"--grid {spec!r} is neither a preset "
                f"({sorted(GRID_PRESETS)}), a JSON file, nor inline JSON"
            )
        text = path.read_text()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid grid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("grid JSON must be an object")
    known = {
        "budgets", "defenses", "workloads", "scales",
        "seeds", "seed_base", "lax",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown grid field(s): {sorted(unknown)}")
    base = FAST_GRID
    return SweepGrid(
        budgets=tuple(data.get("budgets", base.budgets)),
        defenses=tuple(
            defense_from_name(n) for n in data["defenses"]
        ) if "defenses" in data else base.defenses,
        workloads=tuple(data.get("workloads", base.workloads)),
        scales=tuple(data.get("scales", base.scales)),
        seeds=int(data.get("seeds", base.seeds)),
        seed_base=int(data.get("seed_base", base.seed_base)),
        lax_heuristics=bool(data.get("lax", base.lax_heuristics)),
    )


# -- result containers --------------------------------------------------------


@dataclass
class SweepCell:
    """One aggregated grid cell: run statistics plus security metrics."""

    scale: str
    workload: str
    defense: str
    budget: float
    #: per-seed geomean overheads, in seed order; ``None`` = failed seed
    geomeans: List[Optional[float]] = field(default_factory=list)
    median: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    iqr: Optional[float] = None
    #: residual-target security metrics of the variant (seed-0 build)
    air: Optional[float] = None
    residual_total: Optional[int] = None
    residual_mean: Optional[float] = None
    on_frontier: bool = False

    @property
    def failed_seeds(self) -> int:
        return sum(1 for g in self.geomeans if g is None)

    @property
    def key(self) -> Tuple[str, str, str, float]:
        return (self.scale, self.workload, self.defense, self.budget)

    def aggregate(self) -> None:
        """Fill median/IQR from the per-seed geomeans (nearest-rank)."""
        good = [g for g in self.geomeans if g is not None]
        if not good:
            return
        q = quartiles(good)
        self.median = q["median"]
        self.q1 = q["q1"]
        self.q3 = q["q3"]
        self.iqr = q["q3"] - q["q1"]


@dataclass(frozen=True)
class Crossover:
    """A budget at which two defenses' overhead curves cross."""

    scale: str
    workload: str
    defense_a: str
    defense_b: str
    budget_low: float
    budget_high: float
    #: linearly interpolated crossing budget in [budget_low, budget_high]
    budget_cross: float
    #: overhead_a - overhead_b at the bracketing budgets
    delta_low: float
    delta_high: float


@dataclass
class SweepRunResult:
    """Measured grid + derived analysis + run accounting."""

    grid: SweepGrid
    cells: List[SweepCell]
    crossovers: List[Crossover] = field(default_factory=list)
    #: run accounting (cell counters, pipeline + cache stats);
    #: *not* part of the deterministic CSV/report output
    stats: Dict[str, Any] = field(default_factory=dict)

    def frontier(self) -> List[SweepCell]:
        return [c for c in self.cells if c.on_frontier]

    def slices(self) -> List[Tuple[str, str]]:
        seen: List[Tuple[str, str]] = []
        for cell in self.cells:
            key = (cell.scale, cell.workload)
            if key not in seen:
                seen.append(key)
        return sorted(seen)

    # -- deterministic renderings -----------------------------------------

    def to_csv(self) -> str:
        """One row per cell, stable order, shortest-round-trip floats."""
        header = (
            "scale,workload,defense,budget,budget_label,seeds,failed_seeds,"
            "overhead_median,overhead_q1,overhead_q3,overhead_iqr,"
            "air,residual_total,residual_mean,on_frontier"
        )
        lines = [header]
        for cell in sorted(self.cells, key=lambda c: c.key):
            lines.append(
                ",".join(
                    [
                        cell.scale,
                        cell.workload,
                        cell.defense,
                        repr(cell.budget),
                        fmt_budget(cell.budget),
                        str(len(cell.geomeans)),
                        str(cell.failed_seeds),
                        _csv_num(cell.median),
                        _csv_num(cell.q1),
                        _csv_num(cell.q3),
                        _csv_num(cell.iqr),
                        _csv_num(cell.air),
                        "" if cell.residual_total is None
                        else str(cell.residual_total),
                        _csv_num(cell.residual_mean),
                        "1" if cell.on_frontier else "0",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def render_report(self, fmt: str = "text") -> str:
        """Rendered per-slice grid, frontier and crossover tables."""
        if fmt not in ("text", "markdown"):
            raise ValueError(f"unknown report format {fmt!r}")
        render = (
            (lambda t: t.to_markdown()) if fmt == "markdown"
            else (lambda t: t.to_text())
        )
        chunks: List[str] = []
        for scale, workload in self.slices():
            table = Table(
                f"Sweep slice: scale={scale} workload={workload}",
                ["defense", "budget", "median", "IQR", "AIR", "frontier"],
                notes=[self.grid.describe()],
            )
            rows = sorted(
                (c for c in self.cells
                 if c.scale == scale and c.workload == workload),
                key=lambda c: (c.defense, c.budget),
            )
            for cell in rows:
                table.add_row(
                    cell.defense,
                    fmt_budget(cell.budget),
                    "-" if cell.median is None else pct(cell.median),
                    "-" if cell.iqr is None else pct(cell.iqr, digits=2),
                    "-" if cell.air is None else f"{cell.air:.4f}",
                    "*" if cell.on_frontier else "",
                )
            chunks.append(render(table))

        frontier = Table(
            "Pareto frontier (overhead v, AIR ^)",
            ["scale", "workload", "defense", "budget", "median", "AIR"],
        )
        for cell in sorted(self.frontier(), key=lambda c: c.key):
            frontier.add_row(
                cell.scale,
                cell.workload,
                cell.defense,
                fmt_budget(cell.budget),
                "-" if cell.median is None else pct(cell.median),
                "-" if cell.air is None else f"{cell.air:.4f}",
            )
        chunks.append(render(frontier))

        crossings = Table(
            "Budget crossover points (overhead_a - overhead_b flips sign)",
            ["scale", "workload", "defense a", "defense b",
             "bracket", "crossover"],
        )
        for x in self.crossovers:
            crossings.add_row(
                x.scale,
                x.workload,
                x.defense_a,
                x.defense_b,
                f"{fmt_budget(x.budget_low)}..{fmt_budget(x.budget_high)}",
                # Interpolated, not a grid point: fixed precision beats
                # fmt_budget's exact round-trip here.
                f"{x.budget_cross * 100.0:.2f}%",
            )
        chunks.append(render(crossings))
        return "\n\n".join(chunks) + "\n"


def _csv_num(value: Optional[float]) -> str:
    if value is None:
        return ""
    return format(value, ".9g")


# -- analysis -----------------------------------------------------------------


def mark_pareto_frontier(cells: Sequence[SweepCell]) -> None:
    """Set ``on_frontier`` per (scale, workload) slice.

    A cell dominates another when it is no slower *and* no less secure,
    and strictly better on at least one axis. Cells without a median or
    AIR (all seeds failed / no security metrics) never enter the
    frontier.
    """
    for cell in cells:
        cell.on_frontier = False
    slices: Dict[Tuple[str, str], List[SweepCell]] = {}
    for cell in cells:
        slices.setdefault((cell.scale, cell.workload), []).append(cell)
    for group in slices.values():
        scored = [
            c for c in group if c.median is not None and c.air is not None
        ]
        for cell in scored:
            dominated = any(
                other is not cell
                and other.median <= cell.median
                and other.air >= cell.air
                and (other.median < cell.median or other.air > cell.air)
                for other in scored
            )
            cell.on_frontier = not dominated


def find_crossovers(
    cells: Sequence[SweepCell], grid: SweepGrid
) -> List[Crossover]:
    """Budget crossover points for every defense pair, per slice.

    For each (scale, workload) slice and defense pair (a, b) with
    ``label(a) < label(b)``, scan the budget grid in order and bracket
    every sign change of ``overhead_a(budget) - overhead_b(budget)``;
    the crossing budget is linearly interpolated within the bracket. A
    delta that is exactly zero at a grid point is a crossover at that
    budget.
    """
    by_key: Dict[Tuple[str, str, str, float], SweepCell] = {
        c.key: c for c in cells
    }
    budgets = sorted(set(grid.budgets))
    labels = sorted({c.defense for c in cells})
    out: List[Crossover] = []
    for scale, workload in sorted({(c.scale, c.workload) for c in cells}):
        for i, label_a in enumerate(labels):
            for label_b in labels[i + 1:]:
                deltas: List[Tuple[float, float]] = []
                for budget in budgets:
                    a = by_key.get((scale, workload, label_a, budget))
                    b = by_key.get((scale, workload, label_b, budget))
                    if (
                        a is None or b is None
                        or a.median is None or b.median is None
                    ):
                        continue
                    deltas.append((budget, a.median - b.median))
                for (b1, d1), (b2, d2) in zip(deltas, deltas[1:]):
                    if d1 == 0.0:
                        out.append(Crossover(
                            scale, workload, label_a, label_b,
                            b1, b1, b1, d1, d1,
                        ))
                    elif d1 * d2 < 0.0:
                        t = d1 / (d1 - d2)
                        out.append(Crossover(
                            scale, workload, label_a, label_b,
                            b1, b2, b1 + t * (b2 - b1), d1, d2,
                        ))
                if deltas and deltas[-1][1] == 0.0:
                    b_last, d_last = deltas[-1]
                    out.append(Crossover(
                        scale, workload, label_a, label_b,
                        b_last, b_last, b_last, d_last, d_last,
                    ))
    return out


# -- runners ------------------------------------------------------------------


def run_sweep(
    grid: SweepGrid,
    settings: Optional[EvalSettings] = None,
    benches: Optional[Sequence[Benchmark]] = None,
    jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    kernels: Optional[Dict[str, "Module"]] = None,  # noqa: F821
    prewarm: bool = True,
    security: bool = True,
    client: Optional["ServeClient"] = None,  # noqa: F821
) -> SweepRunResult:
    """Measure the grid and return the aggregated result.

    Locally, one :class:`EvalContext` runs per (scale, seed) replica; all
    replicas of one scale share the built kernel, and every context
    shares ``settings.cache_dir``, so staged prefixes and measurements
    persist across replicas and across repeated runs (the warm path).
    ``jobs``, when given, replaces ``settings.jobs`` for every replica.

    With ``client`` (a connected ``repro serve`` client) the same grid
    runs against the server instead: measurements go through its
    ``measure_many`` op and security metrics through its ``security``
    op, so a long-lived server amortizes the build work across sweeps.
    The server owns one kernel and one seed, so the grid's scales
    collapse to ``"serve"`` and its seeds to 1 (a note is logged when
    the grid asked for more); ``settings``, ``jobs``, ``kernels`` and
    ``prewarm`` are then unused.

    With ``prewarm`` (and a disk cache plus ``jobs > 1``), each workload
    group's distinct cold optimized prefixes are built in parallel ahead
    of measurement via :meth:`EvalContext.prewarm_prefixes`, so the
    serial build_variant path inside the measurement fan-out finds them
    as disk hits instead of serializing the cold builds.

    ``security=False`` skips the residual-target security attachment
    (which builds every seed-0 variant in this process for analysis) —
    for overhead-only sweeps and build-phase benchmarks.

    ``kernels`` optionally maps scale names to prebuilt modules. Kernel
    generation allocates site ids from a process-global counter, so a
    *rebuilt* kernel carries shifted ids and a different fingerprint —
    it shares no profile, prefix or measured cache entry with an earlier
    in-process run. Callers timing warm reruns (the sweep benchmark)
    pass the same kernel to every run. Across processes only a kernel
    built first in its process is shared for free (id allocation
    restarts). A later scale's kernel is built after the earlier scales'
    variants, which a warm rerun loads from disk instead of building, so
    its ids, and every cache entry keyed on them, differ from the cold
    run's.
    """
    settings = settings or EvalSettings()
    if jobs is not None:
        settings = dataclasses.replace(settings, jobs=jobs)
    benches = tuple(benches) if benches is not None else tuple(LMBENCH_BENCHMARKS)
    say = log or (lambda message: None)
    scales, seeds = grid.scales, grid.seeds
    if client is not None:
        if len(scales) > 1 or seeds > 1:
            say(
                "connect mode: the server has one kernel and one seed — "
                f"collapsing scales={scales} seeds={seeds} to "
                "scale='serve', seeds=1"
            )
        scales, seeds = ("serve",), 1

    points = [(d, b) for d in grid.defenses for b in grid.budgets]
    cells: Dict[Tuple[str, str, str, float], SweepCell] = {}
    for scale in scales:
        for workload in grid.workloads:
            for defense, budget in points:
                cell = SweepCell(scale, workload, defense.label(), budget)
                cells[cell.key] = cell
    stats: Dict[str, Any] = {
        "cells_requested": 0,
        "contexts": 0,
        "failed_cells": 0,
    }

    def run_replica(scale: str, measure, secure) -> None:
        """Every workload group of one replica. ``measure(configs,
        workload)`` returns per-config results (``None`` = failed cell);
        ``secure(config, workload)`` returns the variant's security
        metrics, and is ``None`` on all but the first replica."""
        for workload in grid.workloads:
            configs = [PibeConfig.lto_baseline()]
            configs.extend(grid.config(d, b) for d, b in points)
            results = measure(configs, workload)
            stats["cells_requested"] += len(configs)
            baseline = results[0]
            for (defense, budget), config, values in zip(
                points, configs[1:], results[1:]
            ):
                cell = cells[(scale, workload, defense.label(), budget)]
                if baseline is None or values is None:
                    cell.geomeans.append(None)
                    stats["failed_cells"] += 1
                else:
                    cell.geomeans.append(
                        build_overhead_report(
                            cell.defense, baseline, values
                        ).geomean
                    )
                if secure is None:
                    continue
                try:
                    metrics = secure(config, workload)
                except Exception as exc:  # noqa: BLE001 — cell keeps a gap
                    say(f"security metrics failed for {config.label()}: "
                        f"{type(exc).__name__}: {exc}")
                    continue
                cell.air = metrics.air
                cell.residual_total = metrics.residual_total
                cell.residual_mean = metrics.residual_mean

    if client is not None:
        from types import SimpleNamespace

        def measure_served(configs, workload):
            say(f"workload={workload}: measure_many over "
                f"{len(configs)} cell(s)")
            return client.measure_many(
                configs, benches=[b.name for b in benches], workload=workload
            )["results"]

        def secure_served(config, workload):
            metrics = client.security(config, workload)["metrics"]
            return SimpleNamespace(**metrics)

        run_replica(
            "serve", measure_served, secure_served if security else None
        )
        stats["connected"] = True
        try:
            stats["server_counters"] = client.stats()["server"]["counters"]
        except Exception:  # noqa: BLE001 — stats are best-effort
            pass
    else:
        pipeline_stats: Dict[str, int] = {}
        cache_hits = cache_misses = 0
        for scale in scales:
            spec = SCALE_SPECS[scale]
            kernel = (kernels or {}).get(scale)
            if kernel is None:
                kernel = build_kernel(spec)
            for replica in range(seeds):
                seed = grid.seed_base + replica
                replica_settings = dataclasses.replace(
                    settings, spec=spec, seed=seed
                )
                say(f"scale={scale} seed={seed}: measuring "
                    f"{len(grid.workloads)} workload group(s)")
                with EvalContext(replica_settings, kernel=kernel) as ctx:
                    stats["contexts"] += 1

                    def measure_local(configs, workload):
                        if prewarm:
                            warmed = ctx.prewarm_prefixes(configs, workload)
                            if warmed:
                                say(
                                    f"scale={scale} seed={seed} "
                                    f"workload={workload}: prewarmed "
                                    f"{warmed} prefix(es)"
                                )
                        return ctx.measure_many(configs, benches, workload)

                    run_replica(
                        scale,
                        measure_local,
                        ctx.security if replica == 0 and security else None,
                    )
                    for key, value in ctx.pipeline.stats.items():
                        pipeline_stats[key] = (
                            pipeline_stats.get(key, 0) + value
                        )
                    if ctx.cache is not None:
                        snapshot = ctx.cache.stats()
                        cache_hits += snapshot.get("hits", 0)
                        cache_misses += snapshot.get("misses", 0)
        stats["pipeline"] = {
            k: pipeline_stats[k] for k in sorted(pipeline_stats)
        }
        stats["disk_cache"] = {"hits": cache_hits, "misses": cache_misses}

    for cell in cells.values():
        cell.aggregate()
    ordered = [cells[key] for key in sorted(cells)]
    mark_pareto_frontier(ordered)
    return SweepRunResult(
        grid=grid,
        cells=ordered,
        crossovers=find_crossovers(ordered, grid),
        stats=stats,
    )
