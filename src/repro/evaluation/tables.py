"""Generators for every table and figure in the paper's evaluation.

Each ``tableN`` function runs the corresponding experiment on an
:class:`~repro.evaluation.harness.EvalContext` and returns a rendered
:class:`~repro.evaluation.formatting.Table` plus the raw data the tests
assert on. Paper reference values appear in the table notes so printed
output is self-describing (paper-vs-measured also lands in
EXPERIMENTS.md).

Every experiment except Figure 1 renders from the context's cells,
memoized and disk-cached, so a warm run builds no variant and runs no
engine. A table that measures hands its (config, workload) cells to
:meth:`~repro.evaluation.harness.EvalContext.measure_many` before it
reads them, in the order it reads them: at ``settings.jobs > 1`` the
cells fan out over the context's worker pool, and at ``jobs == 1`` they
are measured inline in that same order. The cell list lives only here.
The other cells are computed inline in the tables' order: Table 1's
defense costs, Table 7's throughput, Tables 8-12's static census of
each variant and Table 12's peak stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.gadgets import (
    CandidateStats,
    EliminationStats,
    ForwardEdgeCensus,
    candidate_stats,
    elimination_stats,
    target_count_distribution,
)
from repro.analysis.robustness import workload_overlap
from repro.analysis.sizes import SizeReport, size_report
from repro.core.config import PibeConfig
from repro.core.report import build_overhead_report, geomean_overhead
from repro.evaluation.formatting import Table, fmt_budget, pct, ticks, us
from repro.evaluation.harness import EvalContext, measure_defense_costs
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import Opcode
from repro.passes.inliner import InlineReport, PibeInliner
from repro.profiling.profile_data import EdgeProfile
from repro.workloads.lmbench import LMBENCH_BENCHMARKS, TABLE3_BENCHMARKS
from repro.workloads.macro import ALL_MACROBENCHMARKS
from repro.workloads.spec import geomean_slowdown

#: Defense configurations in Table 1 row order.
TABLE1_CONFIGS: List[Tuple[str, DefenseConfig]] = [
    ("uninstrumented", DefenseConfig.none()),
    ("LLVM-CFI", DefenseConfig.llvm_cfi_only()),
    (
        "stackprotector",
        DefenseConfig(
            nontransient=frozenset({NonTransientDefense.STACKPROTECTOR})
        ),
    ),
    (
        "safestack",
        DefenseConfig(nontransient=frozenset({NonTransientDefense.SAFESTACK})),
    ),
    ("LVI-CFI", DefenseConfig.lvi_only()),
    ("retpolines", DefenseConfig.retpolines_only()),
    (
        "retpolines + LVI-CFI",
        DefenseConfig(retpolines=True, lvi_cfi=True),
    ),
    ("return retpolines", DefenseConfig.ret_retpolines_only()),
    ("all defenses", DefenseConfig.all_defenses()),
]

#: Optimization budgets swept by the census tables (paper Tables 8-11).
CENSUS_BUDGETS = (0.99, 0.999, 0.999999)


# ---------------------------------------------------------------------------
# Table 1 — per-branch defense costs and SPEC-like slowdown
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    table: Table
    ticks: Dict[str, Dict[str, float]]
    spec_slowdowns: Dict[str, float]


def table1(
    ctx: Optional[EvalContext] = None,
    iterations: int = 1000,
    spec_iterations: int = 40,
) -> Table1Result:
    """Overhead of control-flow hijacking mitigations in clock ticks per
    call kind, plus geometric-mean slowdown on the SPEC-like suite.

    Read from ``ctx``'s defense-costs cell, or measured directly without
    a context; either way on the default engine."""
    if ctx is None:
        costs = measure_defense_costs(TABLE1_CONFIGS, iterations, spec_iterations)
    else:
        costs = ctx.defense_costs(TABLE1_CONFIGS, iterations, spec_iterations)
    all_ticks = costs.ticks
    slowdowns = {
        label: geomean_slowdown(per_component)
        for label, per_component in costs.spec_slowdowns.items()
    }
    table = Table(
        "Table 1: per-branch overhead (ticks) and SPEC-like slowdown",
        ["defense", "dcall", "icall", "vcall", "spec %"],
        notes=[
            "paper: LVI-CFI 11/20/23/29.4%, retpolines 1/21/21/16.1%, "
            "retpolines+LVI 14/53/54/44.3%, return retpolines "
            "16/16/16/23.2%, all 32/73/71/62.0%",
        ],
    )
    for label, per_kind in all_ticks.items():
        table.add_row(
            label,
            ticks(per_kind["dcall"]),
            ticks(per_kind["icall"]),
            ticks(per_kind["vcall"]),
            pct(slowdowns[label]),
        )
    return Table1Result(table, all_ticks, slowdowns)


# ---------------------------------------------------------------------------
# Table 2 — LTO vs PIBE (PGO-only) baselines
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    table: Table
    lto: Dict[str, float]
    pibe: Dict[str, float]
    geomean: float


def table2(ctx: EvalContext) -> Table2Result:
    """The two baselines: vanilla LTO latency vs the PGO-optimized kernel
    with no defenses (paper geomean: -6.6%)."""
    ctx.measure_many([PibeConfig.lto_baseline(), PibeConfig.pibe_baseline()])
    lto = ctx.lto_measurements()
    pibe = ctx.measure(PibeConfig.pibe_baseline())
    report = build_overhead_report("pibe-baseline", lto, pibe)
    table = Table(
        "Table 2: LTO baseline vs PIBE (PGO) baseline",
        ["test", "LTO (us)", "PIBE (us)", "overhead"],
        notes=["paper geomean: -6.6% (PGO speeds the kernel up)"],
    )
    for row in report.rows:
        table.add_row(
            row.benchmark,
            us(row.baseline_value),
            us(row.value),
            pct(row.overhead, signed=True),
        )
    table.add_row("geomean", "-", "-", pct(report.geomean, signed=True))
    return Table2Result(table, lto, pibe, report.geomean)


# ---------------------------------------------------------------------------
# Table 3 — retpolines vs JumpSwitches vs static ICP
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    table: Table
    geomeans: Dict[str, float]
    overheads: Dict[str, Dict[str, float]]


def table3(ctx: EvalContext) -> Table3Result:
    """Retpoline overheads: unoptimized vs JumpSwitches' runtime promotion
    vs PIBE's static ICP at two budgets (paper geomeans: 20.2%, 5.0%,
    3.9%, 1.3%)."""
    benches = TABLE3_BENCHMARKS
    retpolines = DefenseConfig.retpolines_only()
    unoptimized = PibeConfig.hardened(retpolines)
    icp_99 = PibeConfig.hardened(retpolines, icp_budget=0.99)
    icp_99999 = PibeConfig.hardened(retpolines, icp_budget=0.99999)
    # JumpSwitches is a cell of its own kind, outside the batch: it runs
    # on the unoptimized retpolines build, which at jobs=1 the batch built.
    ctx.measure_many(
        [PibeConfig.lto_baseline(), unoptimized, icp_99, icp_99999], benches
    )
    lto = ctx.lto_measurements(benches)
    columns = {
        "retpolines": ctx.measure(unoptimized, benches),
        "jumpswitches": ctx.measure_jumpswitches(benches),
        "icp 99%": ctx.measure(icp_99, benches),
        "icp 99.999%": ctx.measure(icp_99999, benches),
    }
    overheads = {
        label: build_overhead_report(label, lto, values).overheads()
        for label, values in columns.items()
    }
    geomeans = {
        label: geomean_overhead(per_bench.values())
        for label, per_bench in overheads.items()
    }
    table = Table(
        "Table 3: retpolines overhead vs LTO baseline",
        ["test", "retpolines", "jumpswitches", "icp 99%", "icp 99.999%"],
        notes=["paper geomeans: 20.2% / 5.0% / 3.9% / 1.3%"],
    )
    for bench in benches:
        table.add_row(
            bench.name,
            *(pct(overheads[c][bench.name]) for c in columns),
        )
    table.add_row("geomean", *(pct(geomeans[c]) for c in columns))
    return Table3Result(table, geomeans, overheads)


# ---------------------------------------------------------------------------
# Table 4 — indirect-call target distribution
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    table: Table
    distribution: Dict[str, int]


def table4(ctx: EvalContext) -> Table4Result:
    """Number of profiled indirect calls per observed-target count (paper:
    517 / 109 / 34 / 23 / 6 / 12 / 22 — most sites have one target, with a
    heavy multi-target tail)."""
    distribution = target_count_distribution(ctx.profile("lmbench"))
    table = Table(
        "Table 4: indirect calls by number of runtime targets",
        ["targets"] + list(distribution.keys()),
        notes=["paper: 517, 109, 34, 23, 6, 12, 22"],
    )
    table.add_row("indirect calls", *(str(v) for v in distribution.values()))
    return Table4Result(table, distribution)


# ---------------------------------------------------------------------------
# Table 5 — comprehensive protection across budgets
# ---------------------------------------------------------------------------


def _table5_configs() -> List[Tuple[str, PibeConfig]]:
    all_def = DefenseConfig.all_defenses()
    return [
        ("no opt", PibeConfig.hardened(all_def)),
        ("+icp 99.999%", PibeConfig.hardened(all_def, icp_budget=0.99999)),
        (
            "+inl 99%",
            PibeConfig.hardened(
                all_def, icp_budget=0.99999, inline_budget=0.99
            ),
        ),
        (
            "+inl 99.9%",
            PibeConfig.hardened(
                all_def, icp_budget=0.99999, inline_budget=0.999
            ),
        ),
        (
            "+inl 99.9999%",
            PibeConfig.hardened(
                all_def, icp_budget=0.99999, inline_budget=0.999999
            ),
        ),
        ("lax heuristics", PibeConfig.lax(all_def)),
    ]


@dataclass
class Table5Result:
    table: Table
    geomeans: Dict[str, float]
    overheads: Dict[str, Dict[str, float]]


def table5(ctx: EvalContext) -> Table5Result:
    """All defenses enabled, across ICP/inlining budgets (paper geomeans:
    149.1 / 133.1 / 28.0 / 15.9 / 12.7 / 10.6%)."""
    configs = _table5_configs()
    ctx.measure_many([PibeConfig.lto_baseline()] + [c for _, c in configs])
    lto = ctx.lto_measurements()
    overheads: Dict[str, Dict[str, float]] = {}
    geomeans: Dict[str, float] = {}
    labels = []
    for label, config in configs:
        measured = ctx.measure(config)
        report = build_overhead_report(label, lto, measured)
        overheads[label] = report.overheads()
        geomeans[label] = report.geomean
        labels.append(label)
    table = Table(
        "Table 5: overhead with all defenses enabled",
        ["test"] + labels,
        notes=["paper geomeans: 149.1 / 133.1 / 28.0 / 15.9 / 12.7 / 10.6%"],
    )
    for bench in LMBENCH_BENCHMARKS:
        table.add_row(
            bench.name, *(pct(overheads[c][bench.name]) for c in labels)
        )
    table.add_row("geomean", *(pct(geomeans[c]) for c in labels))
    return Table5Result(table, geomeans, overheads)


# ---------------------------------------------------------------------------
# Table 6 — per-defense geomean, LTO vs PIBE
# ---------------------------------------------------------------------------


@dataclass
class Table6Result:
    table: Table
    lto_geomeans: Dict[str, float]
    pibe_geomeans: Dict[str, float]


def table6(ctx: EvalContext) -> Table6Result:
    """Geomean overhead per defense, unoptimized vs PIBE's optimal
    configuration (paper: none -6.6, retpolines 20.2→1.3, return
    retpolines 63.4→3.7, LVI-CFI 61.9→1.8, all 149.1→10.6)."""
    rows = [
        ("None", None, PibeConfig.pibe_baseline()),
        (
            "Retpolines",
            PibeConfig.hardened(DefenseConfig.retpolines_only()),
            PibeConfig.hardened(
                DefenseConfig.retpolines_only(), icp_budget=0.99999
            ),
        ),
        (
            "Return retpolines",
            PibeConfig.hardened(DefenseConfig.ret_retpolines_only()),
            PibeConfig.lax(DefenseConfig.ret_retpolines_only()),
        ),
        (
            "LVI-CFI",
            PibeConfig.hardened(DefenseConfig.lvi_only()),
            PibeConfig.lax(DefenseConfig.lvi_only()),
        ),
        (
            "All",
            PibeConfig.hardened(DefenseConfig.all_defenses()),
            PibeConfig.lax(DefenseConfig.all_defenses()),
        ),
    ]
    cells = [PibeConfig.lto_baseline()]
    for _, lto_config, pibe_config in rows:
        if lto_config is not None:
            cells.append(lto_config)
        cells.append(pibe_config)
    ctx.measure_many(cells)
    lto = ctx.lto_measurements()

    def geo(config: PibeConfig) -> float:
        return build_overhead_report(
            config.label(), lto, ctx.measure(config)
        ).geomean

    lto_geomeans: Dict[str, float] = {}
    pibe_geomeans: Dict[str, float] = {}
    table = Table(
        "Table 6: LMBench geomean overhead per defense",
        ["defense", "LTO", "PIBE"],
        notes=[
            "paper: None 0/-6.6, Retpolines 20.2/1.3, Return retpolines "
            "63.4/3.7, LVI-CFI 61.9/1.8, All 149.1/10.6",
        ],
    )
    for label, lto_config, pibe_config in rows:
        lto_geo = geo(lto_config) if lto_config is not None else 0.0
        pibe_geo = geo(pibe_config)
        lto_geomeans[label] = lto_geo
        pibe_geomeans[label] = pibe_geo
        table.add_row(label, pct(lto_geo), pct(pibe_geo))
    return Table6Result(table, lto_geomeans, pibe_geomeans)


# ---------------------------------------------------------------------------
# Table 7 — macrobenchmark throughput
# ---------------------------------------------------------------------------


@dataclass
class Table7Result:
    table: Table
    #: app -> config label -> (unoptimized degradation, PIBE degradation)
    degradations: Dict[str, Dict[str, Tuple[float, float]]]
    vanilla_throughput: Dict[str, float]


def table7(ctx: EvalContext, batches: int = 30) -> Table7Result:
    """Nginx/Apache/DBench throughput degradation per defense config,
    without and with PIBE's optimizations (paper Table 7)."""
    defense_rows: List[Tuple[str, DefenseConfig]] = [
        ("w/retpolines", DefenseConfig.retpolines_only()),
        ("w/ret-retpolines", DefenseConfig.ret_retpolines_only()),
        ("w/LVI-CFI", DefenseConfig.lvi_only()),
        ("w/all-defenses", DefenseConfig.all_defenses()),
    ]
    degradations: Dict[str, Dict[str, Tuple[float, float]]] = {}
    vanilla_throughput: Dict[str, float] = {}
    table = Table(
        "Table 7: throughput degradation (Nginx / Apache / DBench)",
        ["app", "config", "vanilla", "no opt", "PIBE"],
        notes=[
            "paper (all-defenses row): Nginx -51.7%/-6.0%, Apache "
            "-39.3%/-7.9%, DBench -45.6%/-6.7%",
        ],
    )
    for app in ALL_MACROBENCHMARKS:
        base = ctx.throughput(PibeConfig.lto_baseline(), app, batches)
        vanilla_throughput[app.name] = base.throughput
        degradations[app.name] = {}
        for label, defenses in defense_rows:
            if defenses.ret_retpolines or defenses.lvi_cfi:
                pibe_config = PibeConfig.lax(defenses)
            else:
                pibe_config = PibeConfig.hardened(defenses, icp_budget=0.99999)
            unopt = ctx.throughput(PibeConfig.hardened(defenses), app, batches)
            pibe = ctx.throughput(pibe_config, app, batches)
            degradation = (unopt.degradation_vs(base), pibe.degradation_vs(base))
            degradations[app.name][label] = degradation
            table.add_row(
                app.name,
                label,
                f"{base.throughput:,.0f} {app.unit}",
                pct(degradation[0], signed=True),
                pct(degradation[1], signed=True),
            )
    return Table7Result(table, degradations, vanilla_throughput)


# ---------------------------------------------------------------------------
# Tables 8-11 — elimination and protection censuses
# ---------------------------------------------------------------------------


def _census_config(budget: float) -> PibeConfig:
    return PibeConfig.hardened(
        DefenseConfig.all_defenses(), icp_budget=budget, inline_budget=budget
    )


@dataclass
class Table8Result:
    table: Table
    stats: Dict[float, EliminationStats]


def table8(ctx: EvalContext) -> Table8Result:
    """Indirect-branch gadgets eliminated per budget (paper Table 8)."""
    total_returns = ctx.census(
        PibeConfig.hardened(DefenseConfig.all_defenses())
    ).returns
    stats: Dict[float, EliminationStats] = {}
    table = Table(
        "Table 8: gadgets eliminated by PIBE",
        [
            "budget",
            "icp weight",
            "icp w%",
            "call sites",
            "sites%",
            "targets",
            "targets%",
            "ret weight",
            "ret w%",
            "ret sites",
            "ret sites%",
        ],
        notes=[
            "paper at 99%: icp weight 98.8%, sites 17.2%, targets 12.3%; "
            "returns weight 93.9%, sites 13.6%",
        ],
    )
    for budget in CENSUS_BUDGETS:
        census = ctx.census(_census_config(budget))
        row = elimination_stats(budget, census.icp, census.inline, total_returns)
        stats[budget] = row
        table.add_row(
            fmt_budget(budget),
            str(row.icp_weight),
            pct(row.icp_weight_fraction),
            str(row.icp_sites),
            pct(row.icp_sites_fraction),
            str(row.icp_targets),
            pct(row.icp_targets_fraction),
            str(row.return_weight),
            pct(row.return_weight_fraction),
            str(row.return_sites),
            pct(row.return_sites_fraction),
        )
    return Table8Result(table, stats)


@dataclass
class Table9Result:
    table: Table
    reports: Dict[float, InlineReport]


def table9(ctx: EvalContext) -> Table9Result:
    """Inlining weight blocked by Rule 2 / Rule 3 / other (paper Table 9:
    Rule 3 blocks ~4x more weight than Rule 2; together ~4%)."""
    reports: Dict[float, InlineReport] = {}
    table = Table(
        "Table 9: weight not elided due to size heuristics",
        ["budget", "Ovr.", "Rule 2", "%", "Rule 3", "%", "other", "%"],
        notes=[
            "paper at 99%: Rule 2 0.7%, Rule 3 3.35%, other 1.93% of "
            "overall eligible weight",
        ],
    )
    for budget in CENSUS_BUDGETS:
        inline_report = ctx.census(_census_config(budget)).inline
        reports[budget] = inline_report
        total = max(inline_report.candidate_weight, 1)
        table.add_row(
            fmt_budget(budget),
            str(inline_report.candidate_weight),
            str(inline_report.blocked_rule2_weight),
            pct(inline_report.blocked_rule2_weight / total, 2),
            str(inline_report.blocked_rule3_weight),
            pct(inline_report.blocked_rule3_weight / total, 2),
            str(inline_report.blocked_other_weight),
            pct(inline_report.blocked_other_weight / total, 2),
        )
    return Table9Result(table, reports)


@dataclass
class Table10Result:
    table: Table
    stats: Dict[float, CandidateStats]


def table10(ctx: EvalContext) -> Table10Result:
    """Initial candidates relative to all kernel indirect branches (paper
    Table 10: at most ~3% of icalls / ~7.5% of returns are touched)."""
    module_icalls = ctx.census(
        PibeConfig.hardened(DefenseConfig.all_defenses())
    ).icalls
    stats: Dict[float, CandidateStats] = {}
    table = Table(
        "Table 10: optimization candidates vs total indirect branches",
        [
            "budget",
            "icalls total",
            "icp candidates",
            "icp %",
            "returns total",
            "inline candidates",
            "inline %",
        ],
        notes=[
            "paper: icp 0.59-3.09% of 20,927 icalls; inlining 1.14-7.5% "
            "of ~133k returns",
        ],
    )
    for budget in CENSUS_BUDGETS:
        census = ctx.census(_census_config(budget))
        row = candidate_stats(
            budget, module_icalls, census.returns, census.icp, census.inline
        )
        stats[budget] = row
        table.add_row(
            fmt_budget(budget),
            str(row.total_icalls),
            str(row.icp_candidates),
            pct(row.icp_fraction, 2),
            str(row.total_returns),
            str(row.inline_candidates),
            pct(row.inline_fraction, 2),
        )
    return Table10Result(table, stats)


@dataclass
class Table11Result:
    table: Table
    censuses: Dict[str, ForwardEdgeCensus]


def table11(ctx: EvalContext) -> Table11Result:
    """Forward edges protected vs vulnerable (paper Table 11: protected
    icalls grow with budget via duplication; a small inline-assembly
    residue stays vulnerable; 5 indirect jumps remain)."""
    configs: List[Tuple[str, PibeConfig]] = [
        ("no opt", PibeConfig.hardened(DefenseConfig.all_defenses()))
    ]
    for budget in CENSUS_BUDGETS:
        configs.append((fmt_budget(budget), _census_config(budget)))
    censuses: Dict[str, ForwardEdgeCensus] = {}
    table = Table(
        "Table 11: forward edges protected/vulnerable under all defenses",
        ["config", "def. icalls", "vuln. icalls", "vuln. ijumps"],
        notes=[
            "paper: 20927/41/5 unoptimized, protected count grows and "
            "vulnerable icalls duplicate with budget (up to 26066/170/5)",
        ],
    )
    for label, config in configs:
        census = ctx.census(config).forward_edges
        censuses[label] = census
        table.add_row(
            label,
            str(census.defended_icalls),
            str(census.vulnerable_icalls),
            str(census.vulnerable_ijumps),
        )
    return Table11Result(table, censuses)


# ---------------------------------------------------------------------------
# Table 12 — size and memory growth
# ---------------------------------------------------------------------------


@dataclass
class Table12Result:
    table: Table
    reports: Dict[str, SizeReport]


def table12(ctx: EvalContext) -> Table12Result:
    """Kernel size and memory usage per configuration/budget (paper Table
    12: 8-37% abs size growth depending on budget)."""
    lto = ctx.census(PibeConfig.lto_baseline())
    rows: List[Tuple[str, DefenseConfig, float]] = [
        ("all-defenses @99%", DefenseConfig.all_defenses(), 0.99),
        ("all-defenses @99.9%", DefenseConfig.all_defenses(), 0.999),
        ("all-defenses @99.9999%", DefenseConfig.all_defenses(), 0.999999),
        ("retpolines @99.999%", DefenseConfig.retpolines_only(), 0.99999),
        ("LVI-CFI @99%", DefenseConfig.lvi_only(), 0.99),
        ("LVI-CFI @99.9999%", DefenseConfig.lvi_only(), 0.999999),
        ("ret-retpolines @99%", DefenseConfig.ret_retpolines_only(), 0.99),
        (
            "ret-retpolines @99.9999%",
            DefenseConfig.ret_retpolines_only(),
            0.999999,
        ),
    ]
    reports: Dict[str, SizeReport] = {}
    table = Table(
        "Table 12: size and memory increase due to the algorithms",
        ["config", "abs size", "img size", "mem size", "slab", "dyn"],
        notes=[
            "paper all-defenses: 8.1/13.8/36.8% abs size across budgets; "
            "mem size moves in page-granular steps",
        ],
    )
    for label, defenses, budget in rows:
        if defenses.retpolines and not defenses.ret_retpolines and not defenses.lvi_cfi:
            config = PibeConfig.hardened(defenses, icp_budget=budget)
        else:
            config = PibeConfig.hardened(
                defenses, icp_budget=budget, inline_budget=budget
            )
        unopt_config = PibeConfig.hardened(defenses)
        variant = ctx.census(config)
        unopt = ctx.census(unopt_config)
        report = size_report(
            label,
            (variant.text_bytes, variant.slab_bytes),
            (unopt.text_bytes, unopt.slab_bytes),
            lto.text_bytes,
            (ctx.peak_stack(config), ctx.peak_stack(unopt_config)),
        )
        reports[label] = report
        table.add_row(
            label,
            pct(report.abs_size_increase),
            pct(report.img_size_increase),
            pct(report.mem_size_increase),
            pct(report.slab_size_increase, 2),
            pct(report.dyn_size_increase, 2),
        )
    return Table12Result(table, reports)


# ---------------------------------------------------------------------------
# Section 8.4 — workload robustness
# ---------------------------------------------------------------------------


@dataclass
class RobustnessResult:
    table: Table
    matched_geomean: float
    mismatched_geomean: float
    default_inliner_geomean: float
    icp_overlap: float
    inline_overlap: float


def robustness(ctx: EvalContext) -> RobustnessResult:
    """Optimize with the Apache workload, measure LMBench (paper: 22.5% vs
    10.6% matched vs 100.2% with the default inliner), plus candidate
    overlap between the workloads (paper: 58% icp / 67% inlining)."""
    all_def = DefenseConfig.all_defenses()
    # Only the cells measured before the apache-trained one go in the
    # batch: the default-inliner cell is still built after it.
    ctx.measure_many([PibeConfig.lto_baseline(), PibeConfig.lax(all_def)])
    lto = ctx.lto_measurements()

    matched = build_overhead_report(
        "matched", lto, ctx.measure(PibeConfig.lax(all_def))
    ).geomean
    mismatched = build_overhead_report(
        "apache-trained",
        lto,
        ctx.measure(PibeConfig.lax(all_def), workload_name="apache"),
    ).geomean
    default_inliner = build_overhead_report(
        "default-inliner",
        lto,
        ctx.measure(
            PibeConfig(
                defenses=all_def,
                icp_budget=0.999999,
                inline_budget=0.999999,
                use_default_inliner=True,
            )
        ),
    ).geomean

    overlap = workload_overlap(
        ctx.profile("lmbench"), ctx.profile("apache"), budget=0.99
    )
    table = Table(
        "Section 8.4: robustness to workload profiles",
        ["configuration", "LMBench geomean overhead"],
        notes=[
            "paper: 10.6% matched, 22.5% Apache-trained, 100.2% default "
            "inliner; candidate overlap 58% (icp) / 67% (inlining)",
            f"candidate weight overlap at 99% budget: "
            f"icp {overlap.icp_shared_weight_fraction:.0%}, "
            f"inlining {overlap.inline_shared_weight_fraction:.0%}",
        ],
    )
    table.add_row("PIBE (LMBench-trained)", pct(matched))
    table.add_row("PIBE (Apache-trained)", pct(mismatched))
    table.add_row("default LLVM inliner", pct(default_inliner))
    return RobustnessResult(
        table,
        matched,
        mismatched,
        default_inliner,
        overlap.icp_shared_weight_fraction,
        overlap.inline_shared_weight_fraction,
    )


# ---------------------------------------------------------------------------
# Figure 1 — the Rule 3 inlining example
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    table: Table
    inlined_without_rule3: List[str]
    inlined_with_rule3: List[str]


def _figure1_module() -> Tuple[Module, EdgeProfile]:
    """The bar -> foo_1/foo_2/foo_3 example with the paper's counts (1000,
    500, 500) and InlineCosts (12000, 300, 200)."""
    from repro.ir.builder import IRBuilder
    from repro.profiling.lifting import lift_profile

    module = Module("figure1")
    sizes = {"foo_1": 2399, "foo_2": 59, "foo_3": 39}
    for name, body_size in sizes.items():
        func = Function(name, num_params=0, subsystem="example")
        b = IRBuilder(func)
        b.arith(body_size)
        b.ret()
        module.add_function(func)
    bar = Function("bar", num_params=0, subsystem="example")
    b = IRBuilder(bar)
    site_ids = {}
    for name in ("foo_1", "foo_2", "foo_3"):
        inst = b.call(name, num_args=0)
        site_ids[name] = inst.site_id
    b.ret()
    module.add_function(bar)

    profile = EdgeProfile(workload="figure1")
    profile.record_direct(site_ids["foo_1"], 1000)
    profile.record_direct(site_ids["foo_2"], 500)
    profile.record_direct(site_ids["foo_3"], 500)
    profile.record_invocation("bar", 2000)
    for name, count in (("foo_1", 1000), ("foo_2", 500), ("foo_3", 500)):
        profile.record_invocation(name, count)
    lift_profile(module, profile)
    return module, profile


def _run_figure1(callee_threshold: int) -> List[str]:
    module, profile = _figure1_module()
    inliner = PibeInliner(
        profile,
        budget=1.0,
        caller_threshold=12_000,
        callee_threshold=callee_threshold,
    )
    inliner.run(module)
    bar = module.get("bar")
    remaining = {
        inst.callee for inst in bar.call_sites() if inst.opcode == Opcode.CALL
    }
    return sorted(set(["foo_1", "foo_2", "foo_3"]) - remaining)


def figure1() -> Figure1Result:
    """Demonstrates why Rule 3 exists: without it the greedy inliner
    spends bar's whole complexity budget on foo_1; with it, foo_2 and
    foo_3 are inlined (same eliminated weight, budget to spare)."""
    without_rule3 = _run_figure1(callee_threshold=10**9)
    with_rule3 = _run_figure1(callee_threshold=3_000)
    table = Table(
        "Figure 1: greedy inlining with and without Rule 3",
        ["heuristics", "inlined callees"],
        notes=[
            "paper: without Rule 3, inlining foo_1 (cost 12000) depletes "
            "bar's budget; with Rule 3 foo_2+foo_3 are inlined instead",
        ],
    )
    table.add_row("Rules 1+2 only", ", ".join(without_rule3) or "(none)")
    table.add_row("Rules 1+2+3", ", ".join(with_rule3) or "(none)")
    return Figure1Result(table, without_rule3, with_rule3)


# ---------------------------------------------------------------------------
# The experiment list
# ---------------------------------------------------------------------------

#: Every experiment of the evaluation, in the paper's order: (name for
#: ``repro evaluate -e``, printed label, generator taking the context).
#: The generators look the table functions up at call time, so a wrapper
#: installed on this module's functions (a profiler, a tracer) sees
#: every run.
EXPERIMENTS = (
    ("figure1", "Figure 1", lambda ctx: figure1()),
    ("table1", "Table 1", lambda ctx: table1(ctx)),
    ("table2", "Table 2", lambda ctx: table2(ctx)),
    ("table3", "Table 3", lambda ctx: table3(ctx)),
    ("table4", "Table 4", lambda ctx: table4(ctx)),
    ("table5", "Table 5", lambda ctx: table5(ctx)),
    ("table6", "Table 6", lambda ctx: table6(ctx)),
    ("table7", "Table 7", lambda ctx: table7(ctx)),
    ("table8", "Table 8", lambda ctx: table8(ctx)),
    ("table9", "Table 9", lambda ctx: table9(ctx)),
    ("table10", "Table 10", lambda ctx: table10(ctx)),
    ("table11", "Table 11", lambda ctx: table11(ctx)),
    ("table12", "Table 12", lambda ctx: table12(ctx)),
    ("robustness", "Section 8.4", lambda ctx: robustness(ctx)),
)
