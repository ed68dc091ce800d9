"""The paper-shape gate: every check that the reproduction keeps the
paper's shape, as one list of claims over one evaluation pass.

The reproduction targets the paper's *shape* (PAPER.md): the cost order
of the defenses, the order-of-magnitude reduction, budget sensitivity,
crossovers and the security-census structure. Each :class:`Claim` is a
named predicate over the results of one pass of
:data:`~repro.evaluation.tables.EXPERIMENTS` (the result of each
experiment, by its name) and that pass's :class:`EvalSettings`. A claim
with a band also carries the paper's value: it reads one measured
number, which must lie in the band (the substrate is a simulator; see
docs/calibration.md). No claim runs anything itself.

A claim names the scales it must hold at: ``fast`` (the knobs of
:meth:`EvalSettings.fast`) and ``full`` (any other run, the defaults
included). A claim scoped to one scale misses at the other; CHANGES.md
records its reading there.

:func:`scorecard` judges the claims of a run's scale.
``examples/generate_report.py`` renders the card and exits non-zero on
a missed claim; tier-1 checks every fast claim, one test per claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.core.report import build_overhead_report
from repro.evaluation.formatting import Table, pct
from repro.evaluation.harness import EvalSettings

FAST = "fast"
FULL = "full"

#: The three macrobenchmarks of Table 7.
APPS = ("Nginx", "Apache", "DBench")

#: Table 6's defenses that PIBE optimizes one at a time.
SINGLE_DEFENSES = ("Retpolines", "Return retpolines", "LVI-CFI")


@dataclass(frozen=True)
class Claim:
    """One paper-shape check.

    ``check`` reads a run: each experiment's result as an attribute
    named after it (``run.table5``), plus ``run.settings``. Without a
    band it returns whether the claim holds. With ``band=(low, high)`` it
    returns the measured value, which holds when ``low <= value <=
    high``; ``paper`` is the paper's value, printed beside it.
    """

    name: str
    check: Callable[[SimpleNamespace], Any]
    band: Optional[Tuple[float, float]] = None
    paper: Optional[float] = None
    unit: str = "fraction"
    scales: Tuple[str, ...] = (FAST, FULL)

    def judge(self, run: SimpleNamespace) -> "Verdict":
        value = self.check(run)
        if self.band is None:
            return Verdict(self, None, bool(value))
        low, high = self.band
        return Verdict(self, value, low <= value <= high)


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    #: the measured value of a band claim (``None`` for a predicate)
    measured: Optional[float]
    passed: bool


def _table2_overheads(run: SimpleNamespace) -> Mapping[str, float]:
    report = build_overhead_report("t", run.table2.lto, run.table2.pibe)
    return report.overheads()


def _lowest(per_budget: Mapping[Any, Any]) -> Any:
    """The first entry: the tables add them in ascending budget order."""
    return next(iter(per_budget.values()))


def _top(per_budget: Mapping[Any, Any]) -> Any:
    """The last entry: the highest budget's."""
    return list(per_budget.values())[-1]


def _grows(per_budget: Mapping[float, Any], field: str) -> bool:
    values = [getattr(per_budget[b], field) for b in sorted(per_budget)]
    return values == sorted(values)


#: Every paper-shape check, in the paper's order.
CLAIMS: Tuple[Claim, ...] = (
    # -- Figure 1: the Rule 3 inlining example --------------------------------
    Claim(
        "Figure 1: without Rule 3 only foo_1 is inlined",
        lambda r: r.figure1.inlined_without_rule3 == ["foo_1"],
    ),
    Claim(
        "Figure 1: with Rule 3 foo_2 and foo_3 are inlined",
        lambda r: r.figure1.inlined_with_rule3 == ["foo_2", "foo_3"],
    ),
    # -- Table 1: per-branch defense costs ------------------------------------
    Claim(
        "Table 1: retpoline icall ticks",
        lambda r: r.table1.ticks["retpolines"]["icall"],
        band=(20.0, 22.0), paper=21.0, unit="ticks",
    ),
    Claim(
        "Table 1: return retpoline dcall ticks",
        lambda r: r.table1.ticks["return retpolines"]["dcall"],
        band=(15.0, 17.0), paper=16.0, unit="ticks",
    ),
    Claim(
        "Table 1: LVI-CFI dcall ticks",
        lambda r: r.table1.ticks["LVI-CFI"]["dcall"],
        band=(10.0, 12.0), paper=11.0, unit="ticks",
    ),
    Claim(
        "Table 1: LVI-CFI icall ticks",
        lambda r: r.table1.ticks["LVI-CFI"]["icall"],
        band=(19.0, 21.0), paper=20.0, unit="ticks",
    ),
    Claim(
        "Table 1: all defenses icall > 60 ticks",
        lambda r: r.table1.ticks["all defenses"]["icall"] > 60,
    ),
    Claim(
        "Table 1: stackprotector SPEC slowdown < 8%",
        lambda r: r.table1.spec_slowdowns["stackprotector"] < 0.08,
    ),
    Claim(
        "Table 1: LLVM-CFI SPEC slowdown < 5%",
        lambda r: r.table1.spec_slowdowns["LLVM-CFI"] < 0.05,
    ),
    Claim(
        "Table 1: retpolines SPEC slowdown > 8%",
        lambda r: r.table1.spec_slowdowns["retpolines"] > 0.08,
    ),
    Claim(
        "Table 1: SPEC all defenses > LVI-CFI > 10%",
        lambda r: r.table1.spec_slowdowns["all defenses"]
        > r.table1.spec_slowdowns["LVI-CFI"]
        > 0.1,
    ),
    Claim(
        "Table 1: SPEC all defenses > LVI-CFI > stackprotector",
        lambda r: r.table1.spec_slowdowns["all defenses"]
        > r.table1.spec_slowdowns["LVI-CFI"]
        > r.table1.spec_slowdowns["stackprotector"],
    ),
    Claim(
        "Table 1: all defenses SPEC slowdown > 35%",
        lambda r: r.table1.spec_slowdowns["all defenses"] > 0.35,
    ),
    Claim(
        "Table 1: the table renders its title",
        lambda r: "Table 1" in r.table1.table.to_text(),
    ),
    # -- Table 2: LTO vs PIBE baselines ---------------------------------------
    Claim(
        "Table 2: PGO geomean in (-20%, -2%)",
        lambda r: -0.20 < r.table2.geomean < -0.02,
    ),
    Claim(
        "Table 2: all 20 LMBench benches measured",
        lambda r: len(r.table2.lto) == 20,
    ),
    Claim(
        "Table 2: null syscall within 10%",
        lambda r: abs(_table2_overheads(r)["null"]) < 0.10,
    ),
    Claim(
        "Table 2: at least 14 benches speed up",
        lambda r: sum(1 for v in _table2_overheads(r).values() if v < 0) >= 14,
    ),
    # -- Table 3: retpolines, static ICP vs JumpSwitches ----------------------
    Claim(
        "Table 3: unoptimized retpolines",
        lambda r: r.table3.geomeans["retpolines"],
        band=(0.08, 0.40), paper=0.202,
    ),
    Claim(
        "Table 3: retpolines + icp 99.999%",
        lambda r: r.table3.geomeans["icp 99.999%"],
        band=(-0.06, 0.08), paper=0.013,
    ),
    Claim(
        "Table 3: retpolines > jumpswitches > icp 99.999%",
        lambda r: r.table3.geomeans["retpolines"]
        > r.table3.geomeans["jumpswitches"]
        > r.table3.geomeans["icp 99.999%"],
    ),
    Claim(
        "Table 3: icp 99% > icp 99.999% - 2 points",
        lambda r: r.table3.geomeans["icp 99%"]
        > r.table3.geomeans["icp 99.999%"] - 0.02,
    ),
    Claim(
        "Table 3: retpolines > 10%",
        lambda r: r.table3.geomeans["retpolines"] > 0.10,
    ),
    Claim(
        "Table 3: 1% < jumpswitches < retpolines",
        lambda r: 0.01
        < r.table3.geomeans["jumpswitches"]
        < r.table3.geomeans["retpolines"],
    ),
    Claim(
        "Table 3: icp 99.999% < 4%",
        lambda r: r.table3.geomeans["icp 99.999%"] < 0.04,
    ),
    Claim(
        "Table 3: select_tcp under retpolines > 60%",
        lambda r: r.table3.overheads["retpolines"]["select_tcp"] > 0.6,
        scales=(FULL,),
    ),
    # -- Table 4: indirect-call target distribution ---------------------------
    Claim(
        "Table 4: more than 20 profiled icall sites",
        lambda r: sum(r.table4.distribution.values()) > 20,
    ),
    Claim(
        "Table 4: single-target sites > 40%",
        lambda r: r.table4.distribution["1"]
        / sum(r.table4.distribution.values())
        > 0.4,
    ),
    Claim(
        "Table 4: 1 target > 2 targets > 0",
        lambda r: r.table4.distribution["1"] > r.table4.distribution["2"] > 0,
    ),
    Claim(
        "Table 4: 1 target > 2 targets >= 3 targets",
        lambda r: r.table4.distribution["1"]
        > r.table4.distribution["2"]
        >= r.table4.distribution["3"],
        scales=(FAST,),
    ),
    Claim(
        "Table 4: multi-target sites > 15%",
        lambda r: (
            sum(r.table4.distribution.values()) - r.table4.distribution["1"]
        )
        / sum(r.table4.distribution.values())
        > 0.15,
    ),
    # -- Table 5: all defenses across budgets ---------------------------------
    Claim(
        "Table 5: all defenses, no optimization",
        lambda r: r.table5.geomeans["no opt"],
        band=(1.0, 2.6), paper=1.491,
    ),
    Claim(
        "Table 5: all defenses, lax heuristics",
        lambda r: r.table5.geomeans["lax heuristics"],
        band=(0.02, 0.25), paper=0.106,
    ),
    Claim(
        "Table 5: no opt > 100%",
        lambda r: r.table5.geomeans["no opt"] > 1.0,
    ),
    Claim(
        "Table 5: no opt > +icp 99.999% > +inl 99%",
        lambda r: r.table5.geomeans["no opt"]
        > r.table5.geomeans["+icp 99.999%"]
        > r.table5.geomeans["+inl 99%"],
    ),
    Claim(
        "Table 5: +inl 99.9% >= +inl 99.9999% - 1 point",
        lambda r: r.table5.geomeans["+inl 99.9%"]
        >= r.table5.geomeans["+inl 99.9999%"] - 0.01,
    ),
    Claim(
        "Table 5: +inl 99.9999% >= lax - 1 point",
        lambda r: r.table5.geomeans["+inl 99.9999%"]
        >= r.table5.geomeans["lax heuristics"] - 0.01,
    ),
    Claim(
        "Table 5: +inl 99% >= +inl 99.9% >= lax - 0.1 point",
        lambda r: r.table5.geomeans["+inl 99%"]
        >= r.table5.geomeans["+inl 99.9%"]
        >= r.table5.geomeans["lax heuristics"] - 0.001,
    ),
    Claim(
        "Table 5: lax < no opt / 8",
        lambda r: r.table5.geomeans["lax heuristics"]
        < r.table5.geomeans["no opt"] / 8,
    ),
    Claim(
        "Table 5: lax < no opt / 5",
        lambda r: r.table5.geomeans["lax heuristics"]
        < r.table5.geomeans["no opt"] / 5,
    ),
    Claim(
        "Table 5: lax < 25%",
        lambda r: r.table5.geomeans["lax heuristics"] < 0.25,
    ),
    Claim(
        "Table 5: select_tcp unoptimized > 200%",
        lambda r: r.table5.overheads["no opt"]["select_tcp"] > 2.0,
    ),
    Claim(
        "Table 5: select_tcp with lax heuristics < 20%",
        lambda r: r.table5.overheads["lax heuristics"]["select_tcp"] < 0.2,
    ),
    # -- Table 6: per-defense geomeans ----------------------------------------
    Claim(
        "Table 6: PGO-only speedup",
        lambda r: r.table6.pibe_geomeans["None"],
        band=(-0.20, -0.01), paper=-0.066,
    ),
    Claim(
        "Table 6: LVI-CFI unoptimized",
        lambda r: r.table6.lto_geomeans["LVI-CFI"],
        band=(0.35, 1.0), paper=0.619,
    ),
    Claim(
        "Table 6: unoptimized All > Return retpolines > Retpolines",
        lambda r: r.table6.lto_geomeans["All"]
        > r.table6.lto_geomeans["Return retpolines"]
        > r.table6.lto_geomeans["Retpolines"],
    ),
    Claim(
        "Table 6: unoptimized All > LVI-CFI > Retpolines",
        lambda r: r.table6.lto_geomeans["All"]
        > r.table6.lto_geomeans["LVI-CFI"]
        > r.table6.lto_geomeans["Retpolines"],
    ),
    Claim(
        "Table 6: unoptimized All > 100%",
        lambda r: r.table6.lto_geomeans["All"] > 1.0,
    ),
    Claim(
        "Table 6: PIBE < 10% for each single defense",
        lambda r: all(
            r.table6.pibe_geomeans[d] < 0.10 for d in SINGLE_DEFENSES
        ),
    ),
    Claim(
        "Table 6: PIBE < unoptimized / 5 for each single defense",
        lambda r: all(
            r.table6.pibe_geomeans[d] < r.table6.lto_geomeans[d] / 5
            for d in SINGLE_DEFENSES
        ),
    ),
    Claim(
        "Table 6: PIBE < unoptimized for every defense",
        lambda r: all(
            r.table6.pibe_geomeans[d] < r.table6.lto_geomeans[d]
            for d in SINGLE_DEFENSES + ("All",)
        ),
    ),
    Claim(
        "Table 6: PIBE All < unoptimized All / 8",
        lambda r: r.table6.pibe_geomeans["All"]
        < r.table6.lto_geomeans["All"] / 8,
    ),
    Claim(
        "Table 6: PIBE All < 25%",
        lambda r: r.table6.pibe_geomeans["All"] < 0.25,
    ),
    # -- Table 7: macrobenchmark throughput -----------------------------------
    Claim(
        "Table 7: all defenses unoptimized cost > 15% on every app",
        lambda r: all(
            r.table7.degradations[app]["w/all-defenses"][0] < -0.15
            for app in APPS
        ),
    ),
    Claim(
        "Table 7: all defenses with PIBE cost < 10% on every app",
        lambda r: all(
            r.table7.degradations[app]["w/all-defenses"][1] > -0.10
            for app in APPS
        ),
    ),
    Claim(
        "Table 7: PIBE recovers > 2 points on every app",
        lambda r: all(
            r.table7.degradations[app]["w/all-defenses"][1]
            > r.table7.degradations[app]["w/all-defenses"][0] + 0.02
            for app in APPS
        ),
    ),
    Claim(
        "Table 7: retpolines cost less than all defenses",
        lambda r: all(
            r.table7.degradations[app]["w/retpolines"][0]
            > r.table7.degradations[app]["w/all-defenses"][0]
            for app in APPS
        ),
    ),
    Claim(
        "Table 7: every app has a vanilla throughput",
        lambda r: all(r.table7.vanilla_throughput[app] > 0 for app in APPS),
    ),
    Claim(
        "Table 7: Nginx loses more than Apache unoptimized",
        lambda r: r.table7.degradations["Nginx"]["w/all-defenses"][0]
        < r.table7.degradations["Apache"]["w/all-defenses"][0],
    ),
    Claim(
        "Table 7: Nginx crossover vs unoptimized retpolines",
        lambda r: r.table7.degradations["Nginx"]["w/all-defenses"][1]
        > r.table7.degradations["Nginx"]["w/retpolines"][0],
        scales=(FULL,),
    ),
    # -- Table 8: gadgets eliminated ------------------------------------------
    Claim(
        "Table 8: icp weight at the lowest budget > 90%",
        lambda r: _lowest(r.table8.stats).icp_weight_fraction
        > 0.9,
    ),
    Claim(
        "Table 8: return weight at the lowest budget > 70%",
        lambda r: _lowest(r.table8.stats).return_weight_fraction
        > 0.7,
    ),
    Claim(
        "Table 8: promoted sites grow with the budget",
        lambda r: _grows(r.table8.stats, "icp_sites"),
    ),
    Claim(
        "Table 8: elided return sites grow with the budget",
        lambda r: _grows(r.table8.stats, "return_sites"),
    ),
    Claim(
        "Table 8: top budget elides more return sites",
        lambda r: _top(r.table8.stats).return_sites
        > _lowest(r.table8.stats).return_sites,
    ),
    Claim(
        "Table 8: top budget promotes >= the lowest's targets",
        lambda r: _top(r.table8.stats).icp_targets
        >= _lowest(r.table8.stats).icp_targets,
    ),
    Claim(
        "Table 8: elided return weight spread < 15 points",
        lambda r: abs(
            _top(r.table8.stats).return_weight_fraction
            - _lowest(r.table8.stats).return_weight_fraction
        )
        < 0.15,
    ),
    # -- Table 9: weight blocked by the size heuristics -----------------------
    Claim(
        "Table 9: heuristics block < 25% of candidate weight",
        lambda r: all(
            report.blocked_weight / max(report.candidate_weight, 1) < 0.25
            for report in r.table9.reports.values()
        ),
    ),
    Claim(
        "Table 9: Rule 3 blocks >= Rule 2",
        lambda r: all(
            report.blocked_rule3_weight >= report.blocked_rule2_weight
            for report in r.table9.reports.values()
        ),
    ),
    Claim(
        "Table 9: noinline primitives block some weight",
        lambda r: all(
            report.blocked_other_weight > 0
            for report in r.table9.reports.values()
        ),
    ),
    Claim(
        "Table 9: every budget has candidate weight",
        lambda r: all(
            report.candidate_weight > 0 for report in r.table9.reports.values()
        ),
    ),
    Claim(
        "Table 9: Rule 3 share moves < 5 points across budgets",
        lambda r: max(
            report.blocked_rule3_weight / max(report.candidate_weight, 1)
            for report in r.table9.reports.values()
        )
        - min(
            report.blocked_rule3_weight / max(report.candidate_weight, 1)
            for report in r.table9.reports.values()
        )
        < 0.05,
    ),
    # -- Table 10: candidates vs all indirect branches ------------------------
    Claim(
        "Table 10: icp candidate share grows with the budget",
        lambda r: _grows(r.table10.stats, "icp_fraction"),
    ),
    Claim(
        "Table 10: icp candidates < 60% of icalls",
        lambda r: all(s.icp_fraction < 0.6 for s in r.table10.stats.values()),
    ),
    Claim(
        "Table 10: icp candidates < 25% of icalls",
        lambda r: all(s.icp_fraction < 0.25 for s in r.table10.stats.values()),
        scales=(FULL,),
    ),
    Claim(
        "Table 10: inline candidates < 25% of returns",
        lambda r: all(
            s.inline_fraction < 0.25 for s in r.table10.stats.values()
        ),
        scales=(FULL,),
    ),
    Claim(
        "Table 10: fewer icp candidates than icalls",
        lambda r: all(
            s.total_icalls > s.icp_candidates for s in r.table10.stats.values()
        ),
    ),
    Claim(
        "Table 10: the kernel has returns",
        lambda r: all(s.total_returns > 0 for s in r.table10.stats.values()),
    ),
    Claim(
        "Table 10: icalls > 3x icp candidates at top budget",
        lambda r: _top(r.table10.stats).total_icalls
        > 3 * _top(r.table10.stats).icp_candidates,
        scales=(FULL,),
    ),
    Claim(
        "Table 10: returns > 3x inline candidates at top budget",
        lambda r: _top(r.table10.stats).total_returns
        > 3 * _top(r.table10.stats).inline_candidates,
        scales=(FULL,),
    ),
    # -- Table 11: forward-edge census ----------------------------------------
    Claim(
        "Table 11: unoptimized protected icalls > 10x vulnerable",
        lambda r: r.table11.censuses["no opt"].defended_icalls
        > 10 * r.table11.censuses["no opt"].vulnerable_icalls,
    ),
    Claim(
        "Table 11: unoptimized image has vulnerable asm icalls",
        lambda r: r.table11.censuses["no opt"].vulnerable_icalls > 0,
    ),
    Claim(
        "Table 11: inlining duplicates protected icalls",
        lambda r: _top(r.table11.censuses).defended_icalls
        > r.table11.censuses["no opt"].defended_icalls,
    ),
    Claim(
        "Table 11: inlining duplicates vulnerable icalls",
        lambda r: _top(r.table11.censuses).vulnerable_icalls
        > r.table11.censuses["no opt"].vulnerable_icalls,
    ),
    Claim(
        "Table 11: vulnerable ijumps stay at spec asm ijumps",
        lambda r: all(
            census.vulnerable_ijumps == r.settings.spec.num_asm_ijumps
            for census in r.table11.censuses.values()
        ),
    ),
    # -- Table 12: size and memory growth -------------------------------------
    Claim(
        "Table 12: abs size @99% <= @99.9% + 1 point",
        lambda r: r.table12.reports["all-defenses @99%"].abs_size_increase
        <= r.table12.reports["all-defenses @99.9%"].abs_size_increase + 0.01,
    ),
    Claim(
        "Table 12: abs size @99.9% <= @99.9999% + 1 point",
        lambda r: r.table12.reports["all-defenses @99.9%"].abs_size_increase
        <= r.table12.reports["all-defenses @99.9999%"].abs_size_increase
        + 0.01,
    ),
    Claim(
        "Table 12: abs size @99.9999% >= @99% > 0",
        lambda r: r.table12.reports["all-defenses @99.9999%"].abs_size_increase
        >= r.table12.reports["all-defenses @99%"].abs_size_increase
        > 0,
    ),
    Claim(
        "Table 12: image growth @99% in (0, 60%)",
        lambda r: 0.0
        < r.table12.reports["all-defenses @99%"].img_size_increase
        < 0.6,
    ),
    Claim(
        "Table 12: retpolines ICP growth < 12%",
        lambda r: r.table12.reports["retpolines @99.999%"].abs_size_increase
        < 0.12,
    ),
    Claim(
        "Table 12: retpolines ICP grows less than all @99%",
        lambda r: r.table12.reports["retpolines @99.999%"].abs_size_increase
        < r.table12.reports["all-defenses @99%"].abs_size_increase,
    ),
    Claim(
        "Table 12: slab moves < 2%",
        lambda r: abs(
            r.table12.reports["all-defenses @99.9999%"].slab_size_increase
        )
        < 0.02,
    ),
    Claim(
        "Table 12: dynamic usage moves < 60%",
        lambda r: abs(
            r.table12.reports["all-defenses @99.9999%"].dyn_size_increase
        )
        < 0.6,
    ),
    Claim(
        "Table 12: the top budget has text",
        lambda r: r.table12.reports["all-defenses @99.9999%"].text_bytes > 0,
    ),
    # -- Section 8.4: workload robustness -------------------------------------
    Claim(
        "Section 8.4: Apache-trained overhead",
        lambda r: r.robustness.mismatched_geomean,
        band=(0.08, 0.60), paper=0.225,
    ),
    Claim(
        "Section 8.4: default-inliner overhead",
        lambda r: r.robustness.default_inliner_geomean,
        band=(0.25, 2.0), paper=1.002,
    ),
    Claim(
        "Section 8.4: matched training beats Apache-trained",
        lambda r: r.robustness.matched_geomean
        < r.robustness.mismatched_geomean,
    ),
    Claim(
        "Section 8.4: default inliner worse than Apache-trained",
        lambda r: r.robustness.default_inliner_geomean
        > r.robustness.mismatched_geomean,
    ),
    Claim(
        "Section 8.4: icp candidate overlap > 30%",
        lambda r: r.robustness.icp_overlap > 0.3,
    ),
    Claim(
        "Section 8.4: inline candidate overlap > 30%",
        lambda r: r.robustness.inline_overlap > 0.3,
    ),
)


def scale_of(settings: EvalSettings) -> str:
    """``fast`` for the knobs of :meth:`EvalSettings.fast`, else ``full``."""
    fast = EvalSettings.fast()
    knobs = (
        "spec", "profile_iterations", "profile_ops_scale", "measure_ops_scale"
    )
    if all(getattr(settings, k) == getattr(fast, k) for k in knobs):
        return FAST
    return FULL


def _fmt(value: float, unit: str) -> str:
    return pct(value) if unit == "fraction" else f"{value:.1f}"


@dataclass
class Scorecard:
    scale: str
    verdicts: List[Verdict]

    @property
    def failed(self) -> List[str]:
        return [v.claim.name for v in self.verdicts if not v.passed]

    def to_table(self) -> Table:
        passed = len(self.verdicts) - len(self.failed)
        table = Table(
            f"Reproduction scorecard: {passed}/{len(self.verdicts)} claims "
            f"hold at {self.scale} scale",
            ["claim", "paper", "band", "measured", "ok"],
        )
        for verdict in self.verdicts:
            claim = verdict.claim
            if claim.band is None:
                paper = band = measured = "-"
            else:
                paper = _fmt(claim.paper, claim.unit)
                band = "[{}, {}]".format(
                    *(_fmt(bound, claim.unit) for bound in claim.band)
                )
                measured = _fmt(verdict.measured, claim.unit)
            table.add_row(
                claim.name, paper, band, measured,
                "yes" if verdict.passed else "NO",
            )
        return table


def scorecard(results: Mapping[str, Any], settings: EvalSettings) -> Scorecard:
    """Judge every claim of the run's scale on one pass's results (each
    experiment's result, keyed by its name in ``tables.EXPERIMENTS``)."""
    scale = scale_of(settings)
    run = SimpleNamespace(settings=settings, **results)
    return Scorecard(
        scale, [claim.judge(run) for claim in CLAIMS if scale in claim.scales]
    )
