"""Security-census analyses: indirect-branch gadget counting
(paper Tables 4, 8, 10 and 11)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.hardening.classes import LVI, RET2SPEC, SPECTRE_V2, defense_classes
from repro.ir.module import Module
from repro.ir.types import FunctionAttr, Opcode
from repro.passes.icp import ICPReport
from repro.passes.inliner import InlineReport
from repro.profiling.profile_data import EdgeProfile


def target_count_distribution(profile: EdgeProfile) -> Dict[str, int]:
    """Table 4: number of profiled indirect call sites per observed-target
    count (buckets 1..6 and '>6')."""
    counts = Counter()
    for site, targets in profile.indirect.items():
        n = len(targets)
        key = str(n) if n <= 6 else ">6"
        counts[key] += 1
    return {
        **{str(i): counts.get(str(i), 0) for i in range(1, 7)},
        ">6": counts.get(">6", 0),
    }


@dataclass
class EliminationStats:
    """Table 8 row: gadgets eliminated at one budget."""

    budget: float
    icp_weight: int
    icp_weight_fraction: float
    icp_sites: int
    icp_sites_fraction: float
    icp_targets: int
    icp_targets_fraction: float
    return_weight: int
    return_weight_fraction: float
    return_sites: int
    return_sites_fraction: float


def elimination_stats(
    budget: float,
    icp_report: ICPReport,
    inline_report: InlineReport,
    total_return_sites: int,
) -> EliminationStats:
    """Combine the pass reports into the Table 8 measurements."""
    return EliminationStats(
        budget=budget,
        icp_weight=icp_report.promoted_weight,
        icp_weight_fraction=icp_report.weight_fraction,
        icp_sites=icp_report.promoted_sites,
        icp_sites_fraction=icp_report.site_fraction,
        icp_targets=icp_report.promoted_targets,
        icp_targets_fraction=icp_report.target_fraction,
        return_weight=inline_report.returns_elided_weight,
        return_weight_fraction=inline_report.elided_weight_fraction,
        return_sites=inline_report.returns_elided_sites,
        return_sites_fraction=(
            inline_report.returns_elided_sites / total_return_sites
            if total_return_sites
            else 0.0
        ),
    )


@dataclass
class CandidateStats:
    """Table 10 row: candidates relative to all kernel indirect branches."""

    budget: float
    total_icalls: int
    icp_candidates: int
    total_returns: int
    inline_candidates: int

    @property
    def icp_fraction(self) -> float:
        return self.icp_candidates / self.total_icalls if self.total_icalls else 0.0

    @property
    def inline_fraction(self) -> float:
        return (
            self.inline_candidates / self.total_returns
            if self.total_returns
            else 0.0
        )


def candidate_stats(
    budget: float,
    module_icalls: int,
    module_returns: int,
    icp_report: ICPReport,
    inline_report: InlineReport,
) -> CandidateStats:
    """Assemble the Table 10 measurements from the pass reports."""
    return CandidateStats(
        budget=budget,
        total_icalls=module_icalls,
        icp_candidates=icp_report.promoted_sites,
        total_returns=module_returns,
        inline_candidates=inline_report.candidate_sites,
    )


@dataclass
class ForwardEdgeCensus:
    """Table 11 row: forward-edge protection census of one image."""

    defended_icalls: int = 0
    vulnerable_icalls: int = 0
    vulnerable_ijumps: int = 0
    defended_ijumps: int = 0

    @property
    def total_icalls(self) -> int:
        return self.defended_icalls + self.vulnerable_icalls


def forward_edge_census(module: Module) -> ForwardEdgeCensus:
    """Count protected vs Spectre-V2/LVI-vulnerable forward edges in a
    hardened image (boot-only code exempt, as in the paper)."""
    census = ForwardEdgeCensus()
    for func in module:
        boot_only = func.has_attr(FunctionAttr.BOOT_ONLY)
        for inst in func.instructions():
            if inst.opcode == Opcode.ICALL:
                protects = defense_classes(inst.defense)
                if SPECTRE_V2 in protects and LVI in protects:
                    census.defended_icalls += 1
                elif boot_only:
                    continue
                else:
                    census.vulnerable_icalls += 1
            elif inst.opcode == Opcode.IJUMP:
                if SPECTRE_V2 in defense_classes(inst.defense):
                    census.defended_ijumps += 1
                elif boot_only:
                    continue
                else:
                    census.vulnerable_ijumps += 1
    return census


def backward_edge_census(module: Module) -> Dict[str, int]:
    """Return-instruction protection census (Section 8.6's claim that all
    non-boot returns end up protected)."""
    result = {"protected": 0, "vulnerable": 0, "boot_only": 0}
    for func in module:
        boot_only = func.has_attr(FunctionAttr.BOOT_ONLY)
        for inst in func.instructions():
            if inst.opcode != Opcode.RET:
                continue
            if boot_only:
                result["boot_only"] += 1
            elif RET2SPEC in defense_classes(inst.defense):
                result["protected"] += 1
            else:
                result["vulnerable"] += 1
    return result
