"""Link-time cleanup passes: the optimization substrate PIBE's pipeline
(Section 8.1) runs alongside its own transformations.

- :class:`DeadFunctionElimination` drops functions unreachable from any
  root (syscall handlers, fptr-table entries, boot/init code) — inlining
  can fully absorb small helpers and leave their bodies dead.
- :class:`SimplifyCFG` merges trivially chained blocks left behind by
  inlining/ICP splicing (a block whose only terminator is a jump to a
  block with a single predecessor), shrinking image size like LLVM's
  simplifycfg.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.ir.callgraph import CallGraph
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import TERMINATORS, FunctionAttr, Opcode
from repro.passes.manager import ModulePass

#: Terminators whose targets are successor blocks.
_BRANCHES = TERMINATORS - {Opcode.RET}


@dataclass
class DCEReport:
    removed_functions: int = 0
    removed_instructions: int = 0


class DeadFunctionElimination(ModulePass):
    """Remove functions unreachable from the module's roots."""

    name = "dead-function-elimination"

    def run(self, module: Module) -> DCEReport:
        report = DCEReport()
        roots: List[str] = list(module.syscalls.values())
        for table in module.fptr_tables.values():
            roots.extend(table.entries)
        for func in module:
            if func.has_attr(FunctionAttr.BOOT_ONLY) or func.has_attr(
                FunctionAttr.SYSCALL_ENTRY
            ):
                roots.append(func.name)
        reachable = CallGraph(module).reachable_from(roots)
        for name in list(module.functions):
            if name not in reachable:
                removed = module.remove_function(name)
                report.removed_instructions += removed.size()
                report.removed_functions += 1
        return report


@dataclass
class SimplifyCFGReport:
    merged_blocks: int = 0


class SimplifyCFG(ModulePass):
    """Merge single-predecessor jump-chained blocks."""

    name = "simplify-cfg"

    def run(self, module: Module) -> SimplifyCFGReport:
        report = SimplifyCFGReport()
        for name in list(module.functions):
            func = module.functions[name]
            if module.shares_blocks(name):
                # Read-only precheck so untouched functions stay shared;
                # mergeable_pairs is non-empty exactly when _simplify
                # would perform at least one merge.
                if not mergeable_pairs(func):
                    continue
                func = module.mutable(name)
            report.merged_blocks += self._simplify(func)
        return report

    @staticmethod
    def _predecessor_counts(func: Function) -> Dict[str, int]:
        # Each distinct successor of a block's terminator counts once,
        # a jump table's targets included.
        counts: Dict[str, int] = defaultdict(int)
        for block in func.blocks.values():
            insts = block.instructions
            if insts and insts[-1].opcode in _BRANCHES:
                for succ in set(insts[-1].targets):
                    counts[succ] += 1
        return counts

    def _simplify(self, func: Function) -> int:
        # A merge never changes another block's predecessor-block count: the
        # absorbing block's only successor was the absorbed block, and the
        # absorbed block's successor edges transfer to the absorber wholesale.
        # So the counts are computed once and each jump chain drained greedily
        # instead of rescanning the whole CFG after every merge.
        merged = 0
        preds = self._predecessor_counts(func)
        entry = func.entry_label
        for label in list(func.blocks):
            block = func.blocks.get(label)
            if block is None:  # already absorbed into an earlier chain
                continue
            while True:
                insts = block.instructions
                if not insts or insts[-1].opcode is not Opcode.JMP:
                    break
                succ_label = insts[-1].targets[0]
                if (
                    succ_label == block.label
                    or succ_label == entry
                    or preds.get(succ_label, 0) != 1
                ):
                    break
                succ = func.blocks.pop(succ_label)
                insts[-1:] = succ.instructions
                merged += 1
        return merged


def mergeable_pairs(func: Function) -> Set[str]:
    """Labels of blocks that SimplifyCFG would merge away (inspection aid)."""
    preds = SimplifyCFG._predecessor_counts(func)
    result: Set[str] = set()
    for block in func.blocks.values():
        insts = block.instructions
        if not insts:
            continue
        term = insts[-1]
        if (
            term.opcode is Opcode.JMP
            and term.targets[0] != block.label
            and preds.get(term.targets[0], 0) == 1
            and term.targets[0] != func.entry_label
        ):
            result.add(term.targets[0])
    return result
