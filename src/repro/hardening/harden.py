"""The hardening pass: tag every remaining indirect branch with its defense.

Runs after PIBE's elimination passes (Section 4): whatever indirect calls
and returns are still present get the lowering selected by the
:class:`~repro.hardening.defenses.DefenseConfig`. The pass reproduces the
paper's coverage gaps faithfully (Section 8.6):

- inline-assembly functions (the paravirt hypercall layer) cannot be
  auto-instrumented — their indirect calls stay vulnerable (Table 11);
- boot-only returns are exempt: code that only runs during early boot is
  not attackable past that stage;
- indirect jumps surviving jump-table disabling (again inline asm) stay
  vulnerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardening.coverage import (
    METADATA_KEY,
    applied_config,
    icall_exempt,
    ijump_exempt,
    ret_exempt,
)
from repro.hardening.defenses import DefenseConfig
from repro.ir.basicblock import BasicBlock
from repro.ir.clone import clone_instruction_exact
from repro.ir.module import Module
from repro.ir.types import INDIRECT_BRANCHES, Opcode
from repro.passes.manager import ModulePass

__all__ = [
    "METADATA_KEY",
    "HardenReport",
    "HardeningPass",
    "applied_config",
]


@dataclass
class HardenReport:
    """Forward/backward edge coverage census (Tables 11 and 12 inputs)."""

    config_label: str = ""
    protected_icalls: int = 0
    vulnerable_icalls: int = 0
    protected_rets: int = 0
    vulnerable_rets: int = 0
    boot_only_rets: int = 0
    vulnerable_ijumps: int = 0
    protected_ijumps: int = 0
    #: per-defense-tag count of instrumented sites
    sites_by_defense: Dict[str, int] = field(default_factory=dict)

    def _bump(self, tag: str) -> None:
        self.sites_by_defense[tag] = self.sites_by_defense.get(tag, 0) + 1


class HardeningPass(ModulePass):
    """Apply a :class:`DefenseConfig` to every instrumentable branch."""

    name = "hardening"

    def __init__(self, config: DefenseConfig) -> None:
        self.config = config

    def run(self, module: Module) -> HardenReport:
        report = HardenReport(config_label=self.config.label())
        fwd = self.config.forward_defense()
        bwd = self.config.backward_defense()
        tag_branches(
            module,
            report,
            fwd.value if fwd is not None else None,
            bwd.value if bwd is not None else None,
        )
        module.metadata[METADATA_KEY] = self.config
        return report


def tag_branches(
    module: Module,
    report: HardenReport,
    fwd: Optional[str],
    bwd: Optional[str],
) -> None:
    """Tag every instrumentable branch of ``module``: indirect calls and
    jumps with ``fwd``, returns with ``bwd`` (``None`` leaves that edge
    vulnerable), and count each site in ``report``. The stock and the
    custom hardening passes both stamp through here.

    One opcode test per instruction picks out the branch sites, and
    only those are visited. The stamp is copy-on-write aware down to
    instruction granularity: tagging only ever writes
    ``attrs["defense"]`` on the tagged instruction, so on a COW module
    (a staged variant stamped onto the shared optimized prefix) each
    tag copies exactly what it dirties —
    the function shell on the first tag in a function, the block's
    instruction list on the first tag in a block, and the one tagged
    instruction. Untagged blocks and instructions stay shared with the
    prefix, which makes the stamp cost proportional to the number of
    tags rather than to module size. A shell left by an earlier stamp
    still shares its blocks (``Module.shares_blocks``), so a second
    stamp copies what it tags there too, whichever stamp made the
    block. On an ordinary (fully owned) module every instruction is
    tagged in place, exactly as before COW existed.
    """
    for name, func in list(module.functions.items()):
        # On a COW module the blocks and their instructions may belong
        # to the COW source; never mutate them.
        shared = module.shares_blocks(name)
        shell = None
        for label, block in func.blocks.items():
            insts = block.instructions
            sites = [
                i
                for i, inst in enumerate(insts)
                if inst.opcode in INDIRECT_BRANCHES
            ]
            block_owned = False
            for i in sites:
                inst = insts[i]
                opcode = inst.opcode
                tag = None
                if opcode is Opcode.ICALL:
                    if fwd is not None and not icall_exempt(func, inst):
                        tag = fwd
                        report.protected_icalls += 1
                    else:
                        report.vulnerable_icalls += 1
                elif opcode is Opcode.RET:
                    # Returns are protectable even in assembly
                    # functions (objtool-style return-thunk patching);
                    # only boot-only code is exempt (Section 8.6).
                    if ret_exempt(func):
                        report.boot_only_rets += 1
                    elif bwd is not None:
                        tag = bwd
                        report.protected_rets += 1
                    else:
                        report.vulnerable_rets += 1
                else:
                    # Jump-table IJUMPs only exist when jump tables
                    # were allowed (no transient defenses); opaque asm
                    # IJUMPs can never be instrumented.
                    if fwd is not None and not ijump_exempt(func, inst):
                        tag = fwd
                        report.protected_ijumps += 1
                    else:
                        report.vulnerable_ijumps += 1
                if tag is not None:
                    if shared:
                        if not block_owned:
                            if shell is None:
                                shell = module.mutable_shell(name)
                            block = BasicBlock(label, insts)
                            shell.blocks[label] = block
                            insts = block.instructions
                            block_owned = True
                        inst = clone_instruction_exact(inst)
                        insts[i] = inst
                    inst.defense = tag
                    report._bump(tag)
