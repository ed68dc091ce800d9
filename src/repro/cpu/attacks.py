"""Transient control-flow hijacking attack simulations (paper Sections 2, 6).

Three adversaries, one per microarchitectural vector:

- :class:`SpectreV2Attack` — poisons the BTB entry a victim indirect
  call/jump aliases to; succeeds if the victim branch's lowering still
  consults the BTB (raw icall, jump-table ijump, or LVI-CFI's bare
  ``jmpq *reg``, which the paper notes remains BTB-predicted).
- :class:`Ret2specAttack` — desynchronizes the RSB; succeeds against raw
  returns (and against RSB-refilled kernels in the scenarios refilling
  does not cover); fails against return retpolines, which force the
  speculation into a capture loop.
- :class:`LVIAttack` — plants a value in the MOB so a faulting branch-
  target load transiently consumes it; succeeds unless the lowering
  fences the load before the transfer.

Each attack exposes a static census (``hijackable_sites``) used by the
security evaluation, and a dynamic ``attempt`` that walks the predictor
models end-to-end for demos and tests. Whether a lowering stops a vector
is read from :func:`repro.hardening.classes.defense_classes`, the table
the Table 11 census and the speculation lint read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.btb import BTB
from repro.cpu.mob import MOB
from repro.cpu.rsb import RSB
from repro.hardening.classes import LVI, RET2SPEC, SPECTRE_V2, defense_classes
from repro.ir.instruction import Instruction
from repro.ir.module import Module
from repro.ir.types import FunctionAttr, Opcode

#: Name used for the attacker's landing gadget in simulations.
ATTACKER_GADGET = "__attacker_gadget"


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one simulated attack attempt."""

    vector: str
    success: bool
    site_id: Optional[int]
    function: str
    speculative_target: Optional[str]
    detail: str


class TransientAttack:
    """Shared census machinery."""

    vector = "abstract"
    victim_opcodes = frozenset()

    def _boot_exempt(self, func) -> bool:
        return func.has_attr(FunctionAttr.BOOT_ONLY)

    def hijackable_sites(self, module: Module) -> List[Tuple[str, Instruction]]:
        """Static census: (function, instruction) pairs this vector can steer."""
        result: List[Tuple[str, Instruction]] = []
        for func in module:
            if self._boot_exempt(func):
                continue
            for inst in func.instructions():
                if self.is_vulnerable(inst):
                    result.append((func.name, inst))
        return result

    def is_vulnerable(self, inst: Instruction) -> bool:
        if inst.opcode not in self.victim_opcodes:
            return False
        return self.vector not in defense_classes(inst.defense)


class SpectreV2Attack(TransientAttack):
    """BTB poisoning against indirect calls and jumps."""

    vector = SPECTRE_V2
    victim_opcodes = frozenset({Opcode.ICALL, Opcode.IJUMP})

    def attempt(
        self, module: Module, func_name: str, inst: Instruction, btb: Optional[BTB] = None
    ) -> AttackOutcome:
        btb = btb or BTB()
        site = inst.site_id if inst.site_id is not None else id(inst) % btb.num_entries
        btb.poison(site, ATTACKER_GADGET)
        if self.is_vulnerable(inst):
            speculative = btb.predict(site)
            return AttackOutcome(
                self.vector,
                success=speculative == ATTACKER_GADGET,
                site_id=inst.site_id,
                function=func_name,
                speculative_target=speculative,
                detail="victim consumed poisoned BTB entry before resolution",
            )
        return AttackOutcome(
            self.vector,
            success=False,
            site_id=inst.site_id,
            function=func_name,
            speculative_target=None,
            detail=(
                f"lowering {inst.defense!r} does not consult the BTB: "
                "speculation is trapped in the retpoline capture loop"
            ),
        )


class Ret2specAttack(TransientAttack):
    """RSB poisoning against return instructions."""

    vector = RET2SPEC
    victim_opcodes = frozenset({Opcode.RET})

    def attempt(
        self,
        module: Module,
        func_name: str,
        inst: Instruction,
        rsb: Optional[RSB] = None,
        rsb_refilled: bool = False,
    ) -> AttackOutcome:
        rsb = rsb or RSB()
        attacker_token = -0xBAD
        if rsb_refilled:
            # Refilling stuffs benign entries — defends cross-context reuse
            # but not in-context speculative pollution (Section 6.4).
            rsb.refill(filler_token=0)
        rsb.poison(attacker_token)
        if self.is_vulnerable(inst):
            predicted = rsb.peek()
            return AttackOutcome(
                self.vector,
                success=predicted == attacker_token,
                site_id=None,
                function=func_name,
                speculative_target=ATTACKER_GADGET if predicted == attacker_token else None,
                detail="return mispredicted into attacker-planted RSB entry",
            )
        return AttackOutcome(
            self.vector,
            success=False,
            site_id=None,
            function=func_name,
            speculative_target=None,
            detail=(
                "return retpoline pins the RSB top to its own capture loop; "
                "misspeculation cannot escape"
            ),
        )


class LVIAttack(TransientAttack):
    """Load Value Injection against indirect-branch target loads."""

    vector = LVI
    victim_opcodes = frozenset({Opcode.ICALL, Opcode.RET, Opcode.IJUMP})

    def attempt(
        self, module: Module, func_name: str, inst: Instruction, mob: Optional[MOB] = None
    ) -> AttackOutcome:
        mob = mob or MOB()
        target_slot = 0x7F00
        mob.plant(target_slot, ATTACKER_GADGET)
        fenced = not self.is_vulnerable(inst)
        result = mob.load(
            target_slot,
            architectural_value="__legitimate_target",
            faulting=True,
            fenced=fenced,
        )
        return AttackOutcome(
            self.vector,
            success=result.transient,
            site_id=inst.site_id,
            function=func_name,
            speculative_target=result.value if result.transient else None,
            detail=(
                "faulting target load transiently consumed injected value"
                if result.transient
                else "LFENCE forced the target load to retire before transfer"
            ),
        )


ALL_ATTACKS = (SpectreV2Attack(), Ret2specAttack(), LVIAttack())


def attack_surface(module: Module) -> dict:
    """Per-vector count of hijackable sites (security-evaluation summary)."""
    return {
        attack.vector: len(attack.hijackable_sites(module))
        for attack in ALL_ATTACKS
    }
