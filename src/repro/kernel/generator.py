"""Synthetic-kernel assembly: build order and summary stats.

``build_kernel`` is deterministic per spec: the same :class:`KernelSpec`
always yields a structurally identical module. Call-site ids are drawn
from a process-global counter, so profiles are keyed to one build and its
deep copies — the pipeline copies the baseline module per variant, which
is how one profiling run feeds every configuration in the evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.ir.module import Module
from repro.ir.types import Opcode
from repro.kernel.spec import DEFAULT_SPEC, KernelSpec
from repro.kernel.subsystems import (
    block,
    boot,
    drivers,
    entry,
    ipc,
    mm,
    net,
    sched,
    signal,
    timers,
    vfs,
    workqueue,
)

#: Build order matters only for name references inside builders; the
#: validation every :class:`~repro.core.pipeline.PibePipeline` runs on its
#: baseline catches any dangling reference regardless.
_BUILDERS = (
    entry.build,
    vfs.build,
    net.build,
    mm.build,
    sched.build,
    ipc.build,
    signal.build,
    timers.build,
    block.build,
    workqueue.build,
    drivers.build,
    boot.build,
)


def build_kernel(spec: KernelSpec = DEFAULT_SPEC) -> Module:
    """Construct the synthetic kernel.

    Not validated here: every :class:`~repro.core.pipeline.PibePipeline`
    validates its baseline, which is the one check that also guards
    parsed modules, and ``tests/kernel/test_generator.py`` validates the
    small and default specs.
    """
    module = Module(name=f"vmlinux-seed{spec.seed}")
    rng = random.Random(spec.seed)
    for builder in _BUILDERS:
        builder(module, spec, rng)
    return module


@dataclass(frozen=True)
class KernelStats:
    """Static census of a kernel image."""

    functions: int
    instructions: int
    icall_sites: int
    return_sites: int
    switch_sites: int
    ijump_sites: int
    fptr_tables: int
    syscalls: int
    address_taken: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "functions": self.functions,
            "instructions": self.instructions,
            "icall_sites": self.icall_sites,
            "return_sites": self.return_sites,
            "switch_sites": self.switch_sites,
            "ijump_sites": self.ijump_sites,
            "fptr_tables": self.fptr_tables,
            "syscalls": self.syscalls,
            "address_taken": self.address_taken,
        }


def kernel_stats(module: Module) -> KernelStats:
    """Compute the static census of a kernel image."""
    icalls = rets = switches = ijumps = 0
    for inst in module.instructions():
        if inst.opcode == Opcode.ICALL:
            icalls += 1
        elif inst.opcode == Opcode.RET:
            rets += 1
        elif inst.opcode == Opcode.SWITCH:
            switches += 1
        elif inst.opcode == Opcode.IJUMP:
            ijumps += 1
    return KernelStats(
        functions=len(module),
        instructions=module.size(),
        icall_sites=icalls,
        return_sites=rets,
        switch_sites=switches,
        ijump_sites=ijumps,
        fptr_tables=len(module.fptr_tables),
        syscalls=len(module.syscalls),
        address_taken=len(module.address_taken()),
    )
