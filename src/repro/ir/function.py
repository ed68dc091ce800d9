"""IR functions: an entry block plus a labelled control-flow graph."""

from __future__ import annotations

from typing import Container, Dict, Iterator, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.instruction import Instruction
from repro.ir.types import FunctionAttr, Opcode


class Function:
    """A function: named, with parameters, attributes and a block CFG.

    Blocks are kept in insertion order; the first block added is the entry.
    ``subsystem`` tags which synthetic kernel subsystem the function belongs
    to (used for reporting, e.g. Table 9's syscall-handler analysis).
    """

    __slots__ = (
        "name",
        "num_params",
        "blocks",
        "entry_label",
        "attrs",
        "stack_frame_size",
        "subsystem",
    )

    def __init__(
        self,
        name: str,
        num_params: int = 0,
        attrs: Optional[Set[FunctionAttr]] = None,
        stack_frame_size: int = 32,
        subsystem: str = "",
    ) -> None:
        self.name = name
        self.num_params = num_params
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry_label: Optional[str] = None
        self.attrs: Set[FunctionAttr] = set(attrs) if attrs else set()
        self.stack_frame_size = stack_frame_size
        self.subsystem = subsystem

    # -- block management -------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(
                f"duplicate block label {block.label!r} in {self.name!r}"
            )
        self.blocks[block.label] = block
        if self.entry_label is None:
            self.entry_label = block.label
        return block

    def new_block(self, label: str) -> BasicBlock:
        return self.add_block(BasicBlock(label))

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry_label]

    def unique_label(self, base: str, avoid: Container[str] = ()) -> str:
        """Return a block label derived from ``base`` that is neither in
        use nor in ``avoid`` (labels chosen but not yet added)."""
        if base not in self.blocks and base not in avoid:
            return base
        i = 1
        while f"{base}.{i}" in self.blocks or f"{base}.{i}" in avoid:
            i += 1
        return f"{base}.{i}"

    # -- attribute helpers ---------------------------------------------------

    def has_attr(self, attr: FunctionAttr) -> bool:
        return attr in self.attrs

    @property
    def is_inlinable(self) -> bool:
        """Whether any pass may inline this function's body."""
        return not (
            FunctionAttr.NOINLINE in self.attrs
            or FunctionAttr.OPTNONE in self.attrs
            or FunctionAttr.INLINE_ASM in self.attrs
        )

    @property
    def is_instrumentable(self) -> bool:
        """Whether hardening passes may rewrite this function's branches
        (inline assembly is off-limits, paper Section 3)."""
        return FunctionAttr.INLINE_ASM not in self.attrs

    # -- queries ------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions

    def call_sites(self) -> Iterator[Instruction]:
        for inst in self.instructions():
            if inst.is_call:
                yield inst

    def returns(self) -> List[Instruction]:
        return [i for i in self.instructions() if i.opcode == Opcode.RET]

    def size(self) -> int:
        """Total instruction count (static size proxy)."""
        return sum(len(b) for b in self.blocks.values())

    def is_recursive(self) -> bool:
        return any(
            inst.opcode == Opcode.CALL and inst.callee == self.name
            for inst in self.instructions()
        )

    def __repr__(self) -> str:
        return (
            f"<Function {self.name} blocks={len(self.blocks)} "
            f"size={self.size()}>"
        )
