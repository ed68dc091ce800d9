"""IR instruction objects.

Every call-like instruction carries a globally unique, stable ``site_id``
assigned at construction time. Profiling keys edge counts by site id, which
is how profiles survive code motion: when the inliner clones an instruction
the clone receives a *fresh* id plus a ``cloned_from`` provenance attribute,
mirroring the paper's unique edge identifiers that map binary profiles back
to IR call sites (Section 7).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.ir.types import CALLS, INDIRECT_BRANCHES, TERMINATORS, Opcode

#: Highest site id handed out (or reserved) so far; the next fresh id is
#: always ``_max_issued + 1``, so allocation is a pure function of this
#: single integer — which is what makes :func:`site_id_checkpoint` and
#: :func:`site_id_scope` sound.
_max_issued = 0


def _next_site_id() -> int:
    global _max_issued
    _max_issued += 1
    return _max_issued


def reserve_site_ids(up_to: int) -> None:
    """Mark every id <= ``up_to`` as taken.

    The textual IR parser restores the site ids recorded in a dump so
    profiles keyed on them stay valid; reserving the range keeps freshly
    built instructions from colliding with restored ids.
    """
    global _max_issued
    if up_to > _max_issued:
        _max_issued = up_to


@contextlib.contextmanager
def site_id_checkpoint() -> Iterator[int]:
    """Run a block against a snapshotted site-id allocator, restoring it on
    exit.

    Fresh site ids are allocated from a process-global counter, so two
    otherwise identical builds performed in one process normally receive
    different ids for the instructions they create (ICP guards, inline
    clones). Differential tests that require *bit-identical* output — the
    staged-vs-reference build comparison — wrap each build in a
    checkpoint so both allocate the same id sequence.

    Only safe when the modules built inside separate checkpoints are never
    mixed under one profile: restoring the counter re-issues ids, which is
    exactly the point of the comparison but would alias sites if the
    resulting modules shared a profile universe.
    """
    global _max_issued
    saved = _max_issued
    try:
        yield saved
    finally:
        _max_issued = saved


@contextlib.contextmanager
def site_id_scope(start: Optional[int] = None) -> Iterator[int]:
    """Mint the block's fresh site ids from ``start + 1`` and yield
    ``start`` (``None``: where the allocator stands).

    Allocation is a pure function of the start, so a build that records
    its start mints the same ids again when it runs from that start in
    any process. On exit, also by an exception, the allocator stands at
    the larger of its value before and after the block: ids minted
    later are fresh to both. Inside the block a start below the
    allocator re-issues ids, with :func:`site_id_checkpoint`'s caveat.
    """
    global _max_issued
    before = _max_issued
    if start is not None:
        _max_issued = start
    try:
        yield _max_issued
    finally:
        _max_issued = max(before, _max_issued)


class Instruction:
    """A single IR instruction.

    Instructions of :data:`~repro.ir.types.IMMUTABLE_OPCODES` (``arith``,
    ``cmp``, ``load``, ``store``, ``fence``) carry no site id and no
    successor, and nothing writes them after construction. Inline
    splices and copy-on-write copies (``Module.mutable``) therefore
    share them by reference, so one such object may sit in many
    functions and modules; copy it before changing it. Calls,
    terminators and their ``attrs`` may be rewritten (profile lifting,
    count inheritance, ICP, defense tags), and both copy them.

    Parameters
    ----------
    opcode:
        The :class:`~repro.ir.types.Opcode` of this instruction.
    callee:
        Target function name for ``CALL`` instructions.
    targets:
        Successor block labels for terminators (``JMP``/``BR``/``SWITCH``).
    num_args:
        Argument count for call instructions (feeds InlineCost).
    attrs:
        Free-form attribute dictionary (see :mod:`repro.ir.types`).
    """

    __slots__ = ("opcode", "callee", "targets", "num_args", "attrs", "site_id")

    def __init__(
        self,
        opcode: Opcode,
        callee: Optional[str] = None,
        targets: Tuple[str, ...] = (),
        num_args: int = 0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.opcode = opcode
        self.callee = callee
        self.targets = tuple(targets)
        self.num_args = num_args
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        if opcode in CALLS:
            self.site_id: Optional[int] = _next_site_id()
        else:
            self.site_id = None

    # -- classification helpers -------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_call(self) -> bool:
        return self.opcode in CALLS

    @property
    def is_indirect_branch(self) -> bool:
        return self.opcode in INDIRECT_BRANCHES

    @property
    def defense(self) -> Optional[str]:
        """Name of the defense lowering applied to this branch, if any."""
        return self.attrs.get("defense")

    @defense.setter
    def defense(self, value: Optional[str]) -> None:
        if value is None:
            self.attrs.pop("defense", None)
        else:
            self.attrs["defense"] = value

    # -- structural operations ---------------------------------------------

    def clone(self, fresh_site_id: bool = True) -> "Instruction":
        """Deep-copy this instruction.

        Call instructions get a fresh ``site_id`` and record their origin in
        ``attrs['cloned_from']`` so inherited profile weights can be traced.
        """
        new = Instruction.__new__(Instruction)
        new.opcode = self.opcode
        new.callee = self.callee
        new.targets = self.targets
        new.num_args = self.num_args
        new.attrs = dict(self.attrs)
        if self.site_id is not None and fresh_site_id:
            new.site_id = _next_site_id()
            new.attrs.setdefault("cloned_from", self.site_id)
        else:
            new.site_id = self.site_id
        return new

    def retarget(self, mapping: Dict[str, str]) -> None:
        """Rewrite successor labels through ``mapping`` (used when cloning
        blocks into a new function during inlining)."""
        if self.targets:
            self.targets = tuple(mapping.get(t, t) for t in self.targets)

    def __repr__(self) -> str:
        parts = [self.opcode.value]
        if self.callee is not None:
            parts.append(self.callee)
        if self.targets:
            parts.append("->" + ",".join(self.targets))
        if self.site_id is not None:
            parts.append(f"#{self.site_id}")
        return f"<{' '.join(parts)}>"
