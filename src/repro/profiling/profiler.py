"""Profiling trace sink: turns execution events into an EdgeProfile.

Mirrors the paper's profiling binary: every call edge is tagged with the
unique id of its IR call site, records flow through an LBR-style buffer,
and the aggregate is an :class:`~repro.profiling.profile_data.EdgeProfile`
that the lifting step maps back onto the IR (Section 7).

The profiler is also a counting sink. The vectorized engine delivers the
same call-edge counts in batches (the profile buckets of a
:class:`~repro.cpu.counting.CountSummary`) instead of one event per call,
which makes collection several times cheaper; the profile is identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.engine.trace import TraceSink
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.profiling.lbr import BranchRecord, LBRBuffer
from repro.profiling.profile_data import EdgeProfile

if TYPE_CHECKING:  # import cycle guard for type hints
    from repro.cpu.counting import CountSummary


class KernelProfiler(TraceSink):
    """Collects an edge profile from interpreter events.

    Parameters
    ----------
    workload:
        Name recorded on the resulting profile.
    lbr_capacity:
        Ring size of the modelled LBR buffer.
    """

    #: Accepts batched count summaries, so the vectorized engine keeps its
    #: vector path under this sink.
    supports_counts = True
    #: Reads only the summaries' profile buckets, so the engine flushes
    #: them sparsely in python and never builds its dense numpy matrix.
    counts_profile_only = True

    def __init__(self, workload: str = "", lbr_capacity: int = 32) -> None:
        self.profile = EdgeProfile(workload=workload)
        self.lbr = LBRBuffer(capacity=lbr_capacity, on_drain=self._aggregate)
        self._flush: Optional[Callable[[], None]] = None

    # -- batched delivery (vectorized engine) --------------------------------

    def bind_flush(self, flush: Callable[[], None]) -> None:
        """Called by the vectorized engine so :meth:`finish` can drain the
        counts still held in the engine's accumulators."""
        self._flush = flush

    def absorb_counts(self, summary: "CountSummary") -> None:
        profile = self.profile
        for site, count in summary.direct.items():
            profile.record_direct(site, count)
        for (site, target), count in summary.indirect.items():
            profile.record_indirect(site, target, count)
        for name, count in summary.invocations.items():
            profile.record_invocation(name, count)

    # -- trace sink interface ------------------------------------------------

    def on_enter(self, func: Function) -> None:
        self.profile.record_invocation(func.name)

    def on_call(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        assert inst.site_id is not None
        self.lbr.push(BranchRecord(inst.site_id, callee.name, indirect=False))

    def on_icall(
        self, inst: Instruction, caller: Function, callee: Function
    ) -> None:
        assert inst.site_id is not None
        self.lbr.push(BranchRecord(inst.site_id, callee.name, indirect=True))

    def on_run_end(self, entry: str) -> None:
        self.lbr.drain()

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, batch: List[BranchRecord]) -> None:
        profile = self.profile
        for record in batch:
            if record.indirect:
                profile.record_indirect(record.site_id, record.target)
            else:
                profile.record_direct(record.site_id)

    def finish(self) -> EdgeProfile:
        """Flush any buffered records and return the completed profile.

        Marks the end of one profiling iteration (the paper aggregates 11)."""
        if self._flush is not None:
            self._flush()
        self.lbr.drain()
        self.profile.runs += 1
        return self.profile
