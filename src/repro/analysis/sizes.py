"""Image-size and memory-usage model (paper Table 12).

- **text size**: lowered instruction units (IR size plus per-site defense
  expansion plus shared thunks) times the average instruction size.
- **mem size**: kernel text is mapped in large pages, so the resident code
  memory grows in page-granular steps — the paper's 0% / 12.5% / 25%
  staircase. We use a configurable page granularity scaled to the
  synthetic kernel.
- **slab / dyn size**: the paper reads these from ``/proc`` while running
  LMBench. We model their dominant inlining-sensitive component: merged
  stack frames (Rule 2's concern) change per-task stack usage, while slab
  usage barely moves. Substitution documented in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.hardening.lowering import (
    THUNK_UNITS,
    required_thunks,
    site_expansion_units,
)
from repro.ir.module import Module
from repro.ir.types import INSTRUCTION_SIZE_BYTES

#: Large-page granularity for resident-text accounting, scaled to the
#: synthetic kernel (Linux uses 2 MiB pages for ~30 MiB of text; we use
#: 32 KiB pages for ~150 KiB of text).
MEM_PAGE_BYTES = 32 * 1024

#: Baseline slab footprint (op tables, descriptors — barely affected by
#: code transformations).
BASE_SLAB_BYTES = 512 * 1024


def text_size_bytes(module: Module) -> int:
    """Lowered image text size including defense expansion and thunks."""
    units = 0
    tags = set()
    for func in module:
        units += func.size()
        for inst in func.instructions():
            tag = inst.attrs.get("defense")
            if tag is not None:
                units += site_expansion_units(inst)
                tags.add(tag)
    for thunk in required_thunks(sorted(tags)):
        units += THUNK_UNITS[thunk]
    return units * INSTRUCTION_SIZE_BYTES


def mem_size_bytes(module: Module, page_bytes: int = MEM_PAGE_BYTES) -> int:
    """Resident kernel-code memory at startup (page-quantized text)."""
    return _page_quantized(text_size_bytes(module), page_bytes)


def _page_quantized(text: int, page_bytes: int = MEM_PAGE_BYTES) -> int:
    return int(math.ceil(text / page_bytes)) * page_bytes


def slab_size_bytes(module: Module) -> int:
    """Startup slab usage: op-table/descriptor metadata plus a fixed base."""
    table_bytes = sum(
        64 * len(table.entries) for table in module.fptr_tables.values()
    )
    per_function_metadata = 16 * len(module.functions)
    return BASE_SLAB_BYTES + table_bytes + per_function_metadata


def peak_stack_bytes(module: Module) -> int:
    """Static worst-case stack depth proxy: the deepest frame chain is not
    derivable cheaply, so we use the sum of the largest frames (inlining
    merges frames, growing this — the dyn-size effect of Rule 2)."""
    frames = sorted(
        (f.stack_frame_size for f in module.functions.values()), reverse=True
    )
    return sum(frames[:16])


@dataclass
class SizeReport:
    """Table 12 measurements for one image vs its two baselines."""

    label: str
    text_bytes: int
    #: vs the vanilla LTO image (paper's "abs. size")
    abs_size_increase: float
    #: vs the unoptimized image with the same defenses ("img size")
    img_size_increase: float
    #: page-quantized resident code memory increase ("mem size")
    mem_size_increase: float
    #: slab usage increase ("slab size")
    slab_size_increase: float
    #: dynamic (stack) usage increase ("dyn size")
    dyn_size_increase: float


def size_report(
    label: str,
    variant: Module,
    lto_baseline: Module,
    unoptimized_same_config: Module,
    measured_dyn: "Optional[Tuple[float, float]]" = None,
    text_size: Callable[[Module], int] = text_size_bytes,
) -> SizeReport:
    """Assemble one Table 12 row.

    ``measured_dyn`` optionally supplies dynamically measured peak-stack
    bytes as ``(variant, unoptimized)``; otherwise the static proxy is
    used. ``text_size`` computes a module's text size (a caller building
    many rows over shared modules can pass a memoized one).
    """

    def rel(new: float, old: float) -> float:
        return new / old - 1.0 if old else 0.0

    if measured_dyn is not None:
        dyn_increase = rel(measured_dyn[0], measured_dyn[1])
    else:
        dyn_increase = rel(
            peak_stack_bytes(variant),
            peak_stack_bytes(unoptimized_same_config),
        )
    variant_text = text_size(variant)
    unoptimized_text = text_size(unoptimized_same_config)
    return SizeReport(
        label=label,
        text_bytes=variant_text,
        abs_size_increase=rel(variant_text, text_size(lto_baseline)),
        img_size_increase=rel(variant_text, unoptimized_text),
        mem_size_increase=rel(
            _page_quantized(variant_text), _page_quantized(unoptimized_text)
        ),
        slab_size_increase=rel(
            slab_size_bytes(variant),
            slab_size_bytes(unoptimized_same_config),
        ),
        dyn_size_increase=dyn_increase,
    )
