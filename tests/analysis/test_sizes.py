"""Size/memory model (Table 12)."""

import pytest

from repro.analysis.sizes import (
    MEM_PAGE_BYTES,
    mem_size_bytes,
    peak_stack_bytes,
    size_report,
    slab_size_bytes,
    text_size_bytes,
)
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import FunctionPointerTable, Module


def _module(extra_work=0):
    module = Module("m")
    module.add_function(build_leaf("leaf", work=4 + extra_work))
    func = Function("f")
    b = IRBuilder(func)
    b.icall({"leaf": 1})
    b.ret()
    module.add_function(func)
    return module


def test_text_size_counts_defense_expansion_and_thunks():
    plain = _module()
    hardened = _module()
    HardeningPass(DefenseConfig.all_defenses()).run(hardened)
    base = text_size_bytes(plain)
    grown = text_size_bytes(hardened)
    # 2 rets x 8 units (combined lowering) + 10-unit fenced thunk, x5 bytes
    assert grown == base + (2 * 8 + 10) * 5


def test_mem_size_is_page_quantized():
    module = _module()
    mem = mem_size_bytes(module)
    assert mem % MEM_PAGE_BYTES == 0
    assert mem >= text_size_bytes(module)


def test_slab_size_tracks_tables_and_functions():
    module = _module()
    before = slab_size_bytes(module)
    module.add_fptr_table(FunctionPointerTable("ops", ["leaf"]))
    assert slab_size_bytes(module) == before + 64


def test_peak_stack_proxy_counts_biggest_frames():
    module = Module("m")
    for i, frame in enumerate((100, 200, 300)):
        module.add_function(
            build_leaf(f"f{i}")
        )
        module.get(f"f{i}").stack_frame_size = frame
    assert peak_stack_bytes(module) == 600


def _sizes(module):
    return text_size_bytes(module), slab_size_bytes(module)


def test_size_report_relative_measures():
    lto = _module()
    unopt = _module()
    HardeningPass(DefenseConfig.all_defenses()).run(unopt)
    variant = _module(extra_work=30)  # simulates inlining growth
    HardeningPass(DefenseConfig.all_defenses()).run(variant)
    report = size_report(
        "v",
        _sizes(variant),
        _sizes(unopt),
        text_size_bytes(lto),
        (peak_stack_bytes(variant), peak_stack_bytes(unopt)),
    )
    assert report.abs_size_increase > 0
    assert report.img_size_increase > 0
    assert report.abs_size_increase > report.img_size_increase
    assert report.label == "v"


def test_size_report_with_measured_dyn():
    lto = _module()
    report = size_report(
        "v", _sizes(lto), _sizes(lto), text_size_bytes(lto), (110.0, 100.0)
    )
    assert report.dyn_size_increase == pytest.approx(0.1)
