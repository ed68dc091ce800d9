"""Synthetic kernel generation: determinism, structure, census shape."""

from repro.engine.interpreter import Interpreter
from repro.engine.trace import TraceRecorder
from repro.ir.types import FunctionAttr, Opcode
from repro.ir.validate import validate_module
from repro.kernel.generator import build_kernel, kernel_stats
from repro.kernel.spec import DEFAULT_SPEC, KernelSpec, SmallSpec


def test_small_kernel_validates(small_kernel):
    validate_module(small_kernel)


def test_default_kernel_validates():
    # build_kernel does not validate; pipelines do, so this pins the
    # generator itself for the default spec.
    validate_module(build_kernel(DEFAULT_SPEC))


def test_generation_is_deterministic():
    spec = SmallSpec()
    a = kernel_stats(build_kernel(spec))
    b = kernel_stats(build_kernel(spec))
    assert a == b


def test_different_seeds_differ():
    a = kernel_stats(build_kernel(SmallSpec(seed=1)))
    b = kernel_stats(build_kernel(SmallSpec(seed=2)))
    assert a != b


def test_stats_census(small_kernel):
    stats = kernel_stats(small_kernel)
    assert stats.functions > 100
    assert stats.icall_sites > 20
    assert stats.ijump_sites == SmallSpec().num_asm_ijumps
    assert stats.syscalls >= 20
    assert stats.return_sites > stats.functions * 0.9


def test_expected_entry_points(small_kernel):
    for syscall in (
        "getppid",
        "read",
        "write",
        "open",
        "stat",
        "fstat",
        "select_file",
        "select_tcp",
        "pipe",
        "af_unix",
        "udp",
        "tcp",
        "tcp_conn",
        "fork_exit",
        "fork_exec",
        "fork_shell",
        "mmap",
        "page_fault",
        "sig_install",
        "sig_dispatch",
    ):
        assert syscall in small_kernel.syscalls, syscall


def test_every_syscall_executes(small_kernel):
    interp = Interpreter(small_kernel, seed=5)
    for syscall in small_kernel.syscalls:
        interp.run_syscall(syscall, times=2)


def test_paravirt_sites_are_asm(small_kernel):
    from repro.ir.types import ATTR_ASM_SITE

    pv = small_kernel.get("pv_irq_save")
    icalls = [i for i in pv.call_sites() if i.opcode == Opcode.ICALL]
    assert icalls
    assert all(i.attrs.get(ATTR_ASM_SITE) for i in icalls)
    # asm sites live in normal (inlinable) functions so budget growth
    # duplicates them (Table 11)
    assert pv.is_inlinable


def test_boot_functions_marked(small_kernel):
    boot = [
        f for f in small_kernel if f.has_attr(FunctionAttr.BOOT_ONLY)
    ]
    assert len(boot) >= SmallSpec().num_boot_functions


def test_cold_drivers_dominate_static_code(small_kernel):
    driver_functions = [
        f for f in small_kernel if f.subsystem == "drivers"
    ]
    # SmallSpec shrinks the driver bulk; the default spec has far more
    assert len(driver_functions) > len(small_kernel.functions) * 0.2


def test_asm_primitives_are_noinline(small_kernel):
    for name in ("copy_to_user", "copy_from_user", "memcpy_kernel"):
        assert not small_kernel.get(name).is_inlinable


def test_hot_path_touches_expected_subsystems(small_kernel):
    recorder = TraceRecorder()
    Interpreter(small_kernel, [recorder], seed=1).run_syscall("read", times=5)
    entered = {e[1] for e in recorder.of_kind("enter")}
    assert "sys_read" in entered
    assert "vfs_read" in entered
    assert any(name.startswith("security_") for name in entered)


def test_spec_frozen_dataclass():
    spec = KernelSpec()
    assert spec.seed == DEFAULT_SPEC.seed
    import dataclasses

    smaller = dataclasses.replace(spec, num_drivers=3)
    assert smaller.num_drivers == 3
    assert spec.num_drivers == DEFAULT_SPEC.num_drivers
