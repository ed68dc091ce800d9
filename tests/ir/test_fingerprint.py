"""Module fingerprints: cache keys for profiles, prefixes and
measurements."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_module
from repro.ir.fingerprint import function_fingerprint, module_fingerprint
from repro.ir.function import Function
from repro.ir.module import Module
from repro.kernel.generator import build_kernel
from repro.kernel.spec import SmallSpec

SRC = Path(__file__).resolve().parents[2] / "src"


def _module():
    module = Module("m")
    func = Function("f")
    b = IRBuilder(func)
    b.arith(2)
    b.icall({"g": 1})
    b.ret()
    module.add_function(func)
    g = Function("g")
    IRBuilder(g).ret()
    module.add_function(g)
    return module


def test_rebuilt_kernel_same_shape_different_sites():
    # two builds of the same spec in one process are structurally
    # identical, but the global site counter assigns them different ids,
    # so they share no cache entry
    first = build_kernel(SmallSpec())
    second = build_kernel(SmallSpec())
    assert module_fingerprint(first) != module_fingerprint(second)


@pytest.mark.parametrize(
    "spec", ["DEFAULT_SPEC", "SmallSpec()"], ids=["default", "small"]
)
def test_fresh_interpreters_build_equal_fingerprints(spec):
    """Every program that evaluates builds its kernel first, so a kernel
    built in a fresh interpreter carries the same ids every time: the
    premise that lets a second run read the first one's cache."""
    script = (
        "from repro.ir.fingerprint import module_fingerprint\n"
        "from repro.kernel.generator import build_kernel\n"
        "from repro.kernel.spec import DEFAULT_SPEC, SmallSpec\n"
        f"print(module_fingerprint(build_kernel({spec})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    printed = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert len(printed[0].strip()) == 64
    assert printed[0] == printed[1]


def test_fingerprint_sensitive_to_ir_changes():
    module = _module()
    before = module_fingerprint(module)
    module.get("g").entry.instructions.insert(
        0, module.get("f").entry.instructions[0].clone()
    )
    assert module_fingerprint(module) != before


def test_fingerprint_sensitive_to_attrs():
    module = _module()
    before = module_fingerprint(module)
    icall = module.get("f").entry.instructions[1]
    icall.attrs["targets"] = {"g": 2}
    assert module_fingerprint(module) != before


def test_clone_preserves_site_sensitive_fingerprint():
    module = build_kernel(SmallSpec())
    clone = clone_module(module)
    assert module_fingerprint(clone) == module_fingerprint(module)


def test_function_fingerprint_differs_between_functions():
    module = _module()
    assert function_fingerprint(module.get("f")) != function_fingerprint(
        module.get("g")
    )
