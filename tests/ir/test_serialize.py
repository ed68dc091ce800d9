"""The exact JSON codec behind the disk-cached optimized prefix.

The contract is stronger than the textual printer/parser pair: a module
written as a header plus function chunks and read back must fingerprint
identically to the original, site ids included, because
variants are stamped directly onto disk-loaded prefixes and must stay
bit-identical to ones stamped on freshly built prefixes."""

import json

import pytest

from repro.hardening.defenses import DefenseConfig
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.fingerprint import module_fingerprint
from repro.ir.function import Function
from repro.ir.instruction import Instruction, reserve_site_ids
from repro.ir.module import FunctionPointerTable, Module
from repro.ir.printer import format_module
from repro.ir.serialize import (
    SERIAL_VERSION,
    functions_from_chunk,
    functions_to_chunk,
    module_from_header,
    module_header_to_dict,
)
from repro.ir.types import ATTR_VALUE_PROFILE, FunctionAttr, Opcode
from repro.ir.validate import validate_module


def _rich_module():
    """A module exercising every special case the codec must preserve."""
    module = Module("rich")
    module.add_function(build_leaf("t1"))
    module.add_function(build_leaf("t2", attrs=[FunctionAttr.NOINLINE]))
    main = Function(
        "main", num_params=2, stack_frame_size=96, subsystem="core"
    )
    b = IRBuilder(main)
    icall = b.icall({"t1": 3, "t2": 1})
    icall.attrs[ATTR_VALUE_PROFILE] = [("t1", 3), ("t2", 1)]
    b.call("t1", num_args=1)
    then = b.new_block("then")
    other = b.new_block("other")
    b.br("then", "other", p_taken=1.0)
    b.at(then).arith(1)
    b.at(then).ret()
    b.at(other).arith(2)
    b.at(other).ret()
    module.add_function(main)
    module.fptr_tables["ops"] = FunctionPointerTable("ops", ["t1", "t2"])
    module.syscalls["read"] = "main"
    module.metadata["defenses"] = DefenseConfig.all_defenses()
    module.metadata["note"] = {"b": 1, "a": 2}  # insertion order matters
    return module


def _encode(module):
    """The header and one chunk per function, in sorted-name order the
    way the prefix cache groups them (so the header's function order is
    what restores module order)."""
    header = module_header_to_dict(module)
    chunks = [
        functions_to_chunk([module.functions[name]])
        for name in sorted(module.functions)
    ]
    return header, chunks


def _decode(header, chunks):
    functions = {}
    max_site = 0
    for chunk in chunks:
        decoded, chunk_max = functions_from_chunk(chunk)
        functions.update(decoded)
        max_site = max(max_site, chunk_max)
    return module_from_header(header, functions), max_site


def _roundtrip(module, via_text=False):
    header, chunks = _encode(module)
    if via_text:
        header = json.loads(json.dumps(header))
        chunks = [json.loads(json.dumps(chunk)) for chunk in chunks]
    return _decode(header, chunks)[0]


def test_roundtrip_fingerprint_exact():
    module = _rich_module()
    restored = _roundtrip(module)
    validate_module(restored)
    assert module_fingerprint(restored) == module_fingerprint(module)
    assert format_module(restored) == format_module(module)


def test_roundtrip_survives_json_text():
    """The payload must survive an actual dumps/loads cycle (the disk
    path), not just the in-memory dict."""
    module = _rich_module()
    restored = _roundtrip(module, via_text=True)
    assert module_fingerprint(restored) == module_fingerprint(module)


def test_roundtrip_value_profiles_are_tuples():
    module = _rich_module()
    restored = _roundtrip(module, via_text=True)
    (icall,) = [
        inst
        for inst in restored.get("main").instructions()
        if inst.opcode == Opcode.ICALL
    ]
    profile = icall.attrs[ATTR_VALUE_PROFILE]
    assert profile == [("t1", 3), ("t2", 1)]
    assert all(isinstance(entry, tuple) for entry in profile)


def test_roundtrip_defense_config_metadata():
    module = _rich_module()
    restored = _roundtrip(module, via_text=True)
    assert restored.metadata["defenses"] == DefenseConfig.all_defenses()
    assert isinstance(restored.metadata["defenses"], DefenseConfig)
    assert list(restored.metadata["note"]) == ["b", "a"]


def test_site_ids_survive_and_allocator_advances():
    module = _rich_module()
    sites = [
        inst.site_id
        for inst in module.get("main").instructions()
        if inst.site_id is not None
    ]
    restored, max_site = _decode(*_encode(module))
    restored_sites = [
        inst.site_id
        for inst in restored.get("main").instructions()
        if inst.site_id is not None
    ]
    assert restored_sites == sites
    # the chunks report the highest restored id; reserving it (as the
    # prefix loader does) advances the global allocator past it
    assert max_site == max(
        inst.site_id
        for func in module
        for inst in func.instructions()
        if inst.site_id is not None
    )
    reserve_site_ids(max_site)
    fresh = Instruction(Opcode.CALL, callee="t1")
    assert fresh.site_id > max_site


def test_version_mismatch_rejected():
    header, chunks = _encode(_rich_module())
    for payload in (header, chunks[0]):
        payload["serial_version"] = "ir-json-v0"
    with pytest.raises(ValueError, match=SERIAL_VERSION):
        functions_from_chunk(chunks[0])
    functions, _ = functions_from_chunk(chunks[1])
    with pytest.raises(ValueError, match=SERIAL_VERSION):
        module_from_header(header, functions)
    for payload in (header, chunks[0]):
        payload.pop("serial_version")
    with pytest.raises(ValueError):
        functions_from_chunk(chunks[0])
    with pytest.raises(ValueError):
        module_from_header(header, functions)


def test_unencodable_metadata_raises_on_dumps():
    module = _rich_module()
    module.metadata["bad"] = object()
    with pytest.raises(TypeError):
        json.dumps(module_header_to_dict(module))
