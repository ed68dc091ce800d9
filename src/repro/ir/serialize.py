"""Exact JSON (de)serialization of IR modules.

The textual printer/parser pair (:mod:`repro.ir.printer` /
:mod:`repro.ir.parser`) is the human-facing format: readable, hand-editable,
and deliberately lossy about bookkeeping that people don't care about
(stack frame sizes, subsystem tags, module metadata). The staged build
engine's disk-cached optimized-prefix modules need the opposite trade —
a machine format whose round trip is *exact*. A module is written as one
header (:func:`module_header_to_dict`) plus function-body chunks
(:func:`functions_to_chunk`), and read back with
:func:`functions_from_chunk` and :func:`module_from_header`; the result
fingerprints identically to the original, site ids included, so a
variant stamped on a disk-loaded prefix is bit-identical to one stamped
on the freshly built prefix.

Everything JSON can't express natively is covered explicitly:

- instruction ``site_id`` values survive verbatim, and each chunk
  reports its maximum so the caller can advance the global id allocator
  past it (like the parser);
- ``value_profile`` entries are restored as ``(target, count)`` tuples
  (the printer renders tuples and lists differently);
- function attribute sets and the applied :class:`DefenseConfig` (when a
  hardened module is serialized) round-trip through their enum values.

Free-form metadata is restricted to JSON-encodable values plus the known
special cases; ``json.dumps`` raises ``TypeError`` on anything else, which
callers treat as "not cacheable" rather than silently dropping state.
Encode payloads *without* ``sort_keys`` — metadata values can be dicts
whose ``repr`` (hence the module fingerprint) is insertion-order
sensitive, and plain ``json.dumps`` preserves that order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import FunctionPointerTable, Module
from repro.ir.types import ATTR_VALUE_PROFILE, FunctionAttr, Opcode

#: Bump when the layout changes so stale disk payloads never deserialize.
SERIAL_VERSION = "ir-json-v1"

_METADATA_DEFENSE_MARKER = "__defense_config__"

#: Enum lookup by value — ``Opcode(value)`` dispatches through
#: ``EnumMeta.__call__`` on every instruction, which dominates decode
#: time for a multi-thousand-function module; a plain dict get does not.
_OPCODE_BY_VALUE = {member.value: member for member in Opcode}
#: ... and its inverse: ``Opcode.value`` is a Python-level property.
_VALUE_BY_OPCODE = {member: member.value for member in Opcode}


def _encode_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for key, value in attrs.items():
        if key == ATTR_VALUE_PROFILE:
            value = [[t, c] for t, c in value]
        encoded[key] = value
    return encoded


def _decode_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    decoded: Dict[str, Any] = {}
    for key, value in attrs.items():
        if key == ATTR_VALUE_PROFILE:
            value = [(str(t), int(c)) for t, c in value]
        decoded[key] = value
    return decoded


def _instruction_from_dict(data: Dict[str, Any]) -> Instruction:
    inst = Instruction.__new__(Instruction)
    inst.opcode = _OPCODE_BY_VALUE[data["op"]]
    inst.callee = data.get("callee")
    inst.targets = tuple(data.get("targets", ()))
    inst.num_args = int(data.get("args", 0))
    inst.site_id = data.get("site")
    attrs = data.get("attrs")
    inst.attrs = _decode_attrs(attrs) if attrs else {}
    return inst


def _function_to_dict(func: Function) -> Dict[str, Any]:
    # Instructions are encoded inline: this loop runs over every
    # instruction of every persisted prefix chunk.
    blocks = []
    for block in func.blocks.values():
        insts = []
        for inst in block.instructions:
            data: Dict[str, Any] = {"op": _VALUE_BY_OPCODE[inst.opcode]}
            if inst.callee is not None:
                data["callee"] = inst.callee
            if inst.targets:
                data["targets"] = list(inst.targets)
            if inst.num_args:
                data["args"] = inst.num_args
            if inst.site_id is not None:
                data["site"] = inst.site_id
            if inst.attrs:
                data["attrs"] = _encode_attrs(inst.attrs)
            insts.append(data)
        blocks.append({"label": block.label, "insts": insts})
    return {
        "name": func.name,
        "params": func.num_params,
        "attrs": sorted(a.value for a in func.attrs),
        "frame": func.stack_frame_size,
        "subsystem": func.subsystem,
        "entry": func.entry_label,
        "blocks": blocks,
    }


def _function_from_dict(data: Dict[str, Any]) -> Function:
    func = Function(
        data["name"],
        num_params=int(data.get("params", 0)),
        attrs={FunctionAttr(v) for v in data.get("attrs", ())},
        stack_frame_size=int(data.get("frame", 32)),
        subsystem=data.get("subsystem", ""),
    )
    for block_data in data.get("blocks", ()):
        func.blocks[block_data["label"]] = BasicBlock(
            block_data["label"],
            [_instruction_from_dict(i) for i in block_data.get("insts", ())],
        )
    func.entry_label = data.get("entry")
    return func


def _encode_metadata(metadata: Dict[str, Any]) -> Dict[str, Any]:
    from repro.hardening.defenses import DefenseConfig

    encoded: Dict[str, Any] = {}
    for key, value in metadata.items():
        if isinstance(value, DefenseConfig):
            encoded[key] = {
                _METADATA_DEFENSE_MARKER: True,
                "retpolines": value.retpolines,
                "ret_retpolines": value.ret_retpolines,
                "lvi_cfi": value.lvi_cfi,
                "nontransient": sorted(d.value for d in value.nontransient),
            }
        else:
            encoded[key] = value  # json.dumps validates encodability later
    return encoded


def _decode_metadata(metadata: Dict[str, Any]) -> Dict[str, Any]:
    from repro.hardening.defenses import DefenseConfig, NonTransientDefense

    decoded: Dict[str, Any] = {}
    for key, value in metadata.items():
        if isinstance(value, dict) and value.get(_METADATA_DEFENSE_MARKER):
            decoded[key] = DefenseConfig(
                retpolines=bool(value["retpolines"]),
                ret_retpolines=bool(value["ret_retpolines"]),
                lvi_cfi=bool(value["lvi_cfi"]),
                nontransient=frozenset(
                    NonTransientDefense(v) for v in value["nontransient"]
                ),
            )
        else:
            decoded[key] = value
    return decoded


def module_header_to_dict(module: Module) -> Dict[str, Any]:
    """The codec's header half: the module name, pointer tables,
    syscalls and metadata, plus the explicit function order (chunks
    group functions by sorted name, so concatenating them would scramble
    module iteration order). The bodies go into
    :func:`functions_to_chunk` payloads."""
    return {
        "serial_version": SERIAL_VERSION,
        "name": module.name,
        "function_order": list(module.functions),
        "fptr_tables": [
            {"name": t.name, "entries": list(t.entries)}
            for t in module.fptr_tables.values()
        ],
        "syscalls": dict(module.syscalls),
        "metadata": _encode_metadata(module.metadata),
    }


def functions_to_chunk(
    funcs: Iterable[Function],
    dict_memo: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Render a group of functions as one chunk payload.

    ``dict_memo`` (keyed by ``id(func)``) reuses per-function dicts
    across calls — budget-ladder prefixes share untouched functions as
    identical objects, so each serializes once no matter how many
    entries (or chunk groupings) reference it. The caller must keep
    every memoized function alive for the memo's lifetime so ids cannot
    be recycled. :class:`~repro.core.pipeline.PibePipeline` does so by
    memoizing only windows of copy-on-write-shared functions, which the
    baseline or a decision basis owns for the pipeline's whole life.
    """
    if dict_memo is None:
        dicts = [_function_to_dict(f) for f in funcs]
    else:
        dicts = []
        for func in funcs:
            cached = dict_memo.get(id(func))
            if cached is None:
                cached = _function_to_dict(func)
                dict_memo[id(func)] = cached
            dicts.append(cached)
    return {
        "serial_version": SERIAL_VERSION,
        "functions": dicts,
    }


def functions_from_chunk(
    data: Dict[str, Any]
) -> Tuple[Dict[str, Function], int]:
    """Decode one chunk payload into ``{name: Function}`` plus the maximum
    site id it contains (callers reserve the global allocator once over
    all chunks, so instructions created afterwards never collide).

    Raises ``ValueError`` on a layout-version mismatch.
    """
    version = data.get("serial_version")
    if version != SERIAL_VERSION:
        raise ValueError(
            f"serialized chunk layout {version!r} != {SERIAL_VERSION!r}"
        )
    functions: Dict[str, Function] = {}
    max_site = 0
    for func_data in data.get("functions", ()):
        func = _function_from_dict(func_data)
        functions[func.name] = func
        for block in func.blocks.values():
            for inst in block.instructions:
                site = inst.site_id
                if site is not None and site > max_site:
                    max_site = site
    return functions, max_site


def module_from_header(
    header: Dict[str, Any], functions: Dict[str, Function]
) -> Module:
    """Assemble a module from a chunked-codec header and decoded bodies.

    ``functions`` may contain extras (shared decoded chunks hold whole
    name windows); only the header's ``function_order`` is consulted.
    Site-id reservation is the caller's job — the decoded chunks already
    reported their maxima. Raises ``ValueError`` on version mismatch or a
    body missing from ``functions``.
    """
    version = header.get("serial_version")
    if version != SERIAL_VERSION:
        raise ValueError(
            f"serialized module layout {version!r} != {SERIAL_VERSION!r}"
        )
    module = Module(header.get("name", "module"))
    for name in header.get("function_order", ()):
        func = functions.get(name)
        if func is None:
            raise ValueError(f"chunked module is missing function {name!r}")
        module.functions[name] = func
    for table in header.get("fptr_tables", ()):
        module.fptr_tables[table["name"]] = FunctionPointerTable(
            table["name"], list(table.get("entries", ()))
        )
    module.syscalls = dict(header.get("syscalls", {}))
    module.metadata = _decode_metadata(header.get("metadata", {}))
    return module
