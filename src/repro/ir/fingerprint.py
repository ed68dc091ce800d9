"""Stable structural fingerprints for IR objects.

The evaluation's on-disk cache needs a key that says "this is byte-for-
byte the same program" without serializing whole modules into every key.
A fingerprint is a SHA-256 over a canonical rendering of a function's
structure: blocks in insertion order, each instruction's opcode, callee,
successor labels, argument count, site id and attributes (dict
attributes sorted by key so hash ordering never leaks in).

Site ids are part of the key: profiles are keyed on them and the BTB
model indexes by them, so two modules that differ only in id assignment
(e.g. built at different points of one process's lifetime) share no
cache entry of any kind.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import Opcode

#: Each opcode's text, read once: ``Opcode.value`` is a descriptor call.
_OPCODE_TEXT = {op: op.value for op in Opcode}


def _canon(value) -> object:
    """Render an attribute value into a deterministically ordered form."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _function_lines(func: Function) -> List[str]:
    """The canonical rendering of ``func``, one line per entry."""
    lines = [
        f"func {func.name} params={func.num_params} "
        f"frame={func.stack_frame_size} subsystem={func.subsystem} "
        f"attrs={sorted(a.value for a in func.attrs)} "
        f"entry={func.entry_label}"
    ]
    append = lines.append
    opcode_text = _OPCODE_TEXT
    for label, block in func.blocks.items():
        append(f"block {label}")
        for inst in block.instructions:
            # Most instructions carry no attributes; ``_canon({})`` is
            # ``()``, so they skip the call.
            attrs = _canon(inst.attrs) if inst.attrs else ()
            append(
                f"  {opcode_text[inst.opcode]} callee={inst.callee} "
                f"targets={inst.targets} args={inst.num_args} "
                f"site={inst.site_id} attrs={attrs}"
            )
    return lines


def function_fingerprint(func: Function) -> str:
    """Hex SHA-256 of one function's canonical structure: every line of
    the rendering followed by a newline, joined and hashed in one
    ``update``. The digest is the one a line-by-line hash of the same
    text gives; one pass over the joined text is what keeps hashing a
    whole kernel (every disk key leads with its fingerprint) cheap."""
    lines = _function_lines(func)
    lines.append("")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def module_fingerprint(module: Module) -> str:
    """Hex SHA-256 over every function plus tables, syscalls and metadata.

    Functions are hashed in sorted-name order, so two modules whose
    functions were registered in different orders but are otherwise
    identical fingerprint identically.
    """
    digest = hashlib.sha256()
    for name in sorted(module.functions):
        digest.update(name.encode())
        digest.update(function_fingerprint(module.functions[name]).encode())
    for name in sorted(module.fptr_tables):
        table = module.fptr_tables[name]
        digest.update(f"table {name} {table.entries}".encode())
    for syscall in sorted(module.syscalls):
        digest.update(f"syscall {syscall} {module.syscalls[syscall]}".encode())
    for key in sorted(module.metadata):
        digest.update(f"meta {key} {module.metadata[key]!r}".encode())
    return digest.hexdigest()
