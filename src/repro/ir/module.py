"""IR modules: the whole-program unit PIBE's link-time passes operate on.

A module holds every function plus the function-pointer tables that give
rise to the kernel's indirect calls (``file_operations``-style op vectors)
and the syscall table that names userspace-reachable entry points.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.types import Opcode


class FunctionPointerTable:
    """A named table of function pointers (e.g. a ``file_operations``).

    Indirect call sites reference a table by name; the interpreter and the
    profile lifter use the table to resolve/validate indirect targets.
    """

    __slots__ = ("name", "entries")

    def __init__(self, name: str, entries: Optional[List[str]] = None) -> None:
        self.name = name
        self.entries: List[str] = list(entries) if entries else []

    def add(self, function_name: str) -> None:
        if function_name not in self.entries:
            self.entries.append(function_name)

    def __contains__(self, function_name: str) -> bool:
        return function_name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"<FPTable {self.name} [{len(self.entries)} entries]>"


class Module:
    """A linked whole-program IR module."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.fptr_tables: Dict[str, FunctionPointerTable] = {}
        #: syscall name -> handler function name
        self.syscalls: Dict[str, str] = {}
        #: free-form module metadata (e.g. applied hardening configuration)
        self.metadata: Dict[str, object] = {}
        #: transformation counter; derived artifacts (the compiled
        #: execution engine's per-module program cache) are keyed on it.
        #: Bumped by the pass manager after every pass — bump manually
        #: after mutating IR by hand.
        self.version = 0
        #: Copy-on-write bookkeeping (see ``clone_module(cow=True)``):
        #: ``None`` on a module that owns all its functions. On a COW
        #: clone, the functions it has copied, each mapped to ``True``
        #: when the clone owns it outright (made private by
        #: :meth:`mutable`, or added since the clone) or to ``False``
        #: for a :meth:`mutable_shell` skeleton, whose blocks and
        #: instructions may still be the source's. Every other function
        #: is shared with the COW source: safe to read, but materialized
        #: through :meth:`mutable` before any mutation.
        self._cow_copies: Optional[Dict[str, bool]] = None

    # -- copy-on-write ---------------------------------------------------------

    def mutable(self, name: str) -> Function:
        """The function ``name``, guaranteed private to this module.

        On a copy-on-write clone (``clone_module(cow=True)``) the first
        ``mutable`` call for a shared function or a
        :meth:`mutable_shell` skeleton replaces it with a private copy
        (``clone_function_exact(cow=True)``: labels and site ids
        preserved, calls and terminators copied, immutable instructions
        and the ``attrs`` set shared) and returns it; afterwards — and
        on ordinary modules always — this is just ``functions[name]``.
        Every pass that mutates a function goes through this accessor,
        so the COW source (a cached optimized-prefix module, the
        baseline) can never be corrupted by a variant build.
        """
        func = self.functions[name]
        copies = self._cow_copies
        if copies is not None and not copies.get(name):
            from repro.ir.clone import clone_function_exact

            func = clone_function_exact(func, cow=True)
            self.functions[name] = func
            copies[name] = True
        return func

    def mutable_shell(self, name: str) -> Function:
        """Like :meth:`mutable`, but only the function *skeleton* is
        copied — its :class:`BasicBlock` objects (and their instructions)
        stay shared with the COW source.

        For passes that stamp attributes onto a few instructions and do
        their own block-level copy-on-write (the hardening pass): the
        caller owns ``func.blocks`` (may rebind labels to fresh blocks)
        but MUST NOT mutate the block/instruction objects themselves,
        which :meth:`shares_blocks` keeps reporting as possibly shared.
        On a skeleton or an owned function this is just
        ``functions[name]``.
        """
        func = self.functions[name]
        copies = self._cow_copies
        if copies is not None and name not in copies:
            from repro.ir.clone import clone_function_shell

            func = clone_function_shell(func)
            self.functions[name] = func
            copies[name] = False
        return func

    def is_cow_shared(self, name: str) -> bool:
        """Whether ``name`` is still the COW source's function object
        (false for owned functions, skeletons and absent names)."""
        copies = self._cow_copies
        return (
            copies is not None
            and name not in copies
            and name in self.functions
        )

    def shares_blocks(self, name: str) -> bool:
        """Whether ``name``'s blocks may still be the COW source's: true
        for a shared function and for a :meth:`mutable_shell` skeleton,
        false for owned functions and absent names. Nothing may write
        into such a function's blocks or instructions in place."""
        copies = self._cow_copies
        return (
            copies is not None
            and not copies.get(name)
            and name in self.functions
        )

    def cow_shared_count(self) -> int:
        """Functions still shared with the COW source (0 on owned modules)."""
        copies = self._cow_copies
        return 0 if copies is None else len(self.functions) - len(copies)

    def bump_version(self) -> int:
        """Mark the module as transformed; invalidates compiled programs."""
        self.version += 1
        return self.version

    # -- functions -----------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        if self._cow_copies is not None:
            self._cow_copies[func.name] = True
        return func

    def remove_function(self, name: str) -> Function:
        """Drop ``name`` (dead-function elimination) and return it."""
        func = self.functions.pop(name)
        if self._cow_copies is not None:
            self._cow_copies.pop(name, None)
        return func

    def get(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name!r} in module") from None

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    # -- tables / entry points -------------------------------------------------

    def add_fptr_table(self, table: FunctionPointerTable) -> FunctionPointerTable:
        if table.name in self.fptr_tables:
            raise ValueError(f"duplicate fptr table {table.name!r}")
        self.fptr_tables[table.name] = table
        return table

    def register_syscall(self, syscall: str, handler: str) -> None:
        if handler not in self.functions:
            raise KeyError(f"syscall handler {handler!r} not in module")
        self.syscalls[syscall] = handler

    def syscall_handler(self, syscall: str) -> Function:
        return self.get(self.syscalls[syscall])

    # -- whole-module queries ----------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for func in self.functions.values():
            yield from func.instructions()

    def indirect_call_sites(self) -> Iterator[Instruction]:
        for inst in self.instructions():
            if inst.opcode == Opcode.ICALL:
                yield inst

    def return_sites(self) -> Iterator[Instruction]:
        for inst in self.instructions():
            if inst.opcode == Opcode.RET:
                yield inst

    def indirect_jump_sites(self) -> Iterator[Instruction]:
        for inst in self.instructions():
            if inst.opcode == Opcode.IJUMP:
                yield inst

    def address_taken(self) -> frozenset:
        """Functions whose address escapes into a pointer table — the
        static universe of feasible indirect-call targets (the analyzer's
        and the generator census's address-taken set)."""
        return frozenset(
            entry
            for table in self.fptr_tables.values()
            for entry in table.entries
        )

    def size(self) -> int:
        """Total static instruction count across all functions."""
        return sum(f.size() for f in self.functions.values())

    def size_bytes(self) -> int:
        """Estimated image text size in bytes."""
        from repro.ir.types import INSTRUCTION_SIZE_BYTES

        return self.size() * INSTRUCTION_SIZE_BYTES

    def find_call_site(self, site_id: int) -> Optional[Instruction]:
        """Linear scan for a call site by id (test/debug helper)."""
        for inst in self.instructions():
            if inst.site_id == site_id:
                return inst
        return None

    def __repr__(self) -> str:
        return (
            f"<Module {self.name} functions={len(self.functions)} "
            f"size={self.size()}>"
        )
