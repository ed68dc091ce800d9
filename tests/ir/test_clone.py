"""Inline splicing mechanics (the transformation of Listing 1)."""

import pytest

from repro.engine.interpreter import Interpreter
from repro.engine.trace import TraceRecorder
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.clone import clone_function, clone_module, inline_call
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import IMMUTABLE_OPCODES, FunctionAttr, Opcode
from repro.ir.validate import validate_module
from repro.passes.lto import DeadFunctionElimination


def _simple_module():
    module = Module("m")
    callee = Function("callee", stack_frame_size=40)
    b = IRBuilder(callee)
    b.arith(3)
    b.ret()
    module.add_function(callee)

    caller = Function("caller", stack_frame_size=64)
    b = IRBuilder(caller)
    b.arith(1)
    call = b.call("callee", num_args=1)
    b.arith(2)
    b.ret()
    module.add_function(caller)
    return module, call


def test_inline_removes_call_and_ret_from_dynamic_path():
    module, call = _simple_module()
    caller = module.get("caller")
    inline_call(caller, "entry", 1, module.get("callee"))
    validate_module(module)

    recorder = TraceRecorder()
    Interpreter(module, [recorder]).run_function("caller")
    # no call events, exactly one ret (the caller's own)
    assert recorder.of_kind("call") == []
    assert len(recorder.of_kind("ret")) == 1
    # the callee's work still executes: 1 + 3 + 2 = 6 arith
    total_arith = sum(e[1] for e in recorder.of_kind("mix"))
    assert total_arith == 6


def test_inline_wrong_instruction_rejected():
    module, _ = _simple_module()
    caller = module.get("caller")
    with pytest.raises(ValueError, match="not a direct call"):
        inline_call(caller, "entry", 0, module.get("callee"))


def test_inline_empty_callee_rejected():
    caller = Function("caller")
    b = IRBuilder(caller)
    b.call("hollow")
    b.ret()
    with pytest.raises(ValueError, match="empty function"):
        inline_call(caller, "entry", 0, Function("hollow"))


def test_inline_reports_new_call_sites():
    module = Module("m")
    module.add_function(build_leaf("leaf"))
    mid = Function("mid")
    b = IRBuilder(mid)
    inner = b.call("leaf", num_args=1)
    b.ret()
    module.add_function(mid)
    top = Function("top")
    b = IRBuilder(top)
    outer = b.call("mid")
    b.ret()
    module.add_function(top)

    result = inline_call(module.get("top"), "entry", 0, mid)
    assert inner.site_id in result.new_call_sites
    clones = result.new_call_sites[inner.site_id]
    assert len(clones) == 1
    assert clones[0].callee == "leaf"
    assert clones[0].site_id != inner.site_id
    validate_module(module)


def test_inline_merges_stack_frames_with_coloring():
    module, call = _simple_module()
    caller = module.get("caller")
    before = caller.stack_frame_size
    inline_call(caller, "entry", 1, module.get("callee"))
    # coloring reuses most of the absorbed frame, but growth is monotone
    assert caller.stack_frame_size > before
    assert caller.stack_frame_size <= before + module.get("callee").stack_frame_size


def test_inline_callee_left_untouched():
    module, call = _simple_module()
    callee = module.get("callee")
    size_before = callee.size()
    inline_call(module.get("caller"), "entry", 1, callee)
    assert callee.size() == size_before
    assert callee.returns()


def test_inline_multi_block_callee_with_branches():
    module = Module("m")
    callee = Function("branchy")
    b = IRBuilder(callee)
    then = b.new_block("then")
    other = b.new_block("other")
    b.br(then.label, other.label, p_taken=1.0)
    b.at(then).arith(1)
    b.at(then).ret()
    b.at(other).arith(2)
    b.at(other).ret()
    module.add_function(callee)

    caller = Function("caller")
    b = IRBuilder(caller)
    b.call("branchy")
    b.arith(1)
    b.ret()
    module.add_function(caller)

    result = inline_call(caller, "entry", 0, callee)
    validate_module(module)
    # both cloned rets became jumps to the continuation
    cont = caller.blocks[result.continuation_label]
    assert cont.terminator.opcode == Opcode.RET
    jmps_to_cont = [
        blk
        for blk in caller.blocks.values()
        for inst in blk.instructions
        if inst.opcode == Opcode.JMP and inst.targets == (result.continuation_label,)
    ]
    assert len(jmps_to_cont) == 2


def test_clone_function_is_independent():
    module, _ = _simple_module()
    original = module.get("caller")
    clone = clone_function(original, "caller_copy")
    assert clone.name == "caller_copy"
    assert clone.size() == original.size()
    clone.entry.instructions[0] = clone.entry.instructions[0]
    clone.blocks[clone.entry_label].instructions.pop(0)
    assert clone.size() == original.size() - 1


def test_clone_module_preserves_sites_and_behavior():
    module, _ = _simple_module()
    clone = clone_module(module)
    validate_module(clone)
    # same site ids (profiles lifted onto the clone stay valid)
    for func in module:
        for label, block in func.blocks.items():
            cloned_block = clone.get(func.name).blocks[label]
            for inst, cloned in zip(
                block.instructions, cloned_block.instructions
            ):
                assert cloned.site_id == inst.site_id
    # identical execution per seed
    streams = []
    for m in (module, clone):
        rec = TraceRecorder()
        Interpreter(m, [rec], seed=4).run_function("caller", times=20)
        streams.append(rec.events)
    assert streams[0] == streams[1]


def test_clone_module_is_independent():
    module, _ = _simple_module()
    clone = clone_module(module)
    cloned_first = clone.get("caller").entry.instructions[0]
    cloned_first.attrs["targets"] = {"poisoned": 1}
    original_first = module.get("caller").entry.instructions[0]
    assert original_first.attrs.get("targets") != {"poisoned": 1}
    clone.get("caller").entry.instructions.pop(0)
    assert module.get("caller").size() == clone.get("caller").size() + 1


# -- copy-on-write cloning (the staged build engine's stamp substrate) --------


def test_cow_clone_shares_functions():
    module, _ = _simple_module()
    clone = clone_module(module, cow=True)
    assert clone.cow_shared_count() == 2
    for func in module:
        assert clone.get(func.name) is func
        assert clone.is_cow_shared(func.name)
    # an eager clone shares nothing
    assert clone_module(module).cow_shared_count() == 0


def test_cow_mutable_materializes_private_copy():
    module, _ = _simple_module()
    clone = clone_module(module, cow=True)
    func = clone.mutable("caller")
    assert func is not module.get("caller")
    assert not clone.is_cow_shared("caller")
    assert clone.is_cow_shared("callee")
    # second call is a no-op returning the already-private copy
    assert clone.mutable("caller") is func
    # mutations stay private
    func.entry.instructions.pop(0)
    assert module.get("caller").size() == func.size() + 1


def test_cow_mutable_shell_shares_blocks():
    module, _ = _simple_module()
    clone = clone_module(module, cow=True)
    original = module.get("caller")
    shell = clone.mutable_shell("caller")
    assert shell is not original
    assert not clone.is_cow_shared("caller")
    # the shell owns its blocks *dict* but shares the block objects, so a
    # stamp pays only for the blocks it actually rewrites
    assert shell.blocks is not original.blocks
    for label, block in original.blocks.items():
        assert shell.blocks[label] is block
    # swapping in a private block leaves the original untouched
    from repro.ir.basicblock import BasicBlock
    from repro.ir.clone import clone_instruction_exact

    entry = shell.blocks[shell.entry_label]
    insts = list(entry.instructions)
    insts[0] = clone_instruction_exact(insts[0])
    insts[0].attrs["defense"] = "poisoned"
    shell.blocks[shell.entry_label] = BasicBlock(shell.entry_label, insts)
    assert original.entry.instructions[0].attrs.get("defense") != "poisoned"


def test_clone_instruction_exact_preserves_identity_fields():
    module, call = _simple_module()
    from repro.ir.clone import clone_instruction_exact

    call.attrs["targets"] = {"a": 1}
    copy_inst = clone_instruction_exact(call)
    assert copy_inst is not call
    assert copy_inst.site_id == call.site_id
    assert copy_inst.opcode == call.opcode
    assert copy_inst.attrs == call.attrs
    # attrs dict is one-level private: tagging the copy spares the original
    copy_inst.attrs["defense"] = "retpoline"
    assert "defense" not in call.attrs


def test_inline_shares_immutable_instructions():
    """The splice adds the callee's arith/cmp/load/store/fence objects to
    the caller by reference; calls, terminators and returns are never
    shared."""
    module = Module("m")
    module.add_function(build_leaf("leaf"))
    callee = Function("callee")
    b = IRBuilder(callee)
    then = b.new_block("then")
    other = b.new_block("other")
    b.arith(2)
    b.load()
    b.store()
    b.fence()
    b.call("leaf", num_args=1)
    b.icall({"leaf": 1})
    b.cmp()
    b.br(then.label, other.label, p_taken=0.5)
    b.at(then).arith(1)
    b.at(then).jmp(other.label)
    b.at(other).ret()
    module.add_function(callee)
    caller = Function("caller")
    b = IRBuilder(caller)
    b.call("callee")
    b.ret()
    module.add_function(caller)

    inline_call(caller, "entry", 0, callee)
    validate_module(module)
    spliced = {id(inst) for inst in caller.instructions()}
    shared = [
        inst for inst in callee.instructions() if id(inst) in spliced
    ]
    immutable_opcodes = {
        Opcode.ARITH,
        Opcode.CMP,
        Opcode.LOAD,
        Opcode.STORE,
        Opcode.FENCE,
    }
    immutable = [
        inst
        for inst in callee.instructions()
        if inst.opcode in immutable_opcodes
    ]
    assert {i.opcode for i in immutable} == immutable_opcodes
    assert shared == immutable


# -- what a copy-on-write copy shares ------------------------------------------


def _mixed_module():
    """``mixed`` holds every immutable opcode, a call, an icall, a
    branch, a jump and a return; ``sys_mixed`` reaches it."""
    module = Module("m")
    module.add_function(build_leaf("leaf"))
    func = Function("mixed", attrs={FunctionAttr.SYSCALL_ENTRY})
    b = IRBuilder(func)
    then = b.new_block("then")
    other = b.new_block("other")
    b.arith(2)
    b.load()
    b.store()
    b.fence()
    b.call("leaf", num_args=1)
    b.icall({"leaf": 1})
    b.cmp()
    b.br(then.label, other.label, p_taken=0.5)
    b.at(then).arith(1)
    b.at(then).jmp(other.label)
    b.at(other).ret()
    module.add_function(func)
    module.register_syscall("sys_mixed", "mixed")
    return module


def test_cow_mutable_copies_only_calls_and_terminators():
    module = _mixed_module()
    source = module.get("mixed")
    clone = clone_module(module, cow=True)
    func = clone.mutable("mixed")
    assert list(func.blocks) == list(source.blocks)
    opcodes = set()
    for label, block in source.blocks.items():
        copied = func.blocks[label]
        assert copied is not block
        assert copied.instructions is not block.instructions
        assert len(copied.instructions) == len(block.instructions)
        for inst, new in zip(block.instructions, copied.instructions):
            opcodes.add(inst.opcode)
            if inst.opcode in IMMUTABLE_OPCODES:
                assert new is inst
            else:
                assert new is not inst
                assert new.attrs is not inst.attrs
                assert (new.opcode, new.site_id, new.targets, new.attrs) == (
                    inst.opcode,
                    inst.site_id,
                    inst.targets,
                    inst.attrs,
                )
    assert IMMUTABLE_OPCODES <= opcodes
    # no call or terminator object is shared, anywhere in the function
    written = {
        id(inst)
        for inst in source.instructions()
        if inst.opcode not in IMMUTABLE_OPCODES
    }
    assert not any(id(inst) in written for inst in func.instructions())


def test_cow_copies_share_function_attrs():
    module = _mixed_module()
    clone = clone_module(module, cow=True)
    assert clone.mutable("mixed").attrs is module.get("mixed").attrs
    assert clone.mutable_shell("leaf").attrs is module.get("leaf").attrs
    eager = clone_module(module).get("mixed")
    assert eager.attrs is not module.get("mixed").attrs
    assert eager.attrs == {FunctionAttr.SYSCALL_ENTRY}


def test_cow_mutable_after_shell_copies_its_blocks():
    """A stamp's skeleton still shares its blocks with the source, so
    materializing it must copy them before any pass writes."""
    module = _mixed_module()
    source = module.get("mixed")
    clone = clone_module(module, cow=True)
    clone.mutable_shell("mixed")
    func = clone.mutable("mixed")
    for label, block in source.blocks.items():
        assert func.blocks[label] is not block
    size = source.size()
    func.entry.instructions.pop(0)
    assert source.size() == size
    assert clone.mutable("mixed") is func


def _shared_count_matches(module):
    shared = [name for name in module.functions if module.is_cow_shared(name)]
    assert module.cow_shared_count() == len(shared)
    return shared


def test_cow_bookkeeping_records_owned_functions_and_shells():
    module = _mixed_module()
    for name in ("spare", "dead", "dead_owned", "dead_shell"):
        module.add_function(build_leaf(name))
    module.register_syscall("sys_spare", "spare")
    clone = clone_module(module, cow=True)
    assert _shared_count_matches(clone) == list(module.functions)

    clone.mutable("mixed")
    clone.mutable("dead_owned")
    clone.mutable_shell("leaf")
    clone.mutable_shell("dead_shell")
    added = clone.add_function(build_leaf("added"))
    states = {
        name: (clone.is_cow_shared(name), clone.shares_blocks(name))
        for name in clone.functions
    }
    assert states == {
        "leaf": (False, True),
        "mixed": (False, False),
        "spare": (True, True),
        "dead": (True, True),
        "dead_owned": (False, False),
        "dead_shell": (False, True),
        "added": (False, False),
    }
    assert _shared_count_matches(clone) == ["spare", "dead"]
    # an added function is owned: mutable hands back the same object
    assert clone.mutable("added") is added

    report = DeadFunctionElimination().run(clone)
    assert report.removed_functions == 4
    assert sorted(clone.functions) == ["leaf", "mixed", "spare"]
    for name in ("dead", "dead_owned", "dead_shell", "added"):
        assert not clone.is_cow_shared(name)
        assert not clone.shares_blocks(name)
    assert _shared_count_matches(clone) == ["spare"]
    # a removed name comes back owned
    clone.add_function(build_leaf("dead_shell"))
    assert not clone.shares_blocks("dead_shell")
    assert _shared_count_matches(clone) == ["spare"]

    # modules that own every function share nothing
    for owned in (module, clone_module(module)):
        assert owned.cow_shared_count() == 0
        assert not any(owned.shares_blocks(name) for name in owned.functions)


def _call_positions(func):
    return {
        inst.site_id: (label, idx)
        for label, block in func.blocks.items()
        for idx, inst in enumerate(block.instructions)
        if inst.site_id is not None
    }


def test_inline_reports_moved_call_sites():
    """``moved_sites`` places every call the splice added or moved; every
    other call keeps its position, so an index repaired from it alone
    equals a full rescan."""
    module = _mixed_module()
    caller = Function("caller")
    b = IRBuilder(caller)
    b.call("leaf")
    b.arith(1)
    call = b.call("mixed")
    b.arith(1)
    tail = [b.call("leaf"), b.icall({"leaf": 1})]
    b.ret()
    module.add_function(caller)

    before = _call_positions(caller)
    result = inline_call(caller, "entry", 2, module.get("mixed"))
    validate_module(module)
    clones = {
        clone.site_id
        for copies in result.new_call_sites.values()
        for clone in copies
    }
    assert len(clones) == 2
    assert set(result.moved_sites) == clones | {i.site_id for i in tail}
    del before[call.site_id]
    before.update(result.moved_sites)
    assert before == _call_positions(caller)
