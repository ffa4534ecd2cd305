"""Tests for IR containers, builder, CFG analyses, liveness, verifier."""

import pytest

from repro.errors import IRError
from repro.ir import (
    FnBuilder,
    Module,
    dominators,
    loop_depths,
    natural_loops,
    predecessors,
    reverse_postorder,
    verify_function,
    verify_module,
)
from repro.isa import Imm, Instr, Opcode, RClass

from helpers import call_module, diamond_module, fp_module, sum_to_n_module
from liveness_oracle import liveness, max_live_pressure


class TestModule:
    def test_global_addresses_are_sequential(self):
        m = Module()
        a = m.add_global("a", 4)
        b = m.add_global("b", 2, [7, 8])
        assert b.addr == a.addr + 4
        image = m.initial_memory()
        assert image[b.addr] == 7 and image[b.addr + 1] == 8
        assert a.addr not in image  # uninitialized globals default to 0

    def test_duplicate_global_rejected(self):
        m = Module()
        m.add_global("a", 1)
        with pytest.raises(IRError):
            m.add_global("a", 1)

    def test_duplicate_function_rejected(self):
        m = sum_to_n_module()
        b = FnBuilder(m, "main")  # building is fine, registering is not
        b.halt()
        with pytest.raises(IRError):
            b.done()  # ...registering a duplicate is not

    def test_oversized_init_rejected(self):
        m = Module()
        with pytest.raises(IRError):
            m.add_global("g", 1, [1, 2])


class TestBuilder:
    def test_sum_module_verifies(self):
        verify_module(sum_to_n_module())

    def test_call_module_verifies(self):
        verify_module(call_module())

    def test_fp_module_verifies(self):
        verify_module(fp_module())

    def test_fallthrough_wiring(self):
        m = diamond_module()
        fn = m.function("main")
        entry = fn.entry
        assert entry.terminator.op is Opcode.BNEZ
        assert entry.fallthrough == "else_"
        assert entry.successors() == ["then", "else_"]

    def test_implicit_jump_between_blocks(self):
        m = Module()
        b = FnBuilder(m, "main")
        b.li(1)
        b.block("next")
        b.halt()
        fn = b.done()
        assert fn.entry.terminator.op is Opcode.JMP
        assert fn.entry.terminator.label == "next"

    def test_emit_after_terminator_rejected(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.halt()
        with pytest.raises(IRError):
            b.li(1)

    def test_dangling_fallthrough_rejected(self):
        m = Module()
        b = FnBuilder(m, "f")
        x = b.li(1)
        b.br("bnez", x, target="entry")
        with pytest.raises(IRError):
            b.done()

    def test_fp_operand_class_enforced(self):
        m = Module()
        b = FnBuilder(m, "f")
        x = b.li(1)
        with pytest.raises(IRError):
            b.fadd(x, x)

    def test_int_slot_accepts_literal(self):
        m = Module()
        b = FnBuilder(m, "f")
        v = b.add(1, 2)
        b.halt()
        b.done()
        instr = m.function("f").entry.instrs[0]
        assert instr.srcs == (Imm(1), Imm(2))
        assert instr.dest == v

    def test_duplicate_block_rejected(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.block("x")
        b.li(0)
        with pytest.raises(IRError):
            b.fn.new_block("x")

    def test_params_become_vregs(self):
        m = Module()
        b = FnBuilder(m, "f", params=[("i", "n"), ("f", "x")], ret="i")
        n, x = b.params
        assert n.cls is RClass.INT and x.cls is RClass.FP
        b.ret(n)
        fn = b.done()
        assert fn.ret_class is RClass.INT


class TestCFG:
    def test_rpo_starts_at_entry(self):
        fn = diamond_module().function("main")
        rpo = reverse_postorder(fn)
        assert rpo[0] == "entry"
        assert rpo[-1] == "join"
        assert set(rpo) == {b.name for b in fn.blocks}

    def test_predecessors(self):
        fn = diamond_module().function("main")
        preds = predecessors(fn)
        assert sorted(preds["join"]) == ["else_", "then"]
        assert preds["entry"] == []

    def test_dominators_diamond(self):
        fn = diamond_module().function("main")
        dom = dominators(fn)
        assert dom["join"] == {"entry", "join"}
        assert dom["then"] == {"entry", "then"}

    def test_natural_loop_detection(self):
        fn = sum_to_n_module().function("main")
        loops = natural_loops(fn)
        assert len(loops) == 1
        assert loops[0].header == "loop"
        assert loops[0].is_self_loop

    def test_loop_depths(self):
        fn = sum_to_n_module().function("main")
        depths = loop_depths(fn)
        assert depths["loop"] == 1
        assert depths["entry"] == 0

    def test_remove_unreachable_blocks(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.halt()
        dead = b.fn.new_block("dead")
        dead.instrs.append(Instr(Opcode.HALT))
        fn = b.done()
        assert fn.remove_unreachable_blocks() == 1
        assert not fn.has_block("dead")


class TestLiveness:
    def test_loop_carried_values_live_at_header(self):
        fn = sum_to_n_module().function("main")
        info = liveness(fn)
        loop_in = info.live_in["loop"]
        names = {v.name for v in loop_in}
        assert {"total", "i", "limit"} <= names

    def test_dead_after_last_use(self):
        fn = diamond_module().function("main")
        info = liveness(fn)
        assert info.live_out["join"] == set()

    def test_live_across_instr_positions(self):
        m = Module()
        b = FnBuilder(m, "f")
        a = b.li(1, name="a")
        c = b.li(2, name="c")
        d = b.add(a, c, name="d")
        b.store(d, 100, 0)
        b.halt()
        fn = b.done()
        info = liveness(fn)
        after = info.live_across_instr(fn.entry)
        assert a in after[0] and a in after[1]
        assert a not in after[2]  # dead once d is computed
        assert d in after[2] and d not in after[3]

    def test_pressure_diagnostic(self):
        fn = sum_to_n_module().function("main")
        peak = max_live_pressure(fn)
        assert peak["int"] >= 3
        assert peak["fp"] == 0


class TestVerifier:
    def test_missing_terminator_detected(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.li(1)
        fn = b.fn
        with pytest.raises(IRError):
            verify_function(fn)

    def test_branch_target_must_exist(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.jmp("nowhere")
        with pytest.raises(IRError):
            verify_function(b.fn)

    def test_call_arity_checked(self):
        m = call_module()
        main = m.function("main")
        call = next(i for _, i in main.iter_instrs() if i.op is Opcode.CALL)
        call.srcs = ()
        with pytest.raises(IRError):
            verify_module(m)

    def test_call_unknown_function(self):
        m = Module()
        b = FnBuilder(m, "main")
        b.call("ghost")
        b.halt()
        b.done()
        with pytest.raises(IRError):
            verify_module(m)

    def test_operand_class_mismatch_detected(self):
        m = fp_module()
        fn = m.function("main")
        fmul = next(i for _, i in fn.iter_instrs() if i.op is Opcode.FMUL)
        fmul.srcs = (fmul.srcs[0], Imm(2))
        with pytest.raises(IRError):
            verify_function(fn, m)

    def test_ret_class_checked(self):
        m = Module()
        b = FnBuilder(m, "f", ret="f")
        x = b.li(3)
        b.fn.blocks[0].instrs.append(Instr(Opcode.RET, srcs=(x,)))
        with pytest.raises(IRError):
            verify_function(b.fn)

    def test_duplicate_block_labels_rejected(self):
        # new_block() refuses duplicates, but direct list surgery (as some
        # passes do) can still produce them; the verifier must catch that.
        from repro.ir.function import BasicBlock

        m = Module()
        b = FnBuilder(m, "f")
        b.li(1)
        b.halt()
        dup = BasicBlock("entry")
        dup.instrs.append(Instr(Opcode.HALT))
        b.fn.blocks.append(dup)
        with pytest.raises(IRError, match="duplicate block label"):
            verify_function(b.fn)

    def test_call_label_required_without_module(self):
        m = call_module()
        main = m.function("main")
        call = next(i for _, i in main.iter_instrs() if i.op is Opcode.CALL)
        call.label = None
        with pytest.raises(IRError, match="callee label"):
            verify_function(main)  # structural check runs module-free

    def test_call_float_imm_arg_classified_fp(self):
        m = Module()
        g = FnBuilder(m, "g", params=[("f", "x")])
        g.ret()
        g.done()
        b = FnBuilder(m, "main")
        b.li(0)
        call = Instr(Opcode.CALL, srcs=(Imm(2.5),), label="g")
        b.fn.blocks[0].instrs.append(call)
        b.halt()
        b.done()
        verify_module(m)  # a float immediate satisfies the FP parameter
        call.srcs = (Imm(2),)
        with pytest.raises(IRError, match="argument class"):
            verify_module(m)


class TestContainersEdges:
    def test_block_body_excludes_terminator(self):
        fn = sum_to_n_module(3).function("main")
        loop = fn.block("loop")
        assert len(loop.body()) == len(loop.instrs) - 1
        assert loop.body()[-1].op is not loop.terminator.op or \
            loop.body()[-1] is not loop.terminator

    def test_successors_of_unterminated_block_raises(self):
        m = Module()
        b = FnBuilder(m, "f")
        b.li(1)
        with pytest.raises(IRError, match="terminator"):
            b.fn.entry.successors()

    def test_module_instruction_count(self):
        m = sum_to_n_module(3)
        assert m.instruction_count() == \
            m.function("main").instruction_count()

    def test_entry_of_empty_function_raises(self):
        from repro.ir import Function
        with pytest.raises(IRError):
            Function("empty").entry

    def test_unknown_block_lookup(self):
        fn = sum_to_n_module(3).function("main")
        with pytest.raises(IRError):
            fn.block("ghost")
        assert not fn.has_block("ghost")

    def test_global_addr_unknown(self):
        m = Module()
        with pytest.raises(IRError):
            m.global_addr("nope")

    def test_vregs_collects_params_and_temps(self):
        m = Module()
        b = FnBuilder(m, "f", params=[("i", "x")])
        t = b.add(b.params[0], 1)
        b.halt()
        fn = b.done()
        assert b.params[0] in fn.vregs()
        assert t in fn.vregs()
