"""Unit tests for the optimisation phases (flatten, opt1, opt2, treebuild)."""

import pytest

from repro.frontend.spec import vx32_spec_helper
from repro.guest import regs as R
from repro.ir import (
    IRSB,
    Binop,
    ByteState,
    CCall,
    Const,
    Dirty,
    Exit,
    Get,
    IMark,
    IRInterpreter,
    JumpKind,
    Load,
    Put,
    RdTmp,
    StateFx,
    Store,
    Ty,
    Unop,
    WrTmp,
    c1,
    c8,
    c32,
    check_flat,
    validate,
)
from repro.opt.flatten import flatten
from repro.opt.opt1 import (
    cse,
    dead_code,
    forward_pass,
    optimise1,
    redundant_put_elim,
    unroll_self_loop,
)
from repro.opt.opt2 import optimise2
from repro.opt.treebuild import build_trees
from repro.backend.hostisa import UN, decode_insns

from .helpers import asm_image, vg


def _figure1_block() -> IRSB:
    """The tree IR of the paper's Figure 1 (transliterated)."""
    sb = IRSB(guest_addr=0x24F275)
    sb.add(IMark(0x24F275, 7))
    t0 = sb.new_tmp(Ty.I32)
    sb.add(
        WrTmp(
            t0,
            Binop(
                "Add32",
                Binop(
                    "Add32", Get(12, Ty.I32), Binop("Shl32", Get(0, Ty.I32), c8(2))
                ),
                c32(0xFFFFC0CC),
            ),
        )
    )
    sb.add(Put(0, Load(Ty.I32, RdTmp(t0))))
    sb.next = c32(0x24F27C)
    return sb


class TestFlatten:
    def test_flatten_makes_flat_and_preserves_semantics(self):
        sb = _figure1_block()
        flat = flatten(sb)
        validate(flat, flat=True)
        st1, st2 = ByteState(), ByteState()
        for st in (st1, st2):
            st.put(12, Ty.I32, 100)
            st.put(0, Ty.I32, 4)
            st.store((100 + 16 + 0xFFFFC0CC) & 0xFFFFFFFF, Ty.I32, 77)
        interp = IRInterpreter()
        assert interp.run_block(sb, st1) == interp.run_block(flat, st2)
        assert st1.state == st2.state

    def test_flatten_splits_figure1_tree_into_five_assignments(self):
        # The paper: "the complex expression tree in statement 2 is
        # flattened into five assignments to temporaries".
        flat = flatten(_figure1_block())
        wrtmps = [s for s in flat.stmts if isinstance(s, WrTmp)]
        assert len(wrtmps) == 5 + 1  # five + the load's address use


class TestForwardPass:
    def test_constant_folding(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Binop("Add32", c32(2), c32(3))))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = dead_code(forward_pass(sb))
        puts = [s for s in out.stmts if isinstance(s, Put)]
        assert puts[0].data == c32(5)

    def test_get_forwarding_after_put(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Put(8, c32(42)))
        sb.add(WrTmp(t, Get(8, Ty.I32)))
        sb.add(Put(12, RdTmp(t)))
        sb.next = c32(4)
        out = dead_code(forward_pass(sb))
        assert [s for s in out.stmts if isinstance(s, Put)][1].data == c32(42)

    def test_get_not_forwarded_past_dirty_write(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Put(8, c32(42)))
        sb.add(Dirty("clobber", (), state_fx=(StateFx(True, 8, 4),)))
        sb.add(WrTmp(t, Get(8, Ty.I32)))
        sb.add(Put(12, RdTmp(t)))
        sb.next = c32(4)
        out = forward_pass(sb)
        put12 = [s for s in out.stmts if isinstance(s, Put) and s.offset == 12][0]
        assert put12.data != c32(42)

    def test_identities(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        u = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.add(WrTmp(u, Binop("Add32", RdTmp(t), c32(0))))
        sb.add(Put(4, RdTmp(u)))
        sb.next = c32(4)
        out = forward_pass(sb)
        put = [s for s in out.stmts if isinstance(s, Put)][0]
        assert put.data == RdTmp(t)  # x + 0 folded to x

    def test_exit_guard_const_false_removed(self):
        sb = IRSB(guest_addr=0)
        sb.add(Exit(c1(0), 0x100, JumpKind.Boring))
        sb.next = c32(4)
        out = forward_pass(sb)
        assert not any(isinstance(s, Exit) for s in out.stmts)

    def test_exit_guard_const_true_truncates_block(self):
        sb = IRSB(guest_addr=0)
        sb.add(Exit(c1(1), 0x100, JumpKind.Boring))
        sb.add(Put(0, c32(1)))  # unreachable
        sb.next = c32(4)
        out = forward_pass(sb)
        assert out.next == c32(0x100)
        assert not any(isinstance(s, Put) for s in out.stmts)

    def test_division_never_folded_to_trap(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Binop("DivU32", c32(1), c32(0))))
        sb.next = c32(4)
        out = forward_pass(sb)  # must not raise at optimisation time
        assert any(isinstance(s, WrTmp) for s in out.stmts)

    def test_spec_helper_inlines_condition(self):
        # cmp r0, r1; setl  ==>  a CmpLT32S, not a helper call.
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Put(R.OFFSET_CC_OP, c32(R.CC_OP_SUB)))
        sb.add(Put(R.OFFSET_CC_DEP1, c32(1)))
        sb.add(Put(R.OFFSET_CC_DEP2, c32(2)))
        sb.add(Put(R.OFFSET_CC_NDEP, c32(0)))
        from repro.frontend.helpers import CALC_COND, THUNK_READS

        sb.add(
            WrTmp(
                t,
                CCall(
                    Ty.I32,
                    CALC_COND,
                    (
                        c32(R.COND_L),
                        Get(R.OFFSET_CC_OP, Ty.I32),
                        Get(R.OFFSET_CC_DEP1, Ty.I32),
                        Get(R.OFFSET_CC_DEP2, Ty.I32),
                        Get(R.OFFSET_CC_NDEP, Ty.I32),
                    ),
                    regparms_read=THUNK_READS,
                ),
            )
        )
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = forward_pass(flatten(sb), vx32_spec_helper)
        assert not any(
            isinstance(s, WrTmp) and isinstance(s.data, CCall) for s in out.stmts
        )
        # 1 < 2 signed: the result even constant-folds to 1.
        put0 = [s for s in out.stmts if isinstance(s, Put) and s.offset == 0][0]
        assert put0.data == c32(1)


class TestWidenedConditionFold:
    def test_cmpnez_of_widened_condition_is_the_condition(self):
        sb = IRSB(guest_addr=0)
        x, c, w, g = (sb.new_tmp(ty) for ty in (Ty.I32, Ty.I1, Ty.I32, Ty.I1))
        sb.add(WrTmp(x, Get(0, Ty.I32)))
        sb.add(WrTmp(c, Binop("CmpNE32", RdTmp(x), c32(1))))
        sb.add(WrTmp(w, Unop("1Uto32", RdTmp(c))))
        sb.add(WrTmp(g, Unop("CmpNEZ32", RdTmp(w))))
        sb.add(Exit(RdTmp(g), 0x100, JumpKind.Boring))
        sb.next = c32(4)
        out = dead_code(forward_pass(sb))
        validate(out, flat=True)
        exit_ = next(s for s in out.stmts if isinstance(s, Exit))
        assert exit_.guard == RdTmp(c)
        assert not any(isinstance(s, WrTmp) and isinstance(s.data, Unop)
                       for s in out.stmts)

    @pytest.mark.parametrize("tool", ["none", "memcheck"])
    def test_loop_exit_tests_its_condition_once(self, tool):
        """The spec helper widens a ``dec``/``jnz`` condition to I32 and
        the branch tests it against zero again: no block's host code
        keeps that ``1Uto32`` -> ``CmpNEZ32`` pair."""
        img = asm_image("""
main:   movi r6, 0
        movi r7, 50
loop:   add  r6, r7
        dec  r7
        jnz  loop
        movi r0, 7
        push r0
        call exit
""")
        res = vg(img, tool, codegen="pygen")
        assert res.exit_code == 7
        loop = img.symbols["loop"]
        blocks = res.core.scheduler.transtab.all_translations()
        assert any(t.guest_addr == loop and t.code for t in blocks)
        for t in blocks:
            if t.front is not None:
                continue  # ran once: interpreted, never given host code
            widened = set()
            for insn in decode_insns(t.code):
                if isinstance(insn, UN) and insn.op == "CmpNEZ32":
                    assert insn.src not in widened, hex(t.guest_addr)
                widened -= set(insn.regs_written())
                if isinstance(insn, UN) and insn.op == "1Uto32":
                    widened.add(insn.dst)


class TestPutElimination:
    def test_redundant_put_removed(self):
        sb = IRSB(guest_addr=0)
        sb.add(Put(60, c32(1)))
        sb.add(Put(60, c32(2)))
        sb.next = c32(4)
        out = redundant_put_elim(sb)
        puts = [s for s in out.stmts if isinstance(s, Put)]
        assert len(puts) == 1 and puts[0].data == c32(2)

    def test_put_kept_across_memory_op(self):
        # The Figure-1 rule: a PUT of the PC cannot be removed when a
        # potentially-faulting memory operation intervenes.
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Put(60, c32(1)))
        sb.add(WrTmp(t, Load(Ty.I32, c32(0x100))))
        sb.add(Put(60, c32(2)))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = redundant_put_elim(sb)
        assert len([s for s in out.stmts if isinstance(s, Put) and s.offset == 60]) == 2

    def test_put_kept_when_read_between(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Put(8, c32(1)))
        sb.add(WrTmp(t, Get(8, Ty.I32)))
        sb.add(Put(8, c32(2)))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = redundant_put_elim(sb)
        assert len([s for s in out.stmts if isinstance(s, Put) and s.offset == 8]) == 2

    def test_overlapping_put_sizes(self):
        sb = IRSB(guest_addr=0)
        sb.add(Put(8, c32(0x11223344)))
        sb.add(Put(8, Const(Ty.I8, 0x55)))  # only covers one byte
        sb.next = c32(4)
        out = redundant_put_elim(sb)
        assert len([s for s in out.stmts if isinstance(s, Put)]) == 2


class TestCSEAndDCE:
    def test_cse_merges_identical_binops(self):
        sb = IRSB(guest_addr=0)
        a = sb.new_tmp(Ty.I32)
        t1 = sb.new_tmp(Ty.I32)
        t2 = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(a, Get(0, Ty.I32)))
        sb.add(WrTmp(t1, Binop("Add32", RdTmp(a), c32(1))))
        sb.add(WrTmp(t2, Binop("Add32", RdTmp(a), c32(1))))
        sb.add(Put(4, RdTmp(t1)))
        sb.add(Put(8, RdTmp(t2)))
        sb.next = c32(4)
        out = cse(sb)
        t2_def = [s for s in out.stmts if isinstance(s, WrTmp) and s.tmp == t2][0]
        assert t2_def.data == RdTmp(t1)

    def test_dce_removes_unused(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        u = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.add(WrTmp(u, Get(4, Ty.I32)))  # dead
        sb.add(Put(8, RdTmp(t)))
        sb.next = c32(4)
        out = dead_code(sb)
        assert not any(isinstance(s, WrTmp) and s.tmp == u for s in out.stmts)

    def test_dce_keeps_dirty_calls(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(Dirty("sideeffect", (), tmp=t, retty=Ty.I32))  # result unused
        sb.next = c32(4)
        out = dead_code(sb)
        assert any(isinstance(s, Dirty) for s in out.stmts)


class TestUnrolling:
    def test_self_loop_unrolls(self):
        sb = IRSB(guest_addr=0x100)
        t = sb.new_tmp(Ty.I32)
        sb.add(IMark(0x100, 3))
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(0x100)
        out = unroll_self_loop(sb)
        assert sum(1 for s in out.stmts if isinstance(s, IMark)) == 2
        validate(out)

    def test_non_self_loop_untouched(self):
        sb = IRSB(guest_addr=0x100)
        sb.add(IMark(0x100, 3))
        sb.next = c32(0x200)
        assert unroll_self_loop(sb) is sb


class TestTreebuild:
    def test_single_use_substituted(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        u = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.add(WrTmp(u, Binop("Add32", RdTmp(t), c32(1))))
        sb.add(Put(4, RdTmp(u)))
        sb.next = c32(4)
        out = build_trees(sb)
        put = [s for s in out.stmts if isinstance(s, Put)][0]
        assert isinstance(put.data, Binop)  # tree grew back

    def test_multi_use_not_duplicated(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Binop("Add32", c32(1), c32(2))))
        sb.add(Put(4, RdTmp(t)))
        sb.add(Put(8, RdTmp(t)))
        sb.next = c32(4)
        out = build_trees(sb)
        assert any(isinstance(s, WrTmp) and s.tmp == t for s in out.stmts)

    def test_load_not_moved_past_store(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Load(Ty.I32, c32(0x100))))
        sb.add(Store(c32(0x100), c32(9)))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = build_trees(sb)
        # The load must be materialised before the store.
        kinds = [type(s).__name__ for s in out.stmts]
        assert kinds.index("WrTmp") < kinds.index("Store")

    def test_get_not_moved_past_put(self):
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(8, Ty.I32)))
        sb.add(Put(8, c32(9)))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        out = build_trees(sb)
        st1, st2 = ByteState(), ByteState()
        st1.put(8, Ty.I32, 1)
        st2.put(8, Ty.I32, 1)
        interp = IRInterpreter()
        interp.run_block(sb, st1)
        interp.run_block(out, st2)
        assert st1.state == st2.state


class TestFullPipelinePhases:
    def test_optimise1_output_is_flat_and_valid(self):
        out = optimise1(_figure1_block(), spec_helper=vx32_spec_helper)
        validate(out, flat=True)

    def test_optimise2_shrinks_naive_instrumentation(self):
        # Simulate a simple-minded tool that added foldable shadow code:
        # opt2 must clean it up (the paper's 48 -> 18 effect).
        sb = flatten(_figure1_block())
        n_before = sb.num_real_stmts()
        extra = sb.copy()
        junk_tmps = []
        for _ in range(10):
            t = extra.new_tmp(Ty.I32)
            extra.stmts.insert(1, WrTmp(t, Binop("Or32", c32(0), c32(0))))
            junk_tmps.append(t)
        out = optimise2(extra)
        assert out.num_real_stmts() <= n_before
