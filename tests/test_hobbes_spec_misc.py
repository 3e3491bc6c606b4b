"""Tests for the Hobbes type checker, the condition-code spec helper
(property-based equivalence with the real helper), signal frames, and
option parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Options, parse_argv
from repro.core.options import BadOption
from repro.frontend.helpers import CALC_COND
from repro.frontend.spec import vx32_spec_helper
from repro.guest import regs as R
from repro.ir import Binop, ByteState, Const, Get, IRInterpreter, IRSB, Put, RdTmp, Ty, WrTmp, c32
from repro.kernel.memory import GuestMemory, PROT_RW
from repro.kernel.sigframe import pop_signal_frame, push_signal_frame

from helpers import vg


class TestHobbes:
    def run_hobbes(self, src):
        return vg(src, "hobbes")

    def test_ptr_plus_ptr_detected(self):
        res = self.run_hobbes("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r6, r0
        pushi 8
        call malloc
        addi sp, 4
        add  r0, r6          ; ptr + ptr
        st   [sink], r0      ; keep the result live (else DCE removes it)
        movi r0, 0
        ret
        .data
sink:   .word 0
""")
        assert [e.kind for e in res.errors] == ["PtrPlusPtr"]

    def test_ptr_arith_detected(self):
        res = self.run_hobbes("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        muli r0, 2           ; multiplying a pointer
        st   [sink], r0
        movi r0, 0
        ret
        .data
sink:   .word 0
""")
        assert "PtrArith" in [e.kind for e in res.errors]

    def test_int_deref_detected(self):
        res = self.run_hobbes("""
        .text
main:   ld   r1, [n]         ; (not a constant, so nothing folds away)
        mul  r1, r1          ; r1 proved to be an INT
        ld   r0, [r1]        ; dereferencing a proven integer
        st   [sink], r0
        movi r0, 0
        ret
        .data
n:      .word 2
sink:   .word 0
""")
        # The report fires before the (doomed) load executes.
        assert "IntDeref" in [e.kind for e in res.errors]

    def test_int_plus_unknown_is_not_flagged(self):
        # Table indexing: index arithmetic + an address constant must not
        # be reported (INT + UNKNOWN stays UNKNOWN).
        res = self.run_hobbes("""
        .text
main:   ld   r1, [n]
        mul  r1, r1          ; INT
        andi r1, 3
        ld   r0, [table+r1*4]
        st   [sink], r0
        movi r0, 0
        ret
        .data
n:      .word 2
table:  .word 1, 2, 3, 4
sink:   .word 0
""")
        assert res.errors == []

    def test_legitimate_pointer_use_is_clean(self):
        res = self.run_hobbes("""
        .text
main:   pushi 32
        call malloc
        addi sp, 4
        mov  r6, r0
        movi r1, 8
        add  r6, r1          ; ptr + int: a ptr
        sti  [r6], 7         ; deref: fine
        ld   r2, [r6]
        push r0
        call free
        addi sp, 4
        ; ptr - ptr is a legal ptrdiff...
        pushi 8
        call malloc
        addi sp, 4
        sub  r6, r0
        ; ...and the result is an int you may multiply.
        muli r6, 4
        st   [sink], r6
        movi r0, 0
        ret
        .data
sink:   .word 0
""")
        assert [e.kind for e in res.errors] == []

    def test_tags_flow_through_memory(self):
        res = self.run_hobbes("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        st   [cell], r0      ; store the pointer
        ld   r1, [cell]      ; load it back: still a PTR
        pushi 8
        call malloc
        addi sp, 4
        add  r1, r0          ; ptr + ptr via the memory round-trip
        st   [cell], r1
        movi r0, 0
        ret
        .data
cell:   .word 0
""")
        assert [e.kind for e in res.errors] == ["PtrPlusPtr"]

    def test_stack_pointer_is_typed(self):
        res = self.run_hobbes("""
        .text
main:   mov  r1, sp
        mov  r2, sp
        add  r1, r2          ; sp + sp
        st   [sink], r1
        movi r0, 0
        ret
        .data
sink:   .word 0
""")
        assert [e.kind for e in res.errors] == ["PtrPlusPtr"]


class TestSpecHelperEquivalence:
    """The partial evaluator must agree with the real flags helper."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([R.CC_OP_ADD, R.CC_OP_SUB, R.CC_OP_LOGIC, R.CC_OP_COPY]),
        st.integers(0, 13),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
    )
    def test_spec_matches_helper(self, cc_op, cond, dep1, dep2):
        from repro.ir.expr import CCall

        args = (c32(cond), c32(cc_op), c32(dep1), c32(dep2), c32(0))
        replacement = vx32_spec_helper(CALC_COND, args)
        want = R.evaluate_cond(
            cond, R.calculate_flags(cc_op, dep1, dep2, 0)
        )
        if replacement is None:
            return  # helper not specialised for this case: fine
        # Evaluate the inline replacement with the IR interpreter.
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, replacement))
        sb.add(Put(0, RdTmp(t)))
        sb.next = c32(4)
        stt = ByteState()
        IRInterpreter().run_block(sb, stt)
        assert stt.get(0, Ty.I32) == want, (cc_op, cond, dep1, dep2)

    def test_sub_conditions_are_specialised(self):
        """The common cmp+jcc patterns must all inline (no helper call)."""
        from repro.ir.expr import CCall

        for cond in (R.COND_Z, R.COND_NZ, R.COND_B, R.COND_NB, R.COND_BE,
                     R.COND_NBE, R.COND_L, R.COND_NL, R.COND_LE, R.COND_NLE):
            args = (c32(cond), c32(R.CC_OP_SUB),
                    Get(36, Ty.I32), Get(40, Ty.I32), c32(0))
            assert vx32_spec_helper(CALC_COND, args) is not None, cond

    def test_non_constant_op_not_specialised(self):
        args = (c32(R.COND_Z), Get(32, Ty.I32), c32(0), c32(0), c32(0))
        assert vx32_spec_helper(CALC_COND, args) is None


class _FakeCtx:
    def __init__(self):
        self.regs = [0x100 * i for i in range(8)]
        self.pc = 0xAAAA
        self.thunk = (2, 3, 4, 5)

    def get_reg(self, i):
        return self.regs[i]

    def set_reg_(self, i, v):
        self.regs[i] = v

    def get_pc(self):
        return self.pc

    def set_pc(self, v):
        self.pc = v

    def get_thunk(self):
        return self.thunk

    def set_thunk(self, *vals):
        self.thunk = vals


class TestSignalFrames:
    def test_push_pop_roundtrip(self):
        mem = GuestMemory()
        mem.map(0x1000, 0x2000, PROT_RW)
        ctx = _FakeCtx()
        ctx.regs[R.SP] = 0x2800
        saved_regs = list(ctx.regs)
        saved_pc = ctx.pc
        saved_thunk = ctx.thunk

        push_signal_frame(ctx, mem, sig=14, handler=0xBEEF, sigpage=0xF000)
        assert ctx.pc == 0xBEEF
        # Handler sees its argument at [sp+4] and the trampoline at [sp].
        assert mem.load32(ctx.regs[R.SP]) == 0xF000
        assert mem.load32(ctx.regs[R.SP] + 4) == 14

        # Simulate the handler returning: ret pops the trampoline address.
        ctx.regs[R.SP] += 4
        # Clobber everything, then sigreturn.
        ctx.regs[0] = 0xDEAD
        ctx.thunk = (0, 0, 0, 0)
        sig = pop_signal_frame(ctx, mem)
        assert sig == 14
        assert ctx.regs == saved_regs
        assert ctx.pc == saved_pc
        assert ctx.thunk == saved_thunk


class TestOptions:
    def test_parse_argv_splits_core_tool_client(self):
        tool, opts, rest = parse_argv(
            ["--tool=memcheck", "--smc-check=all", "--leak-check=full",
             "prog.s", "--not-an-option", "arg"]
        )
        assert tool == "memcheck"
        assert opts.smc_check == "all"
        assert opts.tool_options == ["--leak-check=full"]
        assert rest == ["prog.s", "--not-an-option", "arg"]

    def test_flag_options(self):
        o = Options()
        assert o.set("--chaining=yes") and o.chaining
        assert o.set("--perf=no") and not o.chaining  # --perf aliases it
        assert o.set("--unroll=no") and not o.unroll
        with pytest.raises(BadOption):
            o.set("--chaining=maybe")

    def test_validation(self):
        o = Options()
        with pytest.raises(BadOption):
            o.set("--smc-check=sometimes")
        with pytest.raises(BadOption):
            o.set("--dispatch-cache=1000")  # not a power of two
        with pytest.raises(BadOption):
            o.set("--transtab-policy=random")
        # Sizes that used to crash or hang the engine.
        for bad in ("--dispatch-cache=0", "--dispatch-quantum=0",
                    "--dispatch-quantum=-1", "--transtab-entries=0",
                    "--stack-size=0", "--stack-size=-5",
                    "--thread-timeslice=0", "--thread-timeslice=-3",
                    "--checkpoint-every=-1", "--record-flush=-1"):
            with pytest.raises(BadOption):
                o.set(bad)

    def test_numeric_options(self):
        o = Options()
        o.set("--max-stackframe=0x100000")
        assert o.max_stackframe == 0x100000
        o.set("--thread-timeslice=500")
        assert o.thread_timeslice == 500

    def test_unknown_is_reported_not_raised(self):
        assert Options().set("--frobnicate=1") is False
        # Deleted knobs: faults are always precise, the signal poll is
        # the dispatcher's SIGNAL_POLL_BLOCKS and the IR checks are fixed.
        for gone in ("--precise-faults=no", "--signal-poll=5",
                     "--sanity-level=2"):
            assert Options().set(gone) is False
