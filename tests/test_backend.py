"""Back-end tests: host ISA encode/decode, instruction selection,
register allocation, and the host CPU."""

import pytest

from repro.backend.hostcpu import HostCPU
from repro.backend.hostisa import (
    ALLOCATABLE,
    BIN,
    CALL,
    CSEL,
    HostEncodeError,
    ImmArg,
    LDG,
    LDM,
    LI,
    LIF,
    MOVR,
    RC,
    RELOAD,
    RET,
    Reg,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    SPILL,
    STG,
    STM,
    Slot,
    UN,
    decode_insns,
    encode_insns,
)
from repro.backend.isel import select
from repro.backend.regalloc import allocate
from repro.core.threadstate import ThreadState
from repro.ir import (
    IRSB,
    Binop,
    Get,
    HelperRegistry,
    JumpKind,
    Load,
    Put,
    RdTmp,
    Store,
    Ty,
    Unop,
    WrTmp,
    c32,
)
from repro.ir.helpers import HelperRegistry
from repro.kernel.memory import GuestMemory, PROT_RW


def _roundtrip(insns):
    return decode_insns(encode_insns(insns))


class TestHostEncoding:
    def test_roundtrip_every_class(self):
        h0 = Reg(RC.INT, 0)
        h1 = Reg(RC.INT, 1)
        f0 = Reg(RC.FLT, 0)
        v0 = Reg(RC.VEC, 0)
        insns = [
            LI(h0, 0x1122334455667788AABBCCDD),
            LIF(f0, 3.25),
            MOVR(h1, h0),
            BIN("Add32", h0, h0, h1),
            UN("Not32", h1, h0),
            LDG(Ty.I32, h0, 60),
            STG(Ty.F64, 64, f0),
            LDM(Ty.I8, h1, h0),
            STM(Ty.V128, h0, v0),
            CSEL(h0, h1, h0, h1),
            CALL("helper", (h0, Slot(3, Ty.I64), ImmArg(7, Ty.I32)),
                 dst=h1, retty=Ty.I32, dirty=True, guard=h0),
            SIDEEXIT(h0, 0x1234, "Boring"),
            SETPCI(0x4321),
            SETPCR(h0),
            SPILL(300, h0, Ty.I64),
            RELOAD(h1, 300, Ty.I64),
            RET("Sys_syscall"),
        ]
        assert _roundtrip(insns) == insns

    def test_virtual_register_rejected(self):
        with pytest.raises(HostEncodeError, match="virtual"):
            encode_insns([MOVR(Reg(RC.INT, 0, virtual=True), Reg(RC.INT, 1))])


def _compile_ir(sb):
    from repro.opt.treebuild import build_trees

    vcode = select(build_trees(sb))
    hcode, stats = allocate(vcode)
    return encode_insns(hcode), stats


def _run_code(code, helpers=None, state_init=None, mem=None):
    mem = mem or GuestMemory()
    ts = ThreadState()
    if state_init:
        for off, ty, v in state_init:
            ts.put(off, ty, v)
    cpu = HostCPU(mem, helpers or HelperRegistry(), env=object())
    jk, _icnt = cpu.compile_fn(code)(ts)
    return ts, jk, cpu


class TestEndToEnd:
    def _sb(self):
        sb = IRSB(guest_addr=0x100)
        sb.next = c32(0x104)
        return sb

    def test_simple_alu(self):
        sb = self._sb()
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Binop("Mul32", Get(0, Ty.I32), c32(7))))
        sb.add(Put(4, RdTmp(t)))
        code, _ = _compile_ir(sb)
        ts, jk, _ = _run_code(code, state_init=[(0, Ty.I32, 6)])
        assert ts.get(4, Ty.I32) == 42
        assert ts.pc == 0x104 and jk == "Boring"

    def test_memory_roundtrip(self):
        sb = self._sb()
        t = sb.new_tmp(Ty.I32)
        sb.add(Store(c32(0x2000), c32(0xBEEF)))
        sb.add(WrTmp(t, Load(Ty.I32, c32(0x2000))))
        sb.add(Put(0, RdTmp(t)))
        code, _ = _compile_ir(sb)
        mem = GuestMemory()
        mem.map(0x2000, 0x1000, PROT_RW)
        ts, _, _ = _run_code(code, mem=mem)
        assert ts.get(0, Ty.I32) == 0xBEEF

    def test_float_and_vector_paths(self):
        sb = self._sb()
        t = sb.new_tmp(Ty.F64)
        v = sb.new_tmp(Ty.V128)
        sb.add(WrTmp(t, Binop("AddF64", Get(64, Ty.F64), Get(72, Ty.F64))))
        sb.add(Put(64, RdTmp(t)))
        sb.add(WrTmp(v, Unop("Dup8x16", Unop("32to8", Get(0, Ty.I32)))))
        sb.add(Put(128, RdTmp(v)))
        code, _ = _compile_ir(sb)
        ts, _, _ = _run_code(
            code,
            state_init=[(64, Ty.F64, 1.5), (72, Ty.F64, 2.0), (0, Ty.I32, 0xAB)],
        )
        assert ts.get(64, Ty.F64) == 3.5
        assert ts.get(128, Ty.V128) == int.from_bytes(b"\xab" * 16, "little")

    def test_clean_and_dirty_calls(self):
        helpers = HelperRegistry()
        helpers.register_pure("double_it", lambda x: (2 * x) & 0xFFFFFFFF)
        seen = []
        helpers.register_dirty("observe", lambda env, x: seen.append(x) or 0)
        from repro.ir import CCall, Dirty

        sb = self._sb()
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, CCall(Ty.I32, "double_it", (c32(21),))))
        sb.add(Put(0, RdTmp(t)))
        sb.add(Dirty("observe", (RdTmp(t),)))
        code, _ = _compile_ir(sb)
        ts, _, _ = _run_code(code, helpers=helpers)
        assert ts.get(0, Ty.I32) == 42 and seen == [42]

    def test_guarded_dirty_call_skipped(self):
        helpers = HelperRegistry()
        seen = []
        helpers.register_dirty("observe", lambda env: seen.append(1) or 0)
        from repro.ir import Dirty, c1

        sb = self._sb()
        t = sb.new_tmp(Ty.I1)
        sb.add(WrTmp(t, Binop("CmpEQ32", Get(0, Ty.I32), c32(99))))
        sb.add(Dirty("observe", (), guard=RdTmp(t)))
        code, _ = _compile_ir(sb)
        _run_code(code, helpers=helpers, state_init=[(0, Ty.I32, 1)])
        assert seen == []
        _run_code(code, helpers=helpers, state_init=[(0, Ty.I32, 99)])
        assert seen == [1]

    def test_side_exit(self):
        from repro.ir import Exit

        sb = self._sb()
        t = sb.new_tmp(Ty.I1)
        sb.add(WrTmp(t, Binop("CmpEQ32", Get(0, Ty.I32), c32(5))))
        sb.add(Exit(RdTmp(t), 0x999, JumpKind.Boring))
        sb.add(Put(4, c32(1)))
        code, _ = _compile_ir(sb)
        ts, jk, _ = _run_code(code, state_init=[(0, Ty.I32, 5)])
        assert ts.pc == 0x999 and ts.get(4, Ty.I32) == 0  # exit skipped the put
        ts, jk, _ = _run_code(code, state_init=[(0, Ty.I32, 6)])
        assert ts.pc == 0x104 and ts.get(4, Ty.I32) == 1

    def test_indirect_next(self):
        sb = self._sb()
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.next = RdTmp(t)
        sb.jumpkind = JumpKind.Ret
        code, _ = _compile_ir(sb)
        ts, jk, _ = _run_code(code, state_init=[(0, Ty.I32, 0xCAFE)])
        assert ts.pc == 0xCAFE and jk == "Ret"


class TestRegalloc:
    def test_spilling_under_pressure(self):
        """More live values than registers: correctness must survive."""
        sb = IRSB(guest_addr=0)
        n = ALLOCATABLE[RC.INT] + 6
        tmps = []
        for i in range(n):
            t = sb.new_tmp(Ty.I32)
            sb.add(WrTmp(t, Binop("Add32", Get(0, Ty.I32), c32(i))))
            tmps.append(t)
        # All values are still live here: sum them pairwise.
        acc = tmps[0]
        for t in tmps[1:]:
            u = sb.new_tmp(Ty.I32)
            sb.add(WrTmp(u, Binop("Add32", RdTmp(acc), RdTmp(t))))
            acc = u
        sb.add(Put(4, RdTmp(acc)))
        sb.next = c32(4)
        from repro.opt.flatten import flatten

        vcode = select(sb)
        hcode, stats = allocate(vcode)
        assert stats.spilled_vregs > 0
        code = encode_insns(hcode)
        ts, _, _ = _run_code(code, state_init=[(0, Ty.I32, 100)])
        want = sum(100 + i for i in range(n)) & 0xFFFFFFFF
        assert ts.get(4, Ty.I32) == want

    def test_values_live_across_calls_are_spilled(self):
        helpers = HelperRegistry()
        helpers.register_dirty("clobberer", lambda env: 0)
        from repro.ir import Dirty

        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Binop("Add32", Get(0, Ty.I32), c32(1))))
        sb.add(Dirty("clobberer", ()))
        sb.add(Put(4, RdTmp(t)))  # t is live across the call
        sb.next = c32(4)
        vcode = select(sb)
        hcode, stats = allocate(vcode)
        assert stats.spilled_vregs >= 1
        code = encode_insns(hcode)
        ts, _, _ = _run_code(code, helpers=helpers, state_init=[(0, Ty.I32, 9)])
        assert ts.get(4, Ty.I32) == 10

    def test_move_coalescing_removes_moves(self):
        # The Figure 3 effect: reg-to-reg moves vanish when the allocator
        # gives source and destination the same register.
        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        u = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, Get(0, Ty.I32)))
        sb.add(WrTmp(u, RdTmp(t)))  # a move
        sb.add(Put(4, RdTmp(u)))
        sb.next = c32(4)
        vcode = select(sb)
        n_moves = sum(1 for i in vcode if isinstance(i, MOVR))
        assert n_moves >= 1
        hcode, stats = allocate(vcode)
        assert stats.moves_removed >= 1
        assert stats.moves_before >= stats.moves_removed

    def test_constant_rematerialisation(self):
        """Spilled constants are re-loaded as immediates, not from slots."""
        helpers = HelperRegistry()
        helpers.register_dirty("c", lambda env: 0)
        from repro.ir import Dirty

        sb = IRSB(guest_addr=0)
        t = sb.new_tmp(Ty.I32)
        sb.add(WrTmp(t, c32(0x1234)))
        sb.add(Dirty("c", ()))  # forces t (live across) to spill
        sb.add(Put(4, RdTmp(t)))
        sb.next = c32(4)
        hcode, stats = allocate(select(sb))
        assert stats.spilled_vregs >= 1
        assert not any(isinstance(i, RELOAD) for i in hcode)
        code = encode_insns(hcode)
        ts, _, _ = _run_code(code, helpers=helpers)
        assert ts.get(4, Ty.I32) == 0x1234
