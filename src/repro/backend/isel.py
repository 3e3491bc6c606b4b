"""Phase 6: instruction selection — tree IR → host instructions.

A simple, greedy, top-down tree-matching selector (Section 3.7).  Output
uses virtual registers; the linear-scan allocator assigns real ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.block import IRSB
from ..ir.expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop
from ..ir.stmt import Dirty, Exit, IMark, NoOp, Put, Store, WrTmp
from ..ir.types import Ty
from .hostisa import (
    BIN,
    CALL,
    CSEL,
    HInsn,
    LDG,
    LDM,
    LI,
    LIF,
    MOVR,
    RC,
    RET,
    Reg,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    STG,
    STM,
    UN,
    rc_of_ty,
)


#: Wellknown Memcheck dirty helpers (a contract with
#: tools/memcheck/instrument.py, cross-checked by
#: tests/test_shadow_properties.py).  A ``Dirty`` statement naming one
#: of these lowers to an ordinary CALL, but both execution back-ends —
#: the per-insn closure engine (backend.hostcpu) and the pygen emitter
#: (backend.pygen) — recognise the names and inline the paper's
#: Section-4 V-bit fast path for within-page 1/2/4-byte accesses,
#: calling the helper only on page miss, page cross, or an
#: unaddressable byte (the error-reporting path).
MC_LOADV_SIZES = {
    "helperc_LOADV8le": 1,
    "helperc_LOADV16le": 2,
    "helperc_LOADV32le": 4,
}
MC_STOREV_SIZES = {
    "helperc_STOREV8le": 1,
    "helperc_STOREV16le": 2,
    "helperc_STOREV32le": 4,
}

#: Memcheck dirty helpers that only read guest state (SP/PC for error
#: reports) and never write it; back-ends may keep guest-state
#: forwarding live across a call to one of these.
MC_NO_STATE_WRITE = frozenset(MC_LOADV_SIZES) | frozenset(MC_STOREV_SIZES) | {
    "helperc_LOADV64le", "helperc_LOADV128le",
    "helperc_STOREV64le", "helperc_STOREV128le",
    "helperc_value_check0_fail", "helperc_value_check1_fail",
    "helperc_value_check2_fail", "helperc_value_check4_fail",
    "helperc_value_check8_fail",
}


class ISelError(Exception):
    pass


class ISel:
    """One-shot instruction selector for a single superblock."""

    def __init__(self, sb: IRSB):
        self.sb = sb
        self.insns: List[HInsn] = []
        self._next_vr = 0
        self._tmp_vreg: Dict[int, Reg] = {}
        #: Constant re-use: one LI per distinct constant per block.
        self._const_vreg: Dict[tuple, Reg] = {}
        #: IMarks seen so far: exits carry this so the dispatcher can keep
        #: exact guest instruction counts on side exits.
        self._imarks_seen = 0

    # -- register management ---------------------------------------------------

    def new_vreg(self, rc: RC) -> Reg:
        r = Reg(rc, self._next_vr, virtual=True)
        self._next_vr += 1
        return r

    def vreg_for_tmp(self, tmp: int) -> Reg:
        r = self._tmp_vreg.get(tmp)
        if r is None:
            r = self.new_vreg(rc_of_ty(self.sb.type_of_tmp(tmp)))
            self._tmp_vreg[tmp] = r
        return r

    # -- expression selection -----------------------------------------------------

    def expr(self, e: Expr) -> Reg:
        """Select *e* into a (possibly new) register."""
        if isinstance(e, RdTmp):
            return self.vreg_for_tmp(e.tmp)
        ty = self.sb.type_of(e)
        if isinstance(e, Const):
            key = (ty, e.value if not ty.is_float else repr(e.value))
            cached = self._const_vreg.get(key)
            if cached is not None:
                return cached
            dst = self.new_vreg(rc_of_ty(ty))
            self.expr_into(e, dst, ty)
            self._const_vreg[key] = dst
            return dst
        dst = self.new_vreg(rc_of_ty(ty))
        self.expr_into(e, dst, ty)
        return dst

    def expr_into(self, e: Expr, dst: Reg, ty: Ty) -> None:
        """Select *e*, leaving the value in *dst*."""
        if isinstance(e, Const):
            if ty.is_float:
                self.insns.append(LIF(dst, float(e.value)))
            else:
                self.insns.append(LI(dst, int(e.value)))
        elif isinstance(e, RdTmp):
            self.insns.append(MOVR(dst, self.vreg_for_tmp(e.tmp)))
        elif isinstance(e, Get):
            self.insns.append(LDG(e.ty, dst, e.offset))
        elif isinstance(e, Load):
            addr = self.expr(e.addr)
            self.insns.append(LDM(e.ty, dst, addr))
        elif isinstance(e, Unop):
            src = self.expr(e.arg)
            self.insns.append(UN(e.op, dst, src))
        elif isinstance(e, Binop):
            s1 = self.expr(e.arg1)
            s2 = self.expr(e.arg2)
            self.insns.append(BIN(e.op, dst, s1, s2))
        elif isinstance(e, ITE):
            cond = self.expr(e.cond)
            a = self.expr(e.iftrue)
            b = self.expr(e.iffalse)
            self.insns.append(CSEL(dst, cond, a, b))
        elif isinstance(e, CCall):
            args = tuple(self.expr(a) for a in e.args)
            self.insns.append(CALL(e.callee, args, dst=dst, retty=e.ty, dirty=False))
        else:
            raise ISelError(f"cannot select {e!r}")

    # -- statement selection ----------------------------------------------------------

    def stmt(self, s) -> None:
        if isinstance(s, IMark):
            self._imarks_seen += 1
            return
        if isinstance(s, NoOp):
            return
        if isinstance(s, WrTmp):
            dst = self.vreg_for_tmp(s.tmp)
            ty = self.sb.type_of_tmp(s.tmp)
            self.expr_into(s.data, dst, ty)
            return
        if isinstance(s, Put):
            ty = self.sb.type_of(s.data)
            src = self.expr(s.data)
            self.insns.append(STG(ty, s.offset, src))
            return
        if isinstance(s, Store):
            ty = self.sb.type_of(s.data)
            addr = self.expr(s.addr)
            src = self.expr(s.data)
            self.insns.append(STM(ty, addr, src))
            return
        if isinstance(s, Exit):
            cond = self.expr(s.guard)
            self.insns.append(
                SIDEEXIT(cond, s.dst, s.jumpkind.value, self._imarks_seen)
            )
            return
        if isinstance(s, Dirty):
            guard = self.expr(s.guard) if s.guard is not None else None
            args = tuple(self.expr(a) for a in s.args)
            dst = self.vreg_for_tmp(s.tmp) if s.tmp is not None else None
            self.insns.append(
                CALL(s.callee, args, dst=dst, retty=s.retty, dirty=True, guard=guard)
            )
            return
        raise ISelError(f"cannot select statement {s!r}")

    def run(self) -> List[HInsn]:
        for s in self.sb.stmts:
            self.stmt(s)
        nxt = self.sb.next
        if isinstance(nxt, Const):
            self.insns.append(SETPCI(int(nxt.value)))
        else:
            self.insns.append(SETPCR(self.expr(nxt)))
        self.insns.append(RET(self.sb.jumpkind.value, self._imarks_seen))
        return self.insns


def select(sb: IRSB) -> List[HInsn]:
    """Select host instructions (with virtual registers) for *sb*."""
    return ISel(sb).run()
