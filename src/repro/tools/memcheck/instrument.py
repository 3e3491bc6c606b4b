"""Memcheck's instrumentation pass: definedness propagation in IR.

Every value the client computes gets a *shadow* value of the same width
whose set bits mean "this bit is undefined".  The pass walks a flat-IR
block and, before each original statement, emits the corresponding shadow
computation (compare the paper's Figure 2, where 11 of 18 statements were
added by Memcheck and shadow operations precede each original operation):

* shadow registers are GET/PUT at ``offset + 320`` in the ThreadState;
* shadow arithmetic follows the classic Memcheck rules — UifU (undefined
  if either undefined, i.e. OR), the "Left" carry-smearing for add/sub,
  value-improved AND/OR, shift-by-shadow pessimism, and PCast (any
  undefined bit poisons the whole result) for comparisons, FP and calls;
* loads/stores call ``helperc_LOADV*``/``helperc_STOREV*`` dirty helpers
  ("too complex to be written inline" — they also check addressability);
* every use of a value as an address, branch guard, or jump target gets a
  *conditional* call to an error helper, guarded on the shadow bits.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...guest.regs import GUEST_STATE_SIZE, OFFSET_PC, SHADOW_OFFSET, SP, gpr_offset
from ...ir.block import IRSB
from ...ir.expr import (
    Binop,
    CCall,
    Const,
    Expr,
    Get,
    ITE,
    Load,
    RdTmp,
    Unop,
    const,
)
from ...ir.stmt import Dirty, Exit, IMark, NoOp, Put, StateFx, Store, WrTmp
from ...ir.types import Ty
from ...opt.flatten import flatten

#: Shadow type for each value type: FP shadows are integer bit-vectors.
SHADOW_TY = {
    Ty.I1: Ty.I1,
    Ty.I8: Ty.I8,
    Ty.I16: Ty.I16,
    Ty.I32: Ty.I32,
    Ty.I64: Ty.I64,
    Ty.F32: Ty.I32,
    Ty.F64: Ty.I64,
    Ty.V128: Ty.V128,
}

_WIDTH_SUFFIX = {Ty.I8: "8", Ty.I16: "16", Ty.I32: "32", Ty.I64: "64"}

#: Helper names (registered by the tool).
LOADV = {1: "helperc_LOADV8le", 2: "helperc_LOADV16le", 4: "helperc_LOADV32le",
         8: "helperc_LOADV64le", 16: "helperc_LOADV128le"}
STOREV = {1: "helperc_STOREV8le", 2: "helperc_STOREV16le", 4: "helperc_STOREV32le",
          8: "helperc_STOREV64le", 16: "helperc_STOREV128le"}
VALUE_CHECK = {0: "helperc_value_check0_fail", 1: "helperc_value_check1_fail",
               2: "helperc_value_check2_fail", 4: "helperc_value_check4_fail",
               8: "helperc_value_check8_fail"}

#: Figure 2's error-helper annotations: the helper reads the stack pointer
#: and program counter from the guest state to build its report.
_ERRFX = (StateFx(False, gpr_offset(SP), 4), StateFx(False, OFFSET_PC, 4))


def _uifu(ty: Ty, a: Expr, b: Expr) -> Expr:
    """Undefined-if-either-undefined: OR of shadows."""
    if ty is Ty.I1:
        return Binop("Or1", a, b)
    if ty is Ty.V128:
        return Binop("OrV128", a, b)
    return Binop(f"Or{_WIDTH_SUFFIX[ty]}", a, b)


def _left(ty: Ty, v: Expr) -> Expr:
    """Smear undefinedness towards the MSB: x | -x (carry propagation)."""
    w = _WIDTH_SUFFIX[ty]
    return Binop(f"Or{w}", v, Unop(f"Neg{w}", v))


def _cmpnez(ty: Ty, v: Expr) -> Expr:
    """Fold a shadow to a single I1 "any bit undefined" flag."""
    if ty is Ty.I1:
        return v
    if ty is Ty.V128:
        return Unop("CmpNEZV128", v)
    return Unop(f"CmpNEZ{_WIDTH_SUFFIX[ty]}", v)


def _pcast(src_ty: Ty, dst_ty: Ty, v: Expr) -> Expr:
    """PCast: all-defined -> all-defined, else all-undefined, retyped."""
    bit = _cmpnez(src_ty, v)
    if dst_ty is Ty.I1:
        return bit
    if dst_ty is Ty.V128:
        wide = Unop("1Sto64", bit)
        return Binop("64HLtoV128", wide, wide)
    return Unop(f"1Sto{_WIDTH_SUFFIX[dst_ty]}", bit)


class MemcheckInstrumenter:
    """Stateless per-block instrumenter (config comes from the tool)."""

    def __init__(self, *, check_loads: bool = True, check_stores: bool = True,
                 check_values: bool = True):
        self.check_loads = check_loads
        self.check_stores = check_stores
        #: Checking of condition/address definedness (the "undefined value
        #: use" errors); shadow propagation happens regardless.
        self.check_values = check_values

    # -- the entry point --------------------------------------------------------

    def instrument(self, sb: IRSB) -> IRSB:
        ctx = _BlockCtx(self, sb)
        ctx.run()
        return flatten(ctx.out)


class _BlockCtx:
    def __init__(self, cfg: MemcheckInstrumenter, sb: IRSB):
        self.cfg = cfg
        self.sb = sb
        self.out = IRSB(
            tyenv=dict(sb.tyenv), jumpkind=sb.jumpkind, guest_addr=sb.guest_addr
        )
        #: original tmp -> shadow tmp index.
        self.shadow_tmp: Dict[int, int] = {}

    # -- shadow temporaries ---------------------------------------------------------

    def shadow_of_tmp(self, tmp: int) -> int:
        s = self.shadow_tmp.get(tmp)
        if s is None:
            s = self.out.new_tmp(SHADOW_TY[self.sb.type_of_tmp(tmp)])
            self.shadow_tmp[tmp] = s
        return s

    def shadow_atom(self, e: Expr) -> Expr:
        """Shadow of an atom (flat IR operands are always atoms)."""
        if isinstance(e, Const):
            return const(SHADOW_TY[e.ty], 0)
        assert isinstance(e, RdTmp), e
        return RdTmp(self.shadow_of_tmp(e.tmp))

    # -- value-use checks -----------------------------------------------------------

    def emit_check_defined(self, atom: Expr, ty: Ty) -> None:
        """Emit a conditional error call if *atom*'s shadow is not zero."""
        if not self.cfg.check_values:
            return
        sty = SHADOW_TY[ty]
        v = self.shadow_atom(atom)
        if isinstance(v, Const) and v.value == 0:
            return
        size = 0 if sty is Ty.I1 else sty.size
        helper = VALUE_CHECK.get(size, VALUE_CHECK[8])
        guard = v if sty is Ty.I1 else self.out.assign_new(_cmpnez(sty, v))
        self.out.add(Dirty(helper, (), guard=guard, state_fx=_ERRFX))

    # -- shadow expression construction ------------------------------------------------

    def vexpr(self, e: Expr) -> Expr:
        """Shadow expression (a tree; the final flatten pass legalises it)."""
        if isinstance(e, (Const, RdTmp)):
            return self.shadow_atom(e)
        if isinstance(e, Get):
            if e.offset >= GUEST_STATE_SIZE:
                return const(SHADOW_TY[e.ty], 0)
            return Get(e.offset + SHADOW_OFFSET, SHADOW_TY[e.ty])
        if isinstance(e, Load):
            return self._vexpr_load(e)
        if isinstance(e, Unop):
            return self._vexpr_unop(e)
        if isinstance(e, Binop):
            return self._vexpr_binop(e)
        if isinstance(e, ITE):
            ty = self.sb.type_of(e)
            sty = SHADOW_TY[ty]
            picked = ITE(e.cond, self.shadow_atom(e.iftrue),
                         self.shadow_atom(e.iffalse))
            vcond = self.shadow_atom(e.cond)
            if isinstance(vcond, Const) and vcond.value == 0:
                return picked
            return _uifu(sty, picked, _pcast(Ty.I1, sty, vcond))
        if isinstance(e, CCall):
            sty = SHADOW_TY[e.ty]
            acc: Optional[Expr] = None
            for a in e.args:
                va = self.shadow_atom(a)
                if isinstance(va, Const) and va.value == 0:
                    continue
                aty = SHADOW_TY[self.sb.type_of(a)]
                piece = _pcast(aty, sty, va)
                acc = piece if acc is None else _uifu(sty, acc, piece)
            return acc if acc is not None else const(sty, 0)
        raise TypeError(f"memcheck cannot shadow {e!r}")

    def _vexpr_load(self, e: Load) -> Expr:
        """Shadow load: check the address, then call the LOADV helper.

        This is Figure 2's statements 15-17: the CmpNEZ + conditional
        value-check call, then the helperc_LOADV call.
        """
        if self.cfg.check_values:
            self.emit_check_defined(e.addr, Ty.I32)
        sty = SHADOW_TY[e.ty]
        if not self.cfg.check_loads:
            return const(sty, 0)
        t = self.out.new_tmp(sty)
        self.out.add(
            Dirty(
                LOADV[e.ty.size],
                (e.addr,),
                tmp=t,
                retty=sty,
                state_fx=_ERRFX,
            )
        )
        return RdTmp(t)

    def _vexpr_unop(self, e: Unop) -> Expr:
        op = e.op
        src_ty = self.sb.type_of(e.arg)
        dst_ty = self.sb.type_of(e)
        s_src = SHADOW_TY[src_ty]
        s_dst = SHADOW_TY[dst_ty]
        va = self.shadow_atom(e.arg)
        # NOT flips values but leaves definedness untouched.
        if op.startswith("Not"):
            return va
        # Width conversions and lane ops are bit-transparent: the same
        # operation transforms the shadow bits (signed widening correctly
        # replicates the sign bit's undefinedness).
        if (
            op.startswith("Dup")
            or op in ("64HIto32", "32HIto16", "16HIto8", "V128HIto64", "V128to64",
                      "V128to32", "32UtoV128", "64UtoV128")
            or (op[0].isdigit() and "to" in op and "F" not in op)
        ):
            return Unop(op, va)
        if op.startswith("Neg") and "F" not in op:
            return _left(s_dst, va)
        if op.startswith(("CmpNEZ", "CmpEQZ")):
            return _pcast(s_src, Ty.I1, va)
        if op.startswith("Reinterp"):
            return va if s_src is s_dst else _pcast(s_src, s_dst, va)
        # Everything else (FP conversions, Clz/Ctz/Popcnt, ...): PCast.
        return _pcast(s_src, s_dst, va)

    def _vexpr_binop(self, e: Binop) -> Expr:
        op = e.op
        ty = self.sb.type_of(e)
        sty = SHADOW_TY[ty]
        t1 = self.sb.type_of(e.arg1)
        t2 = self.sb.type_of(e.arg2)
        s1, s2 = SHADOW_TY[t1], SHADOW_TY[t2]
        va = self.shadow_atom(e.arg1)
        vb = self.shadow_atom(e.arg2)

        if op.startswith(("Add", "Sub", "Mul")) and ty in _WIDTH_SUFFIX:
            # Figure 2's "shadow addl": Left(UifU(va, vb)).
            return _left(sty, _uifu(sty, va, vb))
        if op.startswith("And") and ty is not Ty.I1 and ty in _WIDTH_SUFFIX:
            # Improved AND: a defined 0 on either side defines the output.
            u = _uifu(sty, va, vb)
            ia = _uifu(sty, e.arg1, va)   # a | va: "could the bit be 1?"
            ib = _uifu(sty, e.arg2, vb)
            return Binop(f"And{_WIDTH_SUFFIX[sty]}", Binop(
                f"And{_WIDTH_SUFFIX[sty]}", u, ia), ib)
        if op.startswith("Or") and ty is not Ty.I1 and ty in _WIDTH_SUFFIX:
            # Improved OR: a defined 1 on either side defines the output.
            w = _WIDTH_SUFFIX[sty]
            u = _uifu(sty, va, vb)
            ia = Binop(f"Or{w}", Unop(f"Not{w}", e.arg1), va)
            ib = Binop(f"Or{w}", Unop(f"Not{w}", e.arg2), vb)
            return Binop(f"And{w}", Binop(f"And{w}", u, ia), ib)
        if op.startswith("Xor") or op in ("And1", "Or1", "Xor1"):
            return _uifu(sty, va, vb)
        if op.startswith(("Shl", "Shr", "Sar", "Rol", "Ror")) and ty in _WIDTH_SUFFIX:
            shifted = Binop(op, va, e.arg2)
            if isinstance(vb, Const) and vb.value == 0:
                return shifted
            return _uifu(sty, shifted, _pcast(s2, sty, vb))
        if op == "32HLto64" or op == "16HLto32" or op == "8HLto16" or op == "64HLtoV128":
            return Binop(op, va, vb)
        if op.startswith("Cmp"):
            u: Expr
            if s1 is s2:
                u = _uifu(s1, va, vb)
                return _pcast(s1, sty, u)
            return _uifu(sty, _pcast(s1, sty, va), _pcast(s2, sty, vb))
        if ty is Ty.V128:
            if s2 is Ty.I8:  # lane shifts by an I8 amount
                shifted = Binop(op, va, e.arg2) if op.startswith(("ShlN", "ShrN")) \
                    else _pcast(s1, sty, va)
                if isinstance(vb, Const) and vb.value == 0:
                    return shifted
                return _uifu(sty, shifted, _pcast(s2, sty, vb))
            return _uifu(sty, va, vb)
        # Widening multiplies, divisions, FP arithmetic, Min/Max: PCast.
        if s1 is s2:
            return _pcast(s1, sty, _uifu(s1, va, vb))
        return _uifu(sty, _pcast(s1, sty, va), _pcast(s2, sty, vb))

    # -- statement walk -------------------------------------------------------------------

    def run(self) -> None:
        sb = self.sb
        out = self.out
        for s in sb.stmts:
            if isinstance(s, (NoOp, IMark)):
                out.add(s)
                continue
            if isinstance(s, WrTmp):
                v = self.vexpr(s.data)
                out.add(WrTmp(self.shadow_of_tmp(s.tmp), v))
                out.add(s)
                continue
            if isinstance(s, Put):
                if s.offset < GUEST_STATE_SIZE:
                    out.add(Put(s.offset + SHADOW_OFFSET, self.shadow_atom(s.data)))
                out.add(s)
                continue
            if isinstance(s, Store):
                ty = sb.type_of(s.data)
                self.emit_check_defined(s.addr, Ty.I32)
                if self.cfg.check_stores:
                    out.add(
                        Dirty(
                            STOREV[ty.size],
                            (s.addr, self.shadow_atom(s.data)),
                            state_fx=_ERRFX,
                        )
                    )
                out.add(s)
                continue
            if isinstance(s, Exit):
                # "Conditional jump depends on uninitialised value(s)".
                self.emit_check_defined(s.guard, Ty.I1)
                out.add(s)
                continue
            if isinstance(s, Dirty):
                out.add(s)
                # The helper's declared writes produce defined values.
                for fx in s.state_fx:
                    if fx.write and fx.offset < GUEST_STATE_SIZE:
                        self._define_state(fx.offset, fx.size)
                if s.tmp is not None:
                    out.add(
                        WrTmp(
                            self.shadow_of_tmp(s.tmp),
                            const(SHADOW_TY[sb.type_of_tmp(s.tmp)], 0),
                        )
                    )
                continue
            raise TypeError(f"memcheck cannot instrument {s!r}")
        if sb.next is not None and not isinstance(sb.next, Const):
            # Jump target must be defined.
            self.emit_check_defined(sb.next, Ty.I32)
        out.next = sb.next
        out.jumpkind = sb.jumpkind

    def _define_state(self, offset: int, size: int) -> None:
        """Mark a guest-state range as defined (after a dirty write)."""
        off = offset
        end = offset + size
        while off < end:
            chunk = min(4, end - off)
            ty = {1: Ty.I8, 2: Ty.I16, 4: Ty.I32}.get(chunk, Ty.I32)
            if chunk == 3:
                ty, chunk = Ty.I8, 1
            self.out.add(Put(off + SHADOW_OFFSET, const(ty, 0)))
            off += chunk
