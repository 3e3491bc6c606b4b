"""Phase 1: disassembly — vx32 machine code → (unoptimised) tree IR.

Each guest instruction is disassembled independently into one or more IR
statements that fully update the affected guest registers in the
ThreadState (Figure 1 of the paper).  Guest registers are pulled from the
ThreadState with GET, operated on in temporaries/expression trees, and
written back with PUT; condition codes are written as the four-value lazy
thunk; the program counter is updated at each instruction boundary (the
optimiser removes the redundant ones).

Superblock formation follows Section 3.7's policy: follow instructions
until (a) an instruction limit (~50) is reached, (b) a conditional branch
is hit, (c) a branch to an unknown target is hit, or (d) more than three
unconditional branches to known targets have been followed.

The instruction semantics here MUST mirror :mod:`repro.guest.refcpu`; the
differential test suite enforces this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..guest.encoding import DecodeError, decode
from ..guest.isa import Imm, Mem, Reg
from ..guest.regs import (
    CC_OP_ADD,
    CC_OP_COPY,
    CC_OP_LOGIC,
    CC_OP_MUL,
    CC_OP_SHL,
    CC_OP_SHR,
    CC_OP_SUB,
    FLAG_C,
    FLAG_O,
    FLAG_Z,
    OFFSET_CC_DEP1,
    OFFSET_CC_DEP2,
    OFFSET_CC_NDEP,
    OFFSET_CC_OP,
    OFFSET_IP_AT_SYSCALL,
    OFFSET_PC,
    SP,
    freg_offset,
    gpr_offset,
    vreg_offset,
)
from ..ir.block import IRSB
from ..ir.expr import (
    Binop,
    CCall,
    Expr,
    Get,
    ITE,
    Load,
    RdTmp,
    Unop,
    c8,
    c32,
    const,
)
from ..ir.stmt import Dirty, Exit, IMark, JumpKind, Put, StateFx, Store
from ..ir.types import Ty
from . import helpers as H

#: Section 3.7: "an instruction limit is reached (about 50)".
MAX_BLOCK_INSNS = 50
#: Section 3.7: "more than three unconditional branches to known targets".
MAX_CHASES = 3
#: Longest encodable vx32 instruction.
MAX_INSN_LEN = 11


class TranslationFault(Exception):
    """Raised when the first instruction of a block cannot even be fetched."""

    def __init__(self, addr: int, reason: str):
        super().__init__(f"cannot translate at {addr:#x}: {reason}")
        self.addr = addr
        self.reason = reason


class Disassembler:
    """Converts guest code into tree-IR superblocks."""

    def __init__(
        self,
        fetch: Callable[[int, int], bytes],
        chase_ok: Optional[Callable[[int], bool]] = None,
    ):
        """*fetch(addr, n)* returns up to *n* executable bytes at *addr*,
        raising on an unexecutable first byte.  *chase_ok(addr)* can veto
        following an unconditional branch into *addr* (used so function
        redirection is never bypassed by branch chasing)."""
        self._fetch = fetch
        self._chase_ok = chase_ok

    # -- block formation -------------------------------------------------------

    def disasm_block(
        self,
        addr: int,
        *,
        max_insns: int = MAX_BLOCK_INSNS,
        max_chases: int = MAX_CHASES,
    ) -> IRSB:
        sb = IRSB(guest_addr=addr)
        ctx = _Ctx(sb)
        cur = addr
        n_insns = 0
        n_chases = 0
        while True:
            try:
                raw = self._fetch(cur, MAX_INSN_LEN)
                insn = decode(raw, 0, cur)
            except (DecodeError, Exception) as exc:
                if n_insns == 0:
                    if isinstance(exc, DecodeError):
                        # An undecodable first instruction: emit a block
                        # that reports SIGILL when run.
                        sb.add(IMark(cur, 1))
                        sb.next = c32(cur)
                        sb.jumpkind = JumpKind.NoDecode
                        return sb
                    raise TranslationFault(cur, str(exc)) from exc
                # Mid-block trouble: stop early; re-dispatch at `cur` will
                # fault precisely.
                sb.next = c32(cur)
                sb.jumpkind = JumpKind.Boring
                return sb

            sb.add(IMark(cur, insn.length))
            if n_insns > 0:
                # The PC is correct on block entry; later instructions must
                # keep the ThreadState's PC up to date (Figure 1, stmt 5).
                sb.add(Put(OFFSET_PC, c32(cur)))
            n_insns += 1
            nxt = cur + insn.length

            emit = _EMITTERS[insn.mnemonic]
            outcome = emit(ctx, insn, cur, nxt)

            if outcome is None:
                cur = nxt
                if n_insns >= max_insns:
                    sb.next = c32(cur)
                    sb.jumpkind = JumpKind.Boring
                    return sb
                continue
            kind, value = outcome
            if kind == "chase":
                if (
                    n_chases < max_chases
                    and n_insns < max_insns
                    and (self._chase_ok is None or self._chase_ok(value))
                ):
                    n_chases += 1
                    cur = value
                    continue
                sb.next = c32(value)
                sb.jumpkind = JumpKind.Boring
                return sb
            if kind == "done":
                return sb
            raise AssertionError(outcome)  # pragma: no cover


class _Ctx:
    """Per-block emission context with small IR-building conveniences."""

    def __init__(self, sb: IRSB):
        self.sb = sb

    def tmp(self, e: Expr) -> RdTmp:
        return self.sb.assign_new(e)

    def put(self, offset: int, e: Expr) -> None:
        self.sb.add(Put(offset, e))

    def store(self, addr: Expr, data: Expr) -> None:
        self.sb.add(Store(addr, data))

    def get_reg(self, i: int) -> Get:
        return Get(gpr_offset(i), Ty.I32)

    def put_reg(self, i: int, e: Expr) -> None:
        self.put(gpr_offset(i), e)

    def set_thunk(self, op: Expr, dep1: Expr, dep2: Expr, ndep: Expr) -> None:
        self.put(OFFSET_CC_OP, op)
        self.put(OFFSET_CC_DEP1, dep1)
        self.put(OFFSET_CC_DEP2, dep2)
        self.put(OFFSET_CC_NDEP, ndep)

    def ea(self, m: Mem) -> Expr:
        """Effective address of a memory operand, as an expression tree."""
        terms: List[Expr] = []
        if m.base is not None:
            terms.append(self.get_reg(m.base))
        if m.index is not None:
            idx: Expr = self.get_reg(m.index)
            if m.scale > 1:
                idx = Binop("Shl32", idx, c8(m.scale.bit_length() - 1))
            terms.append(idx)
        if m.disp != 0 or not terms:
            terms.append(c32(m.disp))
        e = terms[0]
        for t in terms[1:]:
            e = Binop("Add32", e, t)
        return e

    def condition(self, cc: int) -> RdTmp:
        """Materialise condition *cc* from the thunk as an I32 0/1 tmp."""
        call = CCall(
            Ty.I32,
            H.CALC_COND,
            (
                c32(cc),
                Get(OFFSET_CC_OP, Ty.I32),
                Get(OFFSET_CC_DEP1, Ty.I32),
                Get(OFFSET_CC_DEP2, Ty.I32),
                Get(OFFSET_CC_NDEP, Ty.I32),
            ),
            regparms_read=H.THUNK_READS,
        )
        return self.tmp(call)


# ---------------------------------------------------------------------------
# Per-instruction emitters.  Each returns None (fall through), ("chase", t)
# for a followable unconditional branch, or ("done", None) when the block
# has been terminated (ctx.sb.next/jumpkind set).
# ---------------------------------------------------------------------------

_EMITTERS: Dict[str, Callable] = {}


def _emit(*names: str):
    def deco(fn):
        for n in names:
            _EMITTERS[n] = fn
        return fn

    return deco


def _end(ctx: _Ctx, nxt: Expr, jk: JumpKind):
    ctx.sb.next = nxt
    ctx.sb.jumpkind = jk
    return ("done", None)


# -- misc ---------------------------------------------------------------------


@_emit("nop")
def _nop(ctx, insn, cur, nxt):
    return None


@_emit("halt")
def _halt(ctx, insn, cur, nxt):
    return _end(ctx, c32(nxt), JumpKind.Exit)


@_emit("syscall")
def _syscall(ctx, insn, cur, nxt):
    ctx.put(OFFSET_IP_AT_SYSCALL, c32(cur))
    return _end(ctx, c32(nxt), JumpKind.Syscall)


@_emit("lcall")
def _lcall(ctx, insn, cur, nxt):
    ctx.put(OFFSET_IP_AT_SYSCALL, c32(cur))
    return _end(ctx, c32(nxt), JumpKind.LCall)


@_emit("clreq")
def _clreq(ctx, insn, cur, nxt):
    ctx.put(OFFSET_IP_AT_SYSCALL, c32(cur))
    return _end(ctx, c32(nxt), JumpKind.ClientReq)


@_emit("machid")
def _machid(ctx, insn, cur, nxt):
    fx = tuple(StateFx(True, gpr_offset(i), 4) for i in range(4))
    ctx.sb.add(Dirty(H.MACHID, (), state_fx=fx))
    return None


@_emit("cycles")
def _cycles(ctx, insn, cur, nxt):
    t = ctx.sb.new_tmp(Ty.I32)
    ctx.sb.add(
        Dirty(
            H.CYCLES,
            (),
            tmp=t,
            retty=Ty.I32,
            state_fx=(StateFx(True, gpr_offset(0), 4),),
        )
    )
    ctx.put_reg(0, RdTmp(t))
    return None


# -- data movement ---------------------------------------------------------------


@_emit("mov")
def _mov(ctx, insn, cur, nxt):
    rd, rs = insn.operands[0].index, insn.operands[1].index
    ctx.put_reg(rd, ctx.get_reg(rs))
    return None


@_emit("movi")
def _movi(ctx, insn, cur, nxt):
    ctx.put_reg(insn.operands[0].index, c32(insn.operands[1].value))
    return None


@_emit("xchg")
def _xchg(ctx, insn, cur, nxt):
    rd, rs = insn.operands[0].index, insn.operands[1].index
    t1 = ctx.tmp(ctx.get_reg(rd))
    t2 = ctx.tmp(ctx.get_reg(rs))
    ctx.put_reg(rd, t2)
    ctx.put_reg(rs, t1)
    return None


@_emit("ld")
def _ld(ctx, insn, cur, nxt):
    t = ctx.tmp(ctx.ea(insn.operands[1]))
    ctx.put_reg(insn.operands[0].index, Load(Ty.I32, t))
    return None


def _mk_narrow_load(ldty: Ty, widen: str):
    def emit(ctx, insn, cur, nxt):
        t = ctx.tmp(ctx.ea(insn.operands[1]))
        ctx.put_reg(insn.operands[0].index, Unop(widen, Load(ldty, t)))
        return None

    return emit


_EMITTERS["ldb"] = _mk_narrow_load(Ty.I8, "8Uto32")
_EMITTERS["ldbs"] = _mk_narrow_load(Ty.I8, "8Sto32")
_EMITTERS["ldw"] = _mk_narrow_load(Ty.I16, "16Uto32")
_EMITTERS["ldws"] = _mk_narrow_load(Ty.I16, "16Sto32")


@_emit("st")
def _st(ctx, insn, cur, nxt):
    ctx.store(ctx.ea(insn.operands[0]), ctx.get_reg(insn.operands[1].index))
    return None


def _mk_narrow_store(narrow: str):
    def emit(ctx, insn, cur, nxt):
        ctx.store(
            ctx.ea(insn.operands[0]),
            Unop(narrow, ctx.get_reg(insn.operands[1].index)),
        )
        return None

    return emit


_EMITTERS["stb"] = _mk_narrow_store("32to8")
_EMITTERS["stw"] = _mk_narrow_store("32to16")


@_emit("sti")
def _sti(ctx, insn, cur, nxt):
    ctx.store(ctx.ea(insn.operands[0]), c32(insn.operands[1].value))
    return None


@_emit("lea")
def _lea(ctx, insn, cur, nxt):
    ctx.put_reg(insn.operands[0].index, ctx.ea(insn.operands[1]))
    return None


@_emit("sxb")
def _sxb(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    ctx.put_reg(rd, Unop("8Sto32", Unop("32to8", ctx.get_reg(rd))))
    return None


@_emit("sxw")
def _sxw(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    ctx.put_reg(rd, Unop("16Sto32", Unop("32to16", ctx.get_reg(rd))))
    return None


# -- flag-setting ALU ----------------------------------------------------------------
# Thunk conventions are shared with refcpu — see the comment there.


def _src_operand(ctx: _Ctx, op) -> Expr:
    if isinstance(op, Reg):
        return ctx.get_reg(op.index)
    if isinstance(op, Imm):
        return c32(op.value)
    assert isinstance(op, Mem)
    return Load(Ty.I32, ctx.tmp(ctx.ea(op)))


def _mk_alu(kind: str):
    def emit(ctx, insn, cur, nxt):
        rd = insn.operands[0].index
        ta = ctx.tmp(ctx.get_reg(rd))
        tb = ctx.tmp(_src_operand(ctx, insn.operands[1]))
        if kind in ("add", "sub", "mul"):
            irop = {"add": "Add32", "sub": "Sub32", "mul": "Mul32"}[kind]
            cc = {"add": CC_OP_ADD, "sub": CC_OP_SUB, "mul": CC_OP_MUL}[kind]
            tres = ctx.tmp(Binop(irop, ta, tb))
            ctx.set_thunk(c32(cc), ta, tb, c32(0))
            ctx.put_reg(rd, tres)
        elif kind == "cmp":
            ctx.set_thunk(c32(CC_OP_SUB), ta, tb, c32(0))
        elif kind == "test":
            tres = ctx.tmp(Binop("And32", ta, tb))
            ctx.set_thunk(c32(CC_OP_LOGIC), tres, c32(0), c32(0))
        else:  # and/or/xor
            irop = {"and": "And32", "or": "Or32", "xor": "Xor32"}[kind]
            tres = ctx.tmp(Binop(irop, ta, tb))
            ctx.set_thunk(c32(CC_OP_LOGIC), tres, c32(0), c32(0))
            ctx.put_reg(rd, tres)
        return None

    return emit


for _k in ("add", "sub", "and", "or", "xor", "cmp", "test", "mul"):
    _EMITTERS[_k] = _mk_alu(_k)
    _EMITTERS[_k + "i"] = _mk_alu(_k)
for _k in ("add", "sub", "and", "or", "xor", "cmp"):
    _EMITTERS[_k + "m_"] = _mk_alu(_k)


@_emit("addm", "subm")
def _alu_mem_dest(ctx, insn, cur, nxt):
    is_add = insn.mnemonic == "addm"
    taddr = ctx.tmp(ctx.ea(insn.operands[0]))
    ta = ctx.tmp(Load(Ty.I32, taddr))
    tb = ctx.tmp(ctx.get_reg(insn.operands[1].index))
    tres = ctx.tmp(Binop("Add32" if is_add else "Sub32", ta, tb))
    ctx.store(taddr, tres)
    ctx.set_thunk(c32(CC_OP_ADD if is_add else CC_OP_SUB), ta, tb, c32(0))
    return None


@_emit("divu", "divs", "modu", "mods")
def _divmod(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    tb = ctx.tmp(ctx.get_reg(insn.operands[1].index))
    tz = ctx.tmp(Binop("CmpEQ32", tb, c32(0)))
    ctx.sb.add(Exit(tz, cur, JumpKind.SigFPE))
    irop = {"divu": "DivU32", "divs": "DivS32", "modu": "ModU32", "mods": "ModS32"}[
        insn.mnemonic
    ]
    ctx.put_reg(rd, Binop(irop, ctx.get_reg(rd), tb))
    return None


@_emit("mulhu", "mulhs")
def _mulh(ctx, insn, cur, nxt):
    rd, rs = insn.operands[0].index, insn.operands[1].index
    mul = "MullS32" if insn.mnemonic == "mulhs" else "MullU32"
    ctx.put_reg(
        rd, Unop("64HIto32", Binop(mul, ctx.get_reg(rd), ctx.get_reg(rs)))
    )
    return None


# -- shifts and unary -----------------------------------------------------------------


def _shift_parts(ctx: _Ctx, mnem_base: str, ta: Expr, n8: Expr):
    """Result and last-bit-out expressions for a shift by *n8* (> 0)."""
    if mnem_base == "shl":
        res = Binop("Shl32", ta, n8)
        last = Binop(
            "And32", Binop("Shr32", ta, Binop("Sub8", c8(32), n8)), c32(1)
        )
        return res, last, CC_OP_SHL
    if mnem_base == "shr":
        res = Binop("Shr32", ta, n8)
        last = Binop(
            "And32", Binop("Shr32", ta, Binop("Sub8", n8, c8(1))), c32(1)
        )
        return res, last, CC_OP_SHR
    assert mnem_base == "sar"
    res = Binop("Sar32", ta, n8)
    last = Binop("And32", Binop("Sar32", ta, Binop("Sub8", n8, c8(1))), c32(1))
    return res, last, CC_OP_SHR


@_emit("shli", "shri", "sari")
def _shift_imm(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    n = insn.operands[1].value & 0xFF
    if n == 0:
        return None
    base = insn.mnemonic[:-1]
    ta = ctx.tmp(ctx.get_reg(rd))
    res, last, cc = _shift_parts(ctx, base, ta, c8(n))
    tres = ctx.tmp(res)
    tlast = ctx.tmp(last)
    ctx.set_thunk(c32(cc), tres, tlast, c32(0))
    ctx.put_reg(rd, tres)
    return None


@_emit("shl", "shr", "sar")
def _shift_reg(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    rs = insn.operands[1].index
    tn8 = ctx.tmp(Unop("32to8", ctx.get_reg(rs)))
    tnz = ctx.tmp(Binop("CmpNE8", tn8, c8(0)))
    ta = ctx.tmp(ctx.get_reg(rd))
    res, last, cc = _shift_parts(ctx, insn.mnemonic, ta, tn8)
    tres = ctx.tmp(res)
    tlast = ctx.tmp(last)
    # A zero count leaves the value and the flags thunk untouched.
    ctx.put_reg(rd, ITE(tnz, tres, ta))
    ctx.put(OFFSET_CC_OP, ITE(tnz, c32(cc), Get(OFFSET_CC_OP, Ty.I32)))
    ctx.put(OFFSET_CC_DEP1, ITE(tnz, tres, Get(OFFSET_CC_DEP1, Ty.I32)))
    ctx.put(OFFSET_CC_DEP2, ITE(tnz, tlast, Get(OFFSET_CC_DEP2, Ty.I32)))
    ctx.put(OFFSET_CC_NDEP, ITE(tnz, c32(0), Get(OFFSET_CC_NDEP, Ty.I32)))
    return None


@_emit("roli", "rori")
def _rotate(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    n = insn.operands[1].value & 0xFF
    if n == 0:
        return None
    irop = "Rol32" if insn.mnemonic == "roli" else "Ror32"
    ta = ctx.tmp(ctx.get_reg(rd))
    tres = ctx.tmp(Binop(irop, ta, c8(n)))
    ctx.set_thunk(c32(CC_OP_LOGIC), tres, c32(0), c32(0))
    ctx.put_reg(rd, tres)
    return None


@_emit("inc", "dec")
def _incdec(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    is_inc = insn.mnemonic == "inc"
    ta = ctx.tmp(ctx.get_reg(rd))
    tres = ctx.tmp(Binop("Add32" if is_inc else "Sub32", ta, c32(1)))
    ctx.set_thunk(c32(CC_OP_ADD if is_inc else CC_OP_SUB), ta, c32(1), c32(0))
    ctx.put_reg(rd, tres)
    return None


@_emit("neg")
def _neg(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    ta = ctx.tmp(ctx.get_reg(rd))
    tres = ctx.tmp(Binop("Sub32", c32(0), ta))
    ctx.set_thunk(c32(CC_OP_SUB), c32(0), ta, c32(0))
    ctx.put_reg(rd, tres)
    return None


@_emit("not")
def _not(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    ctx.put_reg(rd, Unop("Not32", ctx.get_reg(rd)))
    return None


# -- stack and control flow --------------------------------------------------------------


def _push_value(ctx: _Ctx, value: Expr) -> None:
    tval = ctx.tmp(value)
    tsp = ctx.tmp(Binop("Sub32", Get(gpr_offset(SP), Ty.I32), c32(4)))
    ctx.put(gpr_offset(SP), tsp)
    ctx.store(tsp, tval)


@_emit("push")
def _push(ctx, insn, cur, nxt):
    _push_value(ctx, ctx.get_reg(insn.operands[0].index))
    return None


@_emit("pushi")
def _pushi(ctx, insn, cur, nxt):
    _push_value(ctx, c32(insn.operands[0].value))
    return None


@_emit("pop")
def _pop(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    tsp = ctx.tmp(Get(gpr_offset(SP), Ty.I32))
    tval = ctx.tmp(Load(Ty.I32, tsp))
    ctx.put_reg(rd, tval)
    ctx.put(gpr_offset(SP), Binop("Add32", tsp, c32(4)))
    return None


@_emit("call")
def _call(ctx, insn, cur, nxt):
    _push_value(ctx, c32(nxt))
    return _end(ctx, c32(insn.operands[0].value), JumpKind.Call)


@_emit("callr")
def _callr(ctx, insn, cur, nxt):
    ttarget = ctx.tmp(ctx.get_reg(insn.operands[0].index))
    _push_value(ctx, c32(nxt))
    return _end(ctx, ttarget, JumpKind.Call)


@_emit("ret")
def _ret(ctx, insn, cur, nxt):
    tsp = ctx.tmp(Get(gpr_offset(SP), Ty.I32))
    tra = ctx.tmp(Load(Ty.I32, tsp))
    ctx.put(gpr_offset(SP), Binop("Add32", tsp, c32(4)))
    return _end(ctx, tra, JumpKind.Ret)


@_emit("jmp")
def _jmp(ctx, insn, cur, nxt):
    return ("chase", insn.operands[0].value)


@_emit("jmpr")
def _jmpr(ctx, insn, cur, nxt):
    t = ctx.tmp(ctx.get_reg(insn.operands[0].index))
    return _end(ctx, t, JumpKind.Boring)


@_emit("jcc")
def _jcc(ctx, insn, cur, nxt):
    cc = insn.operands[0].code
    target = insn.operands[1].value
    tcond = ctx.condition(cc)
    tg = ctx.tmp(Unop("CmpNEZ32", tcond))
    ctx.sb.add(Exit(tg, target, JumpKind.Boring))
    return _end(ctx, c32(nxt), JumpKind.Boring)


@_emit("setcc")
def _setcc(ctx, insn, cur, nxt):
    rd = insn.operands[0].index
    cc = insn.operands[1].code
    ctx.put_reg(rd, ctx.condition(cc))
    return None


# -- floating point --------------------------------------------------------------------


def _fget(i: int) -> Get:
    return Get(freg_offset(i), Ty.F64)


_F_UNOPS = {"fneg": "NegF64", "fabs": "AbsF64", "fsqrt": "SqrtF64"}
_F_BINOPS = {
    "fadd": "AddF64",
    "fsub": "SubF64",
    "fmul": "MulF64",
    "fdiv": "DivF64",
    "fmin": "MinF64",
    "fmax": "MaxF64",
}


@_emit("fmov")
def _fmov(ctx, insn, cur, nxt):
    ctx.put(freg_offset(insn.operands[0].index), _fget(insn.operands[1].index))
    return None


@_emit(*_F_UNOPS)
def _funop(ctx, insn, cur, nxt):
    fd, fs = insn.operands[0].index, insn.operands[1].index
    ctx.put(freg_offset(fd), Unop(_F_UNOPS[insn.mnemonic], _fget(fs)))
    return None


@_emit(*_F_BINOPS)
def _fbinop(ctx, insn, cur, nxt):
    fd, fs = insn.operands[0].index, insn.operands[1].index
    ctx.put(
        freg_offset(fd), Binop(_F_BINOPS[insn.mnemonic], _fget(fd), _fget(fs))
    )
    return None


@_emit("fcmp")
def _fcmp(ctx, insn, cur, nxt):
    fd, fs = insn.operands[0].index, insn.operands[1].index
    tr = ctx.tmp(Binop("CmpF64", _fget(fd), _fget(fs)))
    # Map the CmpF64 result onto our flags: UN->C|Z|O, EQ->Z, LT->C, GT->0.
    from ..ir.ops import F64CMP_EQ, F64CMP_LT, F64CMP_UN

    flags = ITE(
        Binop("CmpEQ32", tr, c32(F64CMP_UN)),
        c32(FLAG_C | FLAG_Z | FLAG_O),
        ITE(
            Binop("CmpEQ32", tr, c32(F64CMP_EQ)),
            c32(FLAG_Z),
            ITE(Binop("CmpEQ32", tr, c32(F64CMP_LT)), c32(FLAG_C), c32(0)),
        ),
    )
    tflags = ctx.tmp(flags)
    ctx.set_thunk(c32(CC_OP_COPY), tflags, c32(0), c32(0))
    return None


@_emit("fld")
def _fld(ctx, insn, cur, nxt):
    t = ctx.tmp(ctx.ea(insn.operands[1]))
    ctx.put(freg_offset(insn.operands[0].index), Load(Ty.F64, t))
    return None


@_emit("fst")
def _fst(ctx, insn, cur, nxt):
    ctx.store(ctx.ea(insn.operands[0]), _fget(insn.operands[1].index))
    return None


@_emit("flds")
def _flds(ctx, insn, cur, nxt):
    t = ctx.tmp(ctx.ea(insn.operands[1]))
    ctx.put(
        freg_offset(insn.operands[0].index), Unop("F32toF64", Load(Ty.F32, t))
    )
    return None


@_emit("fsts")
def _fsts(ctx, insn, cur, nxt):
    ctx.store(
        ctx.ea(insn.operands[0]),
        Unop("F64toF32", _fget(insn.operands[1].index)),
    )
    return None


@_emit("fcvti")
def _fcvti(ctx, insn, cur, nxt):
    ctx.put_reg(
        insn.operands[0].index, Unop("F64toI32S", _fget(insn.operands[1].index))
    )
    return None


@_emit("ficvt")
def _ficvt(ctx, insn, cur, nxt):
    ctx.put(
        freg_offset(insn.operands[0].index),
        Unop("I32StoF64", ctx.get_reg(insn.operands[1].index)),
    )
    return None


@_emit("fldi")
def _fldi(ctx, insn, cur, nxt):
    v = insn.operands[1].value & 0xFFFFFFFF
    value = float(v - (1 << 32)) if v & 0x80000000 else float(v)
    ctx.put(freg_offset(insn.operands[0].index), const(Ty.F64, value))
    return None


# -- SIMD ------------------------------------------------------------------------------

from ..guest.refcpu import _V_BINOPS  # single source of mnemonic -> IR op


def _vget(i: int) -> Get:
    return Get(vreg_offset(i), Ty.V128)


@_emit("vmov")
def _vmov(ctx, insn, cur, nxt):
    ctx.put(vreg_offset(insn.operands[0].index), _vget(insn.operands[1].index))
    return None


@_emit(*_V_BINOPS)
def _vbinop(ctx, insn, cur, nxt):
    vd, vs = insn.operands[0].index, insn.operands[1].index
    ctx.put(
        vreg_offset(vd), Binop(_V_BINOPS[insn.mnemonic], _vget(vd), _vget(vs))
    )
    return None


@_emit("vld")
def _vld(ctx, insn, cur, nxt):
    t = ctx.tmp(ctx.ea(insn.operands[1]))
    ctx.put(vreg_offset(insn.operands[0].index), Load(Ty.V128, t))
    return None


@_emit("vst")
def _vst(ctx, insn, cur, nxt):
    ctx.store(ctx.ea(insn.operands[0]), _vget(insn.operands[1].index))
    return None


@_emit("vshlw", "vshrw")
def _vshift(ctx, insn, cur, nxt):
    vd = insn.operands[0].index
    n = insn.operands[1].value & 0xFF
    irop = "ShlN16x8" if insn.mnemonic == "vshlw" else "ShrN16x8"
    ctx.put(vreg_offset(vd), Binop(irop, _vget(vd), c8(n)))
    return None


@_emit("vsplatb")
def _vsplatb(ctx, insn, cur, nxt):
    vd = insn.operands[0].index
    rs = insn.operands[1].index
    ctx.put(
        vreg_offset(vd), Unop("Dup8x16", Unop("32to8", ctx.get_reg(rs)))
    )
    return None
