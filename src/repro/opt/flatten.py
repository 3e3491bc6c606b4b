"""Tree IR → flat IR.

Flat IR is the form tools instrument: every operand of every operation is
an *atom* (a constant or a temporary), so each intermediate value — such
as an address computed by a complex addressing mode — has a name a tool
can attach analysis to.  "It is important that the IR is flattened at this
point as it makes instrumentation easier, particularly for shadow value
tools" (Section 3.7, Phase 3).
"""

from __future__ import annotations

from ..ir.block import IRSB
from ..ir.expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop
from ..ir.stmt import Dirty, Exit, IMark, MemFx, NoOp, Put, Store, WrTmp


def flatten(sb: IRSB) -> IRSB:
    """Return a new, flat superblock equivalent to *sb*."""
    out = IRSB(
        tyenv=dict(sb.tyenv),
        next=None,
        jumpkind=sb.jumpkind,
        guest_addr=sb.guest_addr,
    )

    def atom(e: Expr) -> Expr:
        """Flatten *e*, emitting helper WrTmps, and return an atom."""
        if isinstance(e, (Const, RdTmp)):
            return e
        flat = shallow(e)
        t = out.new_tmp(out.type_of(flat))
        out.add(WrTmp(t, flat))
        return RdTmp(t)

    def shallow(e: Expr) -> Expr:
        """Rebuild *e* with atom operands (one operation deep)."""
        if isinstance(e, (Const, RdTmp, Get)):
            return e
        if isinstance(e, Load):
            return Load(e.ty, atom(e.addr))
        if isinstance(e, Unop):
            return Unop(e.op, atom(e.arg))
        if isinstance(e, Binop):
            return Binop(e.op, atom(e.arg1), atom(e.arg2))
        if isinstance(e, ITE):
            return ITE(atom(e.cond), atom(e.iftrue), atom(e.iffalse))
        if isinstance(e, CCall):
            return CCall(e.ty, e.callee, tuple(atom(a) for a in e.args), e.regparms_read)
        raise TypeError(f"cannot flatten {e!r}")

    for s in sb.stmts:
        if isinstance(s, (NoOp, IMark)):
            out.add(s)
        elif isinstance(s, WrTmp):
            out.add(WrTmp(s.tmp, shallow(s.data)))
        elif isinstance(s, Put):
            out.add(Put(s.offset, atom(s.data)))
        elif isinstance(s, Store):
            a = atom(s.addr)
            d = atom(s.data)
            out.add(Store(a, d))
        elif isinstance(s, Exit):
            out.add(Exit(atom(s.guard), s.dst, s.jumpkind))
        elif isinstance(s, Dirty):
            guard = atom(s.guard) if s.guard is not None else None
            args = tuple(atom(a) for a in s.args)
            mem_fx = tuple(MemFx(m.write, atom(m.addr), m.size) for m in s.mem_fx)
            out.add(
                Dirty(
                    s.callee,
                    args,
                    guard=guard,
                    tmp=s.tmp,
                    retty=s.retty,
                    state_fx=s.state_fx,
                    mem_fx=mem_fx,
                )
            )
        else:
            raise TypeError(f"cannot flatten statement {s!r}")
    out.next = atom(sb.next) if sb.next is not None else None
    return out
