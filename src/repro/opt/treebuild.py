"""Phase 5: tree building — flat IR → tree IR for instruction selection.

Expressions assigned to temporaries that are used exactly once are
substituted into the use point and the assignment deleted, giving the
instruction selector bigger trees to match.  The resulting code may
perform loads in a different order to the original code, but loads are
never moved past stores (Section 3.7, Phase 5) — nor past dirty helper
calls, which may write memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.block import IRSB
from ..ir.expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop
from ..ir.stmt import (
    Dirty, Exit, IMark, MemFx, NoOp, Put, Stmt, Store, WrTmp,
)


def _count_uses(sb: IRSB) -> Dict[int, int]:
    uses: Dict[int, int] = {}

    def walk(e: Expr) -> None:
        if isinstance(e, RdTmp):
            uses[e.tmp] = uses.get(e.tmp, 0) + 1
        for c in e.children():
            walk(c)

    for e in sb.iter_exprs():
        walk(e)
    return uses


def _contains_load(e: Expr) -> bool:
    if isinstance(e, Load):
        return True
    return any(_contains_load(c) for c in e.children())


def _contains_get(e: Expr) -> bool:
    if isinstance(e, Get):
        return True
    return any(_contains_get(c) for c in e.children())


def _contains_get_overlapping(e: Expr, offset: int, size: int) -> bool:
    if isinstance(e, Get) and e.offset < offset + size and offset < e.offset + e.ty.size:
        return True
    return any(_contains_get_overlapping(c, offset, size) for c in e.children())


class _Builder:
    def __init__(self, sb: IRSB):
        self.sb = sb
        self.uses = _count_uses(sb)
        #: tmp -> candidate expression for inline substitution.
        self.pending: Dict[int, Expr] = {}

    def subst(self, e: Expr) -> Expr:
        if isinstance(e, RdTmp):
            repl = self.pending.pop(e.tmp, None)
            if repl is not None:
                return repl
            return e
        if isinstance(e, (Const, Get)):
            return e
        if isinstance(e, Load):
            return Load(e.ty, self.subst(e.addr))
        if isinstance(e, Unop):
            return Unop(e.op, self.subst(e.arg))
        if isinstance(e, Binop):
            # Substitute right-to-left so that the textually-later operand's
            # pending expression is consumed first, preserving evaluation
            # independence (operands are pure).
            a2 = self.subst(e.arg2)
            a1 = self.subst(e.arg1)
            return Binop(e.op, a1, a2)
        if isinstance(e, ITE):
            ff = self.subst(e.iffalse)
            tt = self.subst(e.iftrue)
            cc = self.subst(e.cond)
            return ITE(cc, tt, ff)
        if isinstance(e, CCall):
            return CCall(
                e.ty, e.callee, tuple(self.subst(a) for a in reversed(e.args))[::-1],
                e.regparms_read,
            )
        raise TypeError(f"cannot substitute {e!r}")

    def flush_loads(self) -> List[Stmt]:
        """Materialise pending expressions that contain loads (called before
        stores/dirty calls so loads never migrate past them)."""
        out: List[Stmt] = []
        for tmp in list(self.pending):
            if _contains_load(self.pending[tmp]):
                out.append(WrTmp(tmp, self.pending.pop(tmp)))
        return out

    def flush_all(self) -> List[Stmt]:
        out = [WrTmp(t, e) for t, e in self.pending.items()]
        self.pending.clear()
        return out


def build_trees(sb: IRSB) -> IRSB:
    """Convert flat IR back into tree IR."""
    out = IRSB(tyenv=dict(sb.tyenv), jumpkind=sb.jumpkind, guest_addr=sb.guest_addr)
    b = _Builder(sb)
    for s in sb.stmts:
        if isinstance(s, NoOp):
            continue
        if isinstance(s, IMark):
            out.add(s)
            continue
        if isinstance(s, WrTmp):
            data = b.subst(s.data)
            if b.uses.get(s.tmp, 0) == 1:
                b.pending[s.tmp] = data
            else:
                out.add(WrTmp(s.tmp, data))
            continue
        if isinstance(s, Put):
            # Pending expressions containing GETs of the state this PUT
            # overwrites would read the *new* value if substituted later;
            # materialise exactly those.
            size = sb.type_of(s.data).size
            for tmp in list(b.pending):
                if _contains_get_overlapping(b.pending[tmp], s.offset, size):
                    out.add(WrTmp(tmp, b.pending.pop(tmp)))
            out.add(Put(s.offset, b.subst(s.data)))
            continue
        if isinstance(s, Store):
            data = b.subst(s.data)
            addr = b.subst(s.addr)
            for stmt in b.flush_loads():
                out.add(stmt)
            out.add(Store(addr, data))
            continue
        if isinstance(s, Exit):
            guard = b.subst(s.guard)
            for stmt in b.flush_all():
                out.add(stmt)
            out.add(Exit(guard, s.dst, s.jumpkind))
            continue
        if isinstance(s, Dirty):
            args = tuple(b.subst(a) for a in s.args)
            guard = b.subst(s.guard) if s.guard is not None else None
            mem_fx = tuple(MemFx(m.write, b.subst(m.addr), m.size) for m in s.mem_fx)
            for stmt in b.flush_all():
                out.add(stmt)
            out.add(Dirty(s.callee, args, guard=guard, tmp=s.tmp, retty=s.retty,
                          state_fx=s.state_fx, mem_fx=mem_fx))
            continue
        raise TypeError(f"cannot tree-build {s!r}")
    out.next = b.subst(sb.next) if sb.next is not None else None
    for stmt in b.flush_all():
        out.add(stmt)
    return out
