"""Phase 2: the main IR optimisation pass (tree IR → optimised flat IR).

Performs, in order (Section 3.7):

* flattening,
* redundant GET elimination (forwarding known guest-state values),
* copy and constant propagation and constant folding,
* partial evaluation of platform-specific helper calls via a *spec*
  callback (used to optimise the condition-code handling),
* common sub-expression elimination,
* redundant PUT elimination (respecting precise exceptions: a PUT may only
  be removed if the offset is overwritten again before any statement that
  could raise a memory exception — see the Figure 1 discussion of the
  ``%eip`` PUT),
* dead code removal, and
* simple unrolling of intra-block self-loops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..ir.block import IRSB
from ..ir.expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop, c32
from ..ir.ops import get_op
from ..ir.stmt import (
    Dirty, Exit, IMark, JumpKind, MemFx, NoOp, Put, Stmt, Store, WrTmp,
)
from ..ir.types import Ty
from .flatten import flatten

#: Ops excluded from folding/CSE because their semantics can trap.
_TRAPPING_OPS = frozenset(
    name for name in ("DivU32", "DivS32", "ModU32", "ModS32", "DivU64", "DivS64",
                      "ModU64", "ModS64")
)

SpecHelper = Callable[[str, Sequence[Expr]], Optional[Expr]]


# ---------------------------------------------------------------------------
# Forward pass: copy/const propagation, constant folding, GET forwarding,
# spec-helper partial evaluation.
# ---------------------------------------------------------------------------


def _fold_identities(e: Expr) -> Expr:
    """Algebraic identities on integer ops (after operand substitution)."""
    if not isinstance(e, Binop):
        return e
    op = e.op
    a, b = e.arg1, e.arg2
    bz = isinstance(b, Const) and not b.ty.is_float and b.value == 0
    az = isinstance(a, Const) and not a.ty.is_float and a.value == 0
    if op.startswith(("Add", "Or", "Xor")) and op[-1].isdigit():
        if bz:
            return a
        if az:
            return b
    if op.startswith("Sub") and op[-1].isdigit() and bz:
        return a
    if op.startswith(("Shl", "Shr", "Sar")) and isinstance(b, Const) and b.value == 0:
        return a
    if op.startswith("Mul") and op[-1].isdigit():
        if isinstance(b, Const) and b.value == 1:
            return a
        if isinstance(a, Const) and a.value == 1:
            return b
    if op.startswith("And") and op[-1].isdigit():
        ty = get_op(op).ret
        if isinstance(b, Const) and b.value == ty.mask:
            return a
        if isinstance(a, Const) and a.value == ty.mask:
            return b
    if (
        op in ("Xor32", "Xor64", "Xor16", "Xor8", "Sub32", "Sub64", "Sub16", "Sub8")
        and isinstance(a, RdTmp)
        and isinstance(b, RdTmp)
        and a.tmp == b.tmp
    ):
        return Const(get_op(op).ret, 0)
    return e


def _try_fold(e: Expr) -> Expr:
    """Constant-fold an expression whose operands are already substituted."""
    if isinstance(e, Unop) and isinstance(e.arg, Const):
        try:
            return Const(get_op(e.op).ret, get_op(e.op).apply(e.arg.value))
        except (ZeroDivisionError, ValueError, OverflowError):
            return e
    if isinstance(e, Binop):
        if (
            isinstance(e.arg1, Const)
            and isinstance(e.arg2, Const)
            and e.op not in _TRAPPING_OPS
        ):
            try:
                return Const(
                    get_op(e.op).ret, get_op(e.op).apply(e.arg1.value, e.arg2.value)
                )
            except (ZeroDivisionError, ValueError, OverflowError):
                return e
        return _fold_identities(e)
    if isinstance(e, ITE) and isinstance(e.cond, Const):
        return e.iftrue if e.cond.value else e.iffalse
    return e


class _StateEnv:
    """Tracks known guest-state contents (offset/type -> atom) forwards."""

    def __init__(self) -> None:
        self._known: Dict[Tuple[int, Ty], Expr] = {}

    def invalidate(self, offset: int, size: int) -> None:
        dead = [
            key
            for key in self._known
            if key[0] < offset + size and offset < key[0] + key[1].size
        ]
        for key in dead:
            del self._known[key]

    def record_put(self, offset: int, ty: Ty, atom: Expr) -> None:
        self.invalidate(offset, ty.size)
        self._known[(offset, ty)] = atom

    def record_get(self, offset: int, ty: Ty, atom: Expr) -> None:
        self._known.setdefault((offset, ty), atom)

    def lookup(self, offset: int, ty: Ty) -> Optional[Expr]:
        return self._known.get((offset, ty))


def forward_pass(sb: IRSB, spec_helper: Optional[SpecHelper] = None) -> IRSB:
    """One forward rewriting pass over a flat block.

    Besides propagation and folding, ``CmpNEZ32(1Uto32(x))`` becomes
    ``x``: the spec helper widens each condition to I32 and the front end
    tests it against zero again, which would cost every conditional exit
    a host instruction.
    """
    out = IRSB(
        tyenv=dict(sb.tyenv),
        jumpkind=sb.jumpkind,
        guest_addr=sb.guest_addr,
    )
    env: Dict[int, Expr] = {}  # tmp -> atom substitution
    state = _StateEnv()
    #: tmp -> x for tmps bound to 1Uto32(x): CmpNEZ32 of one is x.
    widened: Dict[int, Expr] = {}

    def unop(op: str, arg: Expr) -> Expr:
        if op == "CmpNEZ32" and isinstance(arg, RdTmp) and arg.tmp in widened:
            return widened[arg.tmp]
        return _try_fold(Unop(op, arg))

    def bind(tmp: int, data: Expr) -> None:
        out.add(WrTmp(tmp, data))
        if isinstance(data, Unop) and data.op == "1Uto32":
            widened[tmp] = data.arg

    def subst(e: Expr) -> Expr:
        if isinstance(e, RdTmp):
            return env.get(e.tmp, e)
        if isinstance(e, Const):
            return e
        if isinstance(e, Get):
            return e
        if isinstance(e, Load):
            return Load(e.ty, subst(e.addr))
        if isinstance(e, Unop):
            return unop(e.op, subst(e.arg))
        if isinstance(e, Binop):
            return _try_fold(Binop(e.op, subst(e.arg1), subst(e.arg2)))
        if isinstance(e, ITE):
            return _try_fold(ITE(subst(e.cond), subst(e.iftrue), subst(e.iffalse)))
        if isinstance(e, CCall):
            return CCall(e.ty, e.callee, tuple(subst(a) for a in e.args),
                         e.regparms_read)
        raise TypeError(f"cannot substitute in {e!r}")

    def emit_tree(e: Expr) -> Expr:
        """Emit a (possibly tree-shaped) spec result as flat statements."""
        if isinstance(e, (Const, RdTmp)):
            return e
        if isinstance(e, Unop):
            e = unop(e.op, emit_tree(e.arg))
        elif isinstance(e, Binop):
            e = _try_fold(Binop(e.op, emit_tree(e.arg1), emit_tree(e.arg2)))
        elif isinstance(e, ITE):
            e = _try_fold(ITE(emit_tree(e.cond), emit_tree(e.iftrue),
                              emit_tree(e.iffalse)))
        if isinstance(e, (Const, RdTmp)):
            return e
        t = out.new_tmp(out.type_of(e))
        bind(t, e)
        return RdTmp(t)

    for s in sb.stmts:
        if isinstance(s, (NoOp, IMark)):
            out.add(s)
            continue
        if isinstance(s, WrTmp):
            data = subst(s.data)
            if isinstance(s.data, Get):
                known = state.lookup(s.data.offset, s.data.ty)
                if known is not None:
                    data = known
                else:
                    state.record_get(s.data.offset, s.data.ty, RdTmp(s.tmp))
            if isinstance(data, CCall) and spec_helper is not None:
                replacement = spec_helper(data.callee, data.args)
                if replacement is not None:
                    data = emit_tree(replacement)
            if isinstance(data, (Const, RdTmp)):
                # The assignment itself becomes dead; DCE will confirm.
                env[s.tmp] = data
            bind(s.tmp, data)
            continue
        if isinstance(s, Put):
            data = subst(s.data)
            ty = out.type_of(data)
            state.record_put(s.offset, ty, data if isinstance(data, (Const, RdTmp)) else data)
            out.add(Put(s.offset, data))
            continue
        if isinstance(s, Store):
            out.add(Store(subst(s.addr), subst(s.data)))
            continue
        if isinstance(s, Exit):
            guard = subst(s.guard)
            if isinstance(guard, Const):
                if guard.value == 0:
                    continue  # never taken
                # Always taken: the rest of the block is unreachable.
                out.next = c32(s.dst)
                out.jumpkind = s.jumpkind
                return out
            out.add(Exit(guard, s.dst, s.jumpkind))
            continue
        if isinstance(s, Dirty):
            guard = subst(s.guard) if s.guard is not None else None
            if isinstance(guard, Const) and guard.value == 0 and s.tmp is None:
                continue  # guarded off and returns nothing: drop entirely
            args = tuple(subst(a) for a in s.args)
            mem_fx = tuple(MemFx(m.write, subst(m.addr), m.size) for m in s.mem_fx)
            for fx in s.state_fx:
                if fx.write:
                    state.invalidate(fx.offset, fx.size)
            out.add(Dirty(s.callee, args, guard=guard, tmp=s.tmp, retty=s.retty,
                          state_fx=s.state_fx, mem_fx=mem_fx))
            continue
        raise TypeError(f"unknown statement {s!r}")
    out.next = subst(sb.next) if sb.next is not None else None
    return out


# ---------------------------------------------------------------------------
# Common sub-expression elimination.
# ---------------------------------------------------------------------------


def _atom_key(e: Expr):
    if isinstance(e, RdTmp):
        return ("t", e.tmp)
    if isinstance(e, Const):
        return ("c", e.ty, e.value if not e.ty.is_float else repr(e.value))
    return None


def cse(sb: IRSB) -> IRSB:
    """Forward CSE over pure, non-trapping operations on atoms."""
    seen: Dict[tuple, int] = {}
    out = sb.copy()
    stmts: List[Stmt] = []
    for s in out.stmts:
        if isinstance(s, WrTmp):
            key = None
            e = s.data
            if isinstance(e, Unop) and e.op not in _TRAPPING_OPS:
                a = _atom_key(e.arg)
                if a is not None:
                    key = ("u", e.op, a)
            elif isinstance(e, Binop) and e.op not in _TRAPPING_OPS:
                a1, a2 = _atom_key(e.arg1), _atom_key(e.arg2)
                if a1 is not None and a2 is not None:
                    key = ("b", e.op, a1, a2)
            elif isinstance(e, ITE):
                ks = tuple(_atom_key(x) for x in (e.cond, e.iftrue, e.iffalse))
                if all(k is not None for k in ks):
                    key = ("i",) + ks
            if key is not None:
                prev = seen.get(key)
                if prev is not None:
                    stmts.append(WrTmp(s.tmp, RdTmp(prev)))
                    continue
                seen[key] = s.tmp
        stmts.append(s)
    out.stmts = stmts
    return out


# ---------------------------------------------------------------------------
# Redundant PUT elimination (backwards, precise-exception aware).
# ---------------------------------------------------------------------------


def _expr_observes(e: Expr) -> Tuple[Set[int], bool]:
    """Return (state bytes read, may-fault) for an expression."""
    reads: Set[int] = set()
    faults = False

    def walk(x: Expr) -> None:
        nonlocal faults
        if isinstance(x, Get):
            reads.update(range(x.offset, x.offset + x.ty.size))
        elif isinstance(x, Load):
            faults = True
        elif isinstance(x, CCall):
            for off, size in x.regparms_read:
                reads.update(range(off, off + size))
        for c in x.children():
            walk(c)

    walk(e)
    return reads, faults


def redundant_put_elim(sb: IRSB) -> IRSB:
    """Remove PUTs that are certainly overwritten before being observable."""
    out = sb.copy()
    overwritten: Set[int] = set()
    new_stmts: List[Stmt] = list(out.stmts)

    def observe_expr(e: Expr) -> None:
        reads, faults = _expr_observes(e)
        if faults:
            overwritten.clear()
        else:
            overwritten.difference_update(reads)

    # The block end makes everything observable, so start empty.
    if out.next is not None:
        pass
    for i in range(len(new_stmts) - 1, -1, -1):
        s = new_stmts[i]
        if isinstance(s, (NoOp, IMark)):
            continue
        if isinstance(s, Put):
            data = s.data
            span = range(s.offset, s.offset + out.type_of(data).size)
            if all(b in overwritten for b in span):
                new_stmts[i] = NoOp()
                continue
            observe_expr(data)
            overwritten.update(span)
            continue
        if isinstance(s, WrTmp):
            observe_expr(s.data)
            continue
        if isinstance(s, Store):
            # A store can fault, making all state observable at this point.
            overwritten.clear()
            continue
        if isinstance(s, (Exit, Dirty)):
            # Side exits leave the block; dirty helpers may read anything.
            overwritten.clear()
            continue
        raise TypeError(f"unknown statement {s!r}")
    out.stmts = new_stmts
    return out


# ---------------------------------------------------------------------------
# Dead code elimination (backwards).
# ---------------------------------------------------------------------------


def _expr_tmps(e: Expr, into: Set[int]) -> None:
    if isinstance(e, RdTmp):
        into.add(e.tmp)
    for c in e.children():
        _expr_tmps(c, into)


def dead_code(sb: IRSB) -> IRSB:
    """Remove assignments to temporaries that are never used."""
    out = sb.copy()
    needed: Set[int] = set()
    if out.next is not None:
        _expr_tmps(out.next, needed)
    new_stmts: List[Stmt] = list(out.stmts)
    for i in range(len(new_stmts) - 1, -1, -1):
        s = new_stmts[i]
        if isinstance(s, WrTmp):
            if s.tmp not in needed:
                new_stmts[i] = NoOp()
            else:
                _expr_tmps(s.data, needed)
        elif isinstance(s, Put):
            _expr_tmps(s.data, needed)
        elif isinstance(s, Store):
            _expr_tmps(s.addr, needed)
            _expr_tmps(s.data, needed)
        elif isinstance(s, Exit):
            _expr_tmps(s.guard, needed)
        elif isinstance(s, Dirty):
            if s.guard is not None:
                _expr_tmps(s.guard, needed)
            for a in s.args:
                _expr_tmps(a, needed)
            for m in s.mem_fx:
                _expr_tmps(m.addr, needed)
    out.stmts = [s for s in new_stmts if not isinstance(s, NoOp)]
    return out


# ---------------------------------------------------------------------------
# Intra-block self-loop unrolling.
# ---------------------------------------------------------------------------


def _rename_expr(e: Expr, delta: int) -> Expr:
    if isinstance(e, RdTmp):
        return RdTmp(e.tmp + delta)
    if isinstance(e, (Const, Get)):
        return e
    if isinstance(e, Load):
        return Load(e.ty, _rename_expr(e.addr, delta))
    if isinstance(e, Unop):
        return Unop(e.op, _rename_expr(e.arg, delta))
    if isinstance(e, Binop):
        return Binop(e.op, _rename_expr(e.arg1, delta), _rename_expr(e.arg2, delta))
    if isinstance(e, ITE):
        return ITE(
            _rename_expr(e.cond, delta),
            _rename_expr(e.iftrue, delta),
            _rename_expr(e.iffalse, delta),
        )
    if isinstance(e, CCall):
        return CCall(e.ty, e.callee, tuple(_rename_expr(a, delta) for a in e.args),
                     e.regparms_read)
    raise TypeError(f"cannot rename {e!r}")


def unroll_self_loop(sb: IRSB, *, max_stmts: int = 40) -> IRSB:
    """Unroll a block that jumps straight back to its own start, once.

    This is the "simple loop unrolling for intra-block loops" of Phase 2.
    """
    from ..guest.regs import OFFSET_PC

    if not (
        isinstance(sb.next, Const)
        and sb.next.value == sb.guest_addr
        and sb.jumpkind is JumpKind.Boring
        and sb.num_real_stmts() <= max_stmts
        and sb.tyenv
    ):
        return sb
    out = sb.copy()
    delta = (max(out.tyenv) + 1) if out.tyenv else 0
    for tmp, ty in list(sb.tyenv.items()):
        out.tyenv[tmp + delta] = ty
    out.add(Put(OFFSET_PC, c32(sb.guest_addr)))
    for s in sb.stmts:
        if isinstance(s, (NoOp, IMark)):
            out.add(s)
        elif isinstance(s, WrTmp):
            out.add(WrTmp(s.tmp + delta, _rename_expr(s.data, delta)))
        elif isinstance(s, Put):
            out.add(Put(s.offset, _rename_expr(s.data, delta)))
        elif isinstance(s, Store):
            out.add(Store(_rename_expr(s.addr, delta), _rename_expr(s.data, delta)))
        elif isinstance(s, Exit):
            out.add(Exit(_rename_expr(s.guard, delta), s.dst, s.jumpkind))
        elif isinstance(s, Dirty):
            out.add(
                Dirty(
                    s.callee,
                    tuple(_rename_expr(a, delta) for a in s.args),
                    guard=_rename_expr(s.guard, delta) if s.guard is not None else None,
                    tmp=(s.tmp + delta) if s.tmp is not None else None,
                    retty=s.retty,
                    state_fx=s.state_fx,
                    mem_fx=tuple(
                        MemFx(m.write, _rename_expr(m.addr, delta), m.size)
                        for m in s.mem_fx
                    ),
                )
            )
        else:
            raise TypeError(f"cannot unroll {s!r}")
    return out


# ---------------------------------------------------------------------------
# The whole Phase-2 pipeline.
# ---------------------------------------------------------------------------


def optimise1(
    sb: IRSB,
    *,
    spec_helper: Optional[SpecHelper] = None,
    unroll: bool = True,
) -> IRSB:
    """Run the full first optimisation phase (tree IR in, flat IR out)."""
    sb = flatten(sb)
    sb = forward_pass(sb, spec_helper)
    sb = cse(sb)
    sb = forward_pass(sb, spec_helper)
    sb = redundant_put_elim(sb)
    sb = dead_code(sb)
    if unroll:
        unrolled = unroll_self_loop(sb)
        if unrolled is not sb:
            unrolled = forward_pass(unrolled, spec_helper)
            unrolled = redundant_put_elim(unrolled)
            sb = dead_code(unrolled)
    return sb
