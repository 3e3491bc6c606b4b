"""IR sanity checking: type checking and flatness checking.

Running the validator after every pipeline phase is cheap insurance; the
paper notes that D&R is "more verifiable" because IR errors cause visibly
wrong behaviour — a validator catches most of them before they run.
"""

from __future__ import annotations

from typing import Optional, Set

from .block import IRSB, IRTypeError
from .expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop
from .ops import get_op
from .stmt import Dirty, Exit, IMark, NoOp, Put, Stmt, Store, WrTmp
from .types import Ty, fits


class IRFlatnessError(Exception):
    """Raised when supposedly-flat IR contains nested expressions."""


def typecheck_expr(sb: IRSB, e: Expr) -> Ty:
    """Type check an expression, returning its type."""
    if isinstance(e, Const):
        if not fits(e.ty, e.value):
            raise IRTypeError(f"bad constant {e.value!r}:{e.ty}")
        return e.ty
    if isinstance(e, RdTmp):
        return sb.type_of_tmp(e.tmp)
    if isinstance(e, Get):
        if e.offset < 0:
            raise IRTypeError(f"negative GET offset {e.offset}")
        return e.ty
    if isinstance(e, Load):
        addr_ty = typecheck_expr(sb, e.addr)
        if addr_ty is not Ty.I32:
            raise IRTypeError(f"load address has type {addr_ty}, expected I32")
        return e.ty
    if isinstance(e, Unop):
        op = get_op(e.op)
        got = typecheck_expr(sb, e.arg)
        if got is not op.args[0]:
            raise IRTypeError(f"{e.op}: arg has type {got}, expected {op.args[0]}")
        return op.ret
    if isinstance(e, Binop):
        op = get_op(e.op)
        got1 = typecheck_expr(sb, e.arg1)
        got2 = typecheck_expr(sb, e.arg2)
        if (got1, got2) != op.args:
            raise IRTypeError(
                f"{e.op}: args have types ({got1},{got2}), expected {op.args}"
            )
        return op.ret
    if isinstance(e, ITE):
        if typecheck_expr(sb, e.cond) is not Ty.I1:
            raise IRTypeError("ITE condition must be I1")
        t1 = typecheck_expr(sb, e.iftrue)
        t2 = typecheck_expr(sb, e.iffalse)
        if t1 is not t2:
            raise IRTypeError(f"ITE branches disagree: {t1} vs {t2}")
        return t1
    if isinstance(e, CCall):
        for a in e.args:
            typecheck_expr(sb, a)
        return e.ty
    raise IRTypeError(f"unknown expression node {e!r}")


def typecheck(sb: IRSB) -> None:
    """Type check a whole superblock.

    Also enforces SSA form: each temporary is written at most once and is
    written before any read (in statement order).
    """
    written: Set[int] = set()

    def check_reads(e: Expr) -> None:
        if isinstance(e, RdTmp) and e.tmp not in written:
            raise IRTypeError(f"t{e.tmp} read before write")
        for c in e.children():
            check_reads(c)

    for s in sb.stmts:
        if isinstance(s, (NoOp, IMark)):
            continue
        if isinstance(s, WrTmp):
            check_reads(s.data)
            got = typecheck_expr(sb, s.data)
            want = sb.type_of_tmp(s.tmp)
            if got is not want:
                raise IRTypeError(f"t{s.tmp}: assigned {got}, declared {want}")
            if s.tmp in written:
                raise IRTypeError(f"t{s.tmp} written more than once (SSA violation)")
            written.add(s.tmp)
        elif isinstance(s, Put):
            check_reads(s.data)
            typecheck_expr(sb, s.data)
        elif isinstance(s, Store):
            check_reads(s.addr)
            check_reads(s.data)
            if typecheck_expr(sb, s.addr) is not Ty.I32:
                raise IRTypeError("store address must be I32")
            typecheck_expr(sb, s.data)
        elif isinstance(s, Exit):
            check_reads(s.guard)
            if typecheck_expr(sb, s.guard) is not Ty.I1:
                raise IRTypeError("exit guard must be I1")
        elif isinstance(s, Dirty):
            if s.guard is not None:
                check_reads(s.guard)
                if typecheck_expr(sb, s.guard) is not Ty.I1:
                    raise IRTypeError("dirty guard must be I1")
            for a in s.args:
                check_reads(a)
                typecheck_expr(sb, a)
            for fx in s.mem_fx:
                check_reads(fx.addr)
                typecheck_expr(sb, fx.addr)
            if (s.tmp is None) != (s.retty is None):
                raise IRTypeError("dirty tmp and retty must be set together")
            if s.tmp is not None:
                if sb.type_of_tmp(s.tmp) is not s.retty:
                    raise IRTypeError("dirty return type mismatch")
                if s.tmp in written:
                    raise IRTypeError(f"t{s.tmp} written more than once")
                written.add(s.tmp)
        else:
            raise IRTypeError(f"unknown statement {s!r}")
    if sb.next is None:
        raise IRTypeError("block has no next expression")
    check_reads(sb.next)
    if typecheck_expr(sb, sb.next) is not Ty.I32:
        raise IRTypeError("next expression must be I32 (a guest address)")


def _flat_operand(e: Expr) -> bool:
    return e.is_atom()


def check_flat_expr(e: Expr) -> None:
    """A flat expression has only atoms (Const/RdTmp) as operands."""
    for c in e.children():
        if not _flat_operand(c):
            raise IRFlatnessError(f"nested expression operand: {c!r} inside {e!r}")


def check_flat(sb: IRSB) -> None:
    """Check that a block is in flat form.

    Flat form: every statement's expressions have atom operands, and the
    statement-level expressions themselves are at most one operation deep.
    PUT/Store data and addresses must be atoms (this is what makes
    instrumentation easy — every intermediate value is nameable).
    """
    for s in sb.stmts:
        if isinstance(s, WrTmp):
            check_flat_expr(s.data)
        elif isinstance(s, Put):
            if not s.data.is_atom():
                raise IRFlatnessError(f"PUT data not an atom: {s!r}")
        elif isinstance(s, Store):
            if not s.addr.is_atom() or not s.data.is_atom():
                raise IRFlatnessError(f"store operands not atoms: {s!r}")
        elif isinstance(s, Exit):
            if not s.guard.is_atom():
                raise IRFlatnessError(f"exit guard not an atom: {s!r}")
        elif isinstance(s, Dirty):
            for a in s.args:
                if not a.is_atom():
                    raise IRFlatnessError(f"dirty arg not an atom: {s!r}")
            if s.guard is not None and not s.guard.is_atom():
                raise IRFlatnessError(f"dirty guard not an atom: {s!r}")
            for fx in s.mem_fx:
                if not fx.addr.is_atom():
                    raise IRFlatnessError(f"dirty mem-fx addr not an atom: {s!r}")
    if sb.next is not None and not sb.next.is_atom():
        raise IRFlatnessError(f"next not an atom: {sb.next!r}")


def validate(sb: IRSB, *, flat: bool = False) -> None:
    """Full validation: typecheck, SSA check, and optionally flatness."""
    typecheck(sb)
    if flat:
        check_flat(sb)
