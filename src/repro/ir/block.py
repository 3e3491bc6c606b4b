"""IR superblocks (IRSBs).

An IRSB is a single-entry, multiple-exit stretch of code: a type
environment for its temporaries, a statement list, and a final "next"
expression plus jump kind describing where control flows on fall-through.
Side exits in the middle are `Exit` statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .expr import (
    Binop,
    CCall,
    Const,
    Expr,
    Get,
    ITE,
    Load,
    RdTmp,
    Unop,
)
from .ops import get_op
from .stmt import Dirty, Exit, IMark, NoOp, Put, Stmt, Store, WrTmp
from .types import Ty


class IRTypeError(Exception):
    """Raised when an IR block fails type checking."""


@dataclass
class IRSB:
    """A superblock of IR."""

    stmts: List[Stmt] = field(default_factory=list)
    tyenv: Dict[int, Ty] = field(default_factory=dict)
    next: Optional[Expr] = None
    jumpkind: "JumpKind" = None  # type: ignore[assignment]
    #: Guest address this block was translated from (for diagnostics).
    guest_addr: int = 0

    def __post_init__(self) -> None:
        if self.jumpkind is None:
            from .stmt import JumpKind

            self.jumpkind = JumpKind.Boring

    # -- temporary management ------------------------------------------------

    def new_tmp(self, ty: Ty) -> int:
        """Allocate a fresh temporary of type *ty* and return its index."""
        t = len(self.tyenv)
        while t in self.tyenv:  # be robust to sparse tyenvs after copying
            t += 1
        self.tyenv[t] = ty
        return t

    def type_of_tmp(self, tmp: int) -> Ty:
        try:
            return self.tyenv[tmp]
        except KeyError:
            raise IRTypeError(f"t{tmp} not in type environment") from None

    def type_of(self, e: Expr) -> Ty:
        """Compute the type of an expression in this block's environment."""
        if isinstance(e, Const):
            return e.ty
        if isinstance(e, RdTmp):
            return self.type_of_tmp(e.tmp)
        if isinstance(e, Get):
            return e.ty
        if isinstance(e, Load):
            return e.ty
        if isinstance(e, Unop):
            return get_op(e.op).ret
        if isinstance(e, Binop):
            return get_op(e.op).ret
        if isinstance(e, ITE):
            return self.type_of(e.iftrue)
        if isinstance(e, CCall):
            return e.ty
        raise IRTypeError(f"cannot type {e!r}")

    # -- convenience emitters ------------------------------------------------

    def add(self, stmt: Stmt) -> None:
        self.stmts.append(stmt)

    def assign_new(self, e: Expr) -> RdTmp:
        """Emit ``tN = e`` for a fresh tN and return ``RdTmp(tN)``."""
        t = self.new_tmp(self.type_of(e))
        self.add(WrTmp(t, e))
        return RdTmp(t)

    # -- inspection ----------------------------------------------------------

    def iter_exprs(self) -> Iterator[Expr]:
        """Yield every top-level expression appearing in the block."""
        for s in self.stmts:
            if isinstance(s, Put):
                yield s.data
            elif isinstance(s, WrTmp):
                yield s.data
            elif isinstance(s, Store):
                yield s.addr
                yield s.data
            elif isinstance(s, Exit):
                yield s.guard
            elif isinstance(s, Dirty):
                if s.guard is not None:
                    yield s.guard
                yield from s.args
                for fx in s.mem_fx:
                    yield fx.addr
        if self.next is not None:
            yield self.next

    def num_real_stmts(self) -> int:
        """Statements excluding NoOps (the paper counts statements this way)."""
        return sum(1 for s in self.stmts if not isinstance(s, NoOp))

    def copy(self) -> "IRSB":
        """Shallow-ish copy: fresh lists/dicts, shared immutable nodes."""
        sb = IRSB(
            stmts=list(self.stmts),
            tyenv=dict(self.tyenv),
            next=self.next,
            jumpkind=self.jumpkind,
            guest_addr=self.guest_addr,
        )
        return sb
