"""IR expressions.

Expressions are pure (side-effect free) value computations: constants,
temporary reads, guest-state reads (GET), memory loads, applications of
primitive ops, if-then-else, and calls to pure C helper functions.

In *tree IR* expressions may be arbitrarily nested trees; in *flat IR*
every operand of a non-trivial expression must be an atom (a constant or a
temporary read).  The same classes serve both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from .ops import IROp, get_op
from .types import Ty, fits


class Expr:
    """Base class for IR expressions."""

    __slots__ = ()

    def is_atom(self) -> bool:
        """An atom is a constant or a temporary read (flat-IR operand)."""
        return isinstance(self, (Const, RdTmp))

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A typed literal constant."""

    ty: Ty
    value: object

    def __post_init__(self) -> None:
        if not fits(self.ty, self.value):
            raise ValueError(f"constant {self.value!r} does not fit {self.ty}")


@dataclass(frozen=True)
class RdTmp(Expr):
    """Read of an SSA temporary."""

    tmp: int


@dataclass(frozen=True)
class Get(Expr):
    """Read of the guest state (ThreadState) at a byte offset."""

    offset: int
    ty: Ty


@dataclass(frozen=True)
class Load(Expr):
    """Little-endian load of *ty* from guest memory at address *addr*."""

    ty: Ty
    addr: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr,)


@dataclass(frozen=True)
class Unop(Expr):
    """Application of a 1-ary primitive op."""

    op: str
    arg: Expr

    def __post_init__(self) -> None:
        if get_op(self.op).arity != 1:
            raise ValueError(f"{self.op} is not a unop")

    @property
    def irop(self) -> IROp:
        return get_op(self.op)

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class Binop(Expr):
    """Application of a 2-ary primitive op."""

    op: str
    arg1: Expr
    arg2: Expr

    def __post_init__(self) -> None:
        if get_op(self.op).arity != 2:
            raise ValueError(f"{self.op} is not a binop")

    @property
    def irop(self) -> IROp:
        return get_op(self.op)

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg1, self.arg2)


@dataclass(frozen=True)
class ITE(Expr):
    """If-then-else: ``cond ? iftrue : iffalse`` with an I1 condition."""

    cond: Expr
    iftrue: Expr
    iffalse: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.iftrue, self.iffalse)


@dataclass(frozen=True)
class CCall(Expr):
    """Call to a *pure* helper function returning a value of type *ty*.

    The callee is identified by name and looked up in the helper registry at
    execution time; ``regparms_read`` lists (offset, size) pairs of guest
    state the helper reads, so instrumenters can see through the call (this
    is how platform-specific condition-code helpers stay analysable).
    """

    ty: Ty
    callee: str
    args: Tuple[Expr, ...]
    regparms_read: Tuple[Tuple[int, int], ...] = ()

    def children(self) -> Tuple[Expr, ...]:
        return self.args


def const(ty: Ty, value: object) -> Const:
    """Convenience constructor masking integer constants to width."""
    if ty.is_int and isinstance(value, int):
        value &= ty.mask
    return Const(ty, value)


def c32(value: int) -> Const:
    return const(Ty.I32, value)


def c8(value: int) -> Const:
    return const(Ty.I8, value)


def c1(value: int) -> Const:
    return const(Ty.I1, value)


def c64(value: int) -> Const:
    return const(Ty.I64, value)


def walk(e: Expr, visit: Callable[[Expr], None]) -> None:
    """Pre-order traversal of an expression tree."""
    visit(e)
    for child in e.children():
        walk(child, visit)


def expr_size(e: Expr) -> int:
    """Number of nodes in the expression tree."""
    n = 1
    for child in e.children():
        n += expr_size(child)
    return n
