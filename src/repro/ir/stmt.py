"""IR statements and superblocks' jump kinds.

Statements are operations with side effects: guest-state writes (PUT),
memory stores, assignments to temporaries, dirty helper calls, conditional
side exits, and the no-op IMark markers that record original-instruction
boundaries for profiling tools.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import Expr
from .types import Ty


class JumpKind(enum.Enum):
    """Why control leaves a superblock."""

    Boring = "Boring"            # ordinary jump
    Call = "Call"                # function call
    Ret = "Ret"                  # function return
    Syscall = "Sys_syscall"      # system call trap
    LCall = "LCall"              # host library call trap (vx32 `lcall`)
    ClientReq = "ClientReq"      # client request trap-door
    Yield = "Yield"              # hint that a thread switch is acceptable
    NoDecode = "NoDecode"        # undecodable instruction reached
    SigSEGV = "SigSEGV"          # deliberate fault
    SigFPE = "SigFPE"            # arithmetic fault (division by zero)
    EmWarn = "EmWarn"            # emulation warning
    Exit = "Exit"                # guest program exit (vx32 `halt`)

    def __repr__(self) -> str:
        return f"JumpKind.{self.name}"


class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


@dataclass(frozen=True)
class NoOp(Stmt):
    """A no-op placeholder (optimisers replace dead statements with these)."""


@dataclass(frozen=True)
class IMark(Stmt):
    """Marks the start of a guest instruction: its address and byte length.

    IMarks let profiling tools see instruction boundaries even though the
    original instructions themselves are discarded (D&R).
    """

    addr: int
    length: int


@dataclass(frozen=True)
class Put(Stmt):
    """Write to the guest state (ThreadState) at a byte offset."""

    offset: int
    data: Expr


@dataclass(frozen=True)
class WrTmp(Stmt):
    """Assign an expression's value to an SSA temporary (exactly once)."""

    tmp: int
    data: Expr


@dataclass(frozen=True)
class Store(Stmt):
    """Little-endian store of *data* to guest memory at *addr*."""

    addr: Expr
    data: Expr


@dataclass(frozen=True)
class StateFx:
    """An annotation that a dirty helper reads/writes guest state.

    Pretty-printed ``RdFX-gst(offset,size)`` / ``WrFX-gst(offset,size)`` as
    in the paper's Figure 2.
    """

    write: bool
    offset: int
    size: int


@dataclass(frozen=True)
class MemFx:
    """An annotation that a dirty helper reads/writes guest memory."""

    write: bool
    addr: Expr
    size: int


@dataclass(frozen=True)
class Dirty(Stmt):
    """Call to an impure helper function.

    ``guard`` is an I1 expression; the call only happens when it is true
    (this is how Memcheck emits conditional error-reporting calls).  ``tmp``
    receives the return value, if any.  The state/memory effect annotations
    tell the framework which guest registers must be up-to-date in the
    ThreadState across the call, and let tools see the helper's footprint.
    """

    callee: str
    args: Tuple[Expr, ...]
    guard: Optional[Expr] = None
    tmp: Optional[int] = None
    retty: Optional[Ty] = None
    state_fx: Tuple[StateFx, ...] = ()
    mem_fx: Tuple[MemFx, ...] = ()


@dataclass(frozen=True)
class Exit(Stmt):
    """Conditional side exit: if *guard* holds, jump to constant *dst*.

    The target is always a constant.  A trace seam whose successor is a
    computed target exits through a host-level ``SIDEEXITR`` instead,
    which the trace splicer writes directly (core/traces.py).
    """

    guard: Expr
    dst: int
    jumpkind: JumpKind = JumpKind.Boring
