"""An IR interpreter.

This is the executable semantics of the IR.  The rest of the system — the
disassembler, the optimisation passes, and the whole JIT back-end — is
tested against it: any transformation must leave a block's observable
behaviour (guest state, memory, helper calls, successor address) unchanged
under this interpreter.

It is also used directly by the copy-free "IR-interpreting" execution mode,
which is handy for differential testing of the compiled path.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple

from .block import IRSB
from .expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop
from .helpers import HelperRegistry
from .ops import get_op
from .stmt import Dirty, Exit, IMark, JumpKind, NoOp, Put, Store, WrTmp
from .types import Ty
from .values import from_bytes, to_bytes


class GuestStateAccess(Protocol):
    """What the interpreter needs from its environment."""

    def get(self, offset: int, ty: Ty) -> object: ...

    def put(self, offset: int, ty: Ty, value: object) -> None: ...

    def load(self, addr: int, ty: Ty) -> object: ...

    def store(self, addr: int, ty: Ty, value: object) -> None: ...


class ByteState:
    """A simple byte-array-backed guest state + flat memory, for testing."""

    def __init__(self, state_size: int = 1024, mem_size: int = 1 << 16) -> None:
        self.state = bytearray(state_size)
        self.mem = bytearray(mem_size)

    def get(self, offset: int, ty: Ty) -> object:
        return from_bytes(ty, bytes(self.state[offset : offset + ty.size]))

    def put(self, offset: int, ty: Ty, value: object) -> None:
        self.state[offset : offset + ty.size] = to_bytes(ty, value)

    def load(self, addr: int, ty: Ty) -> object:
        addr %= len(self.mem)
        return from_bytes(ty, bytes(self.mem[addr : addr + ty.size]))

    def store(self, addr: int, ty: Ty, value: object) -> None:
        addr %= len(self.mem)
        self.mem[addr : addr + ty.size] = to_bytes(ty, value)


class IRInterpreter:
    """Executes IR superblocks against a guest-state/memory environment."""

    def __init__(self, helpers: Optional[HelperRegistry] = None, env: object = None):
        self.helpers = helpers or HelperRegistry()
        #: Opaque environment handed to dirty helpers as first argument.
        self.env = env if env is not None else self

    # -- expression evaluation ----------------------------------------------

    def eval_expr(self, e: Expr, tmps: Dict[int, object], state: GuestStateAccess) -> object:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, RdTmp):
            try:
                return tmps[e.tmp]
            except KeyError:
                raise RuntimeError(f"t{e.tmp} used before definition") from None
        if isinstance(e, Get):
            return state.get(e.offset, e.ty)
        if isinstance(e, Load):
            addr = self.eval_expr(e.addr, tmps, state)
            return state.load(addr, e.ty)
        if isinstance(e, Unop):
            return get_op(e.op).apply(self.eval_expr(e.arg, tmps, state))
        if isinstance(e, Binop):
            return get_op(e.op).apply(
                self.eval_expr(e.arg1, tmps, state),
                self.eval_expr(e.arg2, tmps, state),
            )
        if isinstance(e, ITE):
            cond = self.eval_expr(e.cond, tmps, state)
            branch = e.iftrue if cond else e.iffalse
            return self.eval_expr(branch, tmps, state)
        if isinstance(e, CCall):
            h = self.helpers.lookup(e.callee)
            if not h.pure:
                raise RuntimeError(f"CCall to non-pure helper {e.callee}")
            args = [self.eval_expr(a, tmps, state) for a in e.args]
            return h.fn(*args)
        raise RuntimeError(f"cannot evaluate {e!r}")

    # -- block execution -----------------------------------------------------

    def run_block(
        self, sb: IRSB, state: GuestStateAccess
    ) -> Tuple[int, JumpKind, int]:
        """Execute *sb*; return (next guest address, jump kind, IMarks
        reached) — the last counts the guest instructions the execution
        completed, a taken side exit's own instruction included."""
        tmps: Dict[int, object] = {}
        icnt = 0
        for s in sb.stmts:
            if isinstance(s, IMark):
                icnt += 1
                continue
            if isinstance(s, NoOp):
                continue
            if isinstance(s, WrTmp):
                tmps[s.tmp] = self.eval_expr(s.data, tmps, state)
            elif isinstance(s, Put):
                ty = sb.type_of(s.data)
                state.put(s.offset, ty, self.eval_expr(s.data, tmps, state))
            elif isinstance(s, Store):
                addr = self.eval_expr(s.addr, tmps, state)
                ty = sb.type_of(s.data)
                state.store(addr, ty, self.eval_expr(s.data, tmps, state))
            elif isinstance(s, Exit):
                if self.eval_expr(s.guard, tmps, state):
                    return s.dst, s.jumpkind, icnt
            elif isinstance(s, Dirty):
                if s.guard is not None and not self.eval_expr(s.guard, tmps, state):
                    continue
                h = self.helpers.lookup(s.callee)
                args = [self.eval_expr(a, tmps, state) for a in s.args]
                ret = h.fn(*args) if h.pure else h.fn(self.env, *args)
                if s.tmp is not None:
                    tmps[s.tmp] = ret
            else:
                raise RuntimeError(f"cannot execute {s!r}")
        nxt = self.eval_expr(sb.next, tmps, state)
        return nxt, sb.jumpkind, icnt
