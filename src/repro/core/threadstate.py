"""Per-thread guest + shadow register state (Section 3.4).

Valgrind provides a block of memory per client thread called the
ThreadState.  Each one contains space for all the thread's guest and
shadow registers and is used to hold them at various times, in particular
between each code block.  Shadow registers are first-class: they live in
the same block, at ``offset + SHADOW_OFFSET``, and are GET/PUT exactly
like guest registers (requirement R1).
"""

from __future__ import annotations

import enum
import sys
from typing import List, Optional

from ..guest import regs as R
from ..ir.types import Ty
from ..ir.values import from_bytes, to_bytes

#: The guest ABI is little-endian; on a little-endian host a ``cast("I")``
#: memoryview over the state block reads/writes 4-byte slots directly.
_LE = sys.byteorder == "little"
_PC_IDX = R.OFFSET_PC // 4
#: Shadow call-stack depth cap (pathological recursion protection).
_CALLSTACK_MAX = 16384


class ThreadStatus(enum.Enum):
    EMPTY = "empty"          # slot unused
    RUNNABLE = "runnable"
    WAIT_SYS = "wait-sys"    # blocked in a system call
    WAIT_JOIN = "wait-join"  # blocked joining another thread
    ZOMBIE = "zombie"        # exited, not yet joined


class ThreadState:
    """One thread's register file (guest and shadow halves)."""

    def __init__(self, tid: int = 1):
        self.tid = tid
        self.data = bytearray(R.TOTAL_STATE_SIZE)
        #: Cached views over ``data`` (never reassigned, never resized):
        #: ``arch`` spans the architected half (one-copy fault snapshots),
        #: ``u32`` indexes aligned 4-byte slots without slicing (None on a
        #: big-endian host, where callers fall back to the generic path).
        self.arch = memoryview(self.data)[: R.GUEST_STATE_SIZE]
        self.u32 = memoryview(self.data).cast("I") if _LE else None
        self.status = ThreadStatus.RUNNABLE
        #: Exit status once the thread is a zombie.
        self.exit_status = 0
        #: tid this thread is waiting to join, if WAIT_JOIN.
        self.joining: Optional[int] = None
        #: Stack bounds registered for this thread (for the 2MB stack-switch
        #: heuristic and stack registration client requests).
        self.stack_base = 0
        self.stack_limit = 0
        #: Shadow call stack of (return address, callee pc) pairs for
        #: stack traces, kept by push_call/pop_ret on every Call and Ret.
        self.callstack = []

    # -- shadow call stack ------------------------------------------------------

    def push_call(self, ret_addr: int, callee: int) -> None:
        """A Call: push its frame, halving a stack that passes the cap."""
        cs = self.callstack
        cs.append((ret_addr, callee))
        if len(cs) > _CALLSTACK_MAX:
            del cs[: _CALLSTACK_MAX // 2]

    def pop_ret(self, target: int) -> None:
        """A Ret to *target*: pop its frame.  Tail calls and longjmp-ish
        control flow return past frames, so a match 2 to 8 frames down
        pops down to it; with no match the stack is left alone."""
        cs = self.callstack
        if not cs:
            return
        if cs[-1][0] == target:
            cs.pop()
            return
        for depth in range(2, min(9, len(cs) + 1)):
            if cs[-depth][0] == target:
                del cs[-depth:]
                return

    # -- typed access -----------------------------------------------------------

    def get(self, offset: int, ty: Ty) -> object:
        return from_bytes(ty, bytes(self.data[offset : offset + ty.size]))

    def put(self, offset: int, ty: Ty, value: object) -> None:
        self.data[offset : offset + ty.size] = to_bytes(ty, value)

    def get_bytes(self, offset: int, size: int) -> bytes:
        return bytes(self.data[offset : offset + size])

    def put_bytes(self, offset: int, data: bytes) -> None:
        self.data[offset : offset + len(data)] = data

    # -- named accessors ----------------------------------------------------------

    @property
    def pc(self) -> int:
        u = self.u32
        if u is not None:
            return u[_PC_IDX]
        return int.from_bytes(self.data[R.OFFSET_PC : R.OFFSET_PC + 4], "little")

    @pc.setter
    def pc(self, value: int) -> None:
        u = self.u32
        if u is not None:
            u[_PC_IDX] = value & 0xFFFFFFFF
            return
        self.data[R.OFFSET_PC : R.OFFSET_PC + 4] = (value & 0xFFFFFFFF).to_bytes(
            4, "little"
        )

    def reg(self, i: int) -> int:
        off = R.gpr_offset(i)
        return int.from_bytes(self.data[off : off + 4], "little")

    def set_reg(self, i: int, value: int) -> None:
        off = R.gpr_offset(i)
        self.data[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    @property
    def sp(self) -> int:
        return self.reg(R.SP)

    @sp.setter
    def sp(self, value: int) -> None:
        self.set_reg(R.SP, value)

    def freg(self, i: int) -> float:
        return self.get(R.freg_offset(i), Ty.F64)  # type: ignore[return-value]

    def set_freg(self, i: int, value: float) -> None:
        self.put(R.freg_offset(i), Ty.F64, value)

    def vreg(self, i: int) -> int:
        return self.get(R.vreg_offset(i), Ty.V128)  # type: ignore[return-value]

    def set_vreg(self, i: int, value: int) -> None:
        self.put(R.vreg_offset(i), Ty.V128, value)

    def flags(self) -> int:
        """Materialise the guest's condition flags from the thunk."""
        return R.calculate_flags(
            self.get(R.OFFSET_CC_OP, Ty.I32),
            self.get(R.OFFSET_CC_DEP1, Ty.I32),
            self.get(R.OFFSET_CC_DEP2, Ty.I32),
            self.get(R.OFFSET_CC_NDEP, Ty.I32),
        )

    # -- refcpu interchange ---------------------------------------------------------

    def load_from_cpu(self, cpu) -> None:
        """Copy architected state in from a :class:`~repro.guest.refcpu.RefCPU`."""
        for i in range(R.NUM_GPRS):
            self.set_reg(i, cpu.regs[i])
        for i in range(R.NUM_FREGS):
            self.set_freg(i, cpu.fregs[i])
        for i in range(R.NUM_VREGS):
            self.set_vreg(i, cpu.vregs[i])
        self.pc = cpu.pc
        self.put(R.OFFSET_CC_OP, Ty.I32, cpu.cc_op)
        self.put(R.OFFSET_CC_DEP1, Ty.I32, cpu.cc_dep1)
        self.put(R.OFFSET_CC_DEP2, Ty.I32, cpu.cc_dep2)
        self.put(R.OFFSET_CC_NDEP, Ty.I32, cpu.cc_ndep)

    def store_to_cpu(self, cpu) -> None:
        """Copy architected state out to a :class:`~repro.guest.refcpu.RefCPU`."""
        for i in range(R.NUM_GPRS):
            cpu.regs[i] = self.reg(i)
        for i in range(R.NUM_FREGS):
            cpu.fregs[i] = self.freg(i)
        for i in range(R.NUM_VREGS):
            cpu.vregs[i] = self.vreg(i)
        cpu.pc = self.pc
        cpu.cc_op = self.get(R.OFFSET_CC_OP, Ty.I32)
        cpu.cc_dep1 = self.get(R.OFFSET_CC_DEP1, Ty.I32)
        cpu.cc_dep2 = self.get(R.OFFSET_CC_DEP2, Ty.I32)
        cpu.cc_ndep = self.get(R.OFFSET_CC_NDEP, Ty.I32)

    def architected_equal(self, other: "ThreadState") -> bool:
        """Compare all architected registers (including the flags thunk)."""
        n = R.GUEST_STATE_SIZE
        return self.data[:n] == other.data[:n]

    def describe_diff(self, other: "ThreadState") -> List[str]:
        """Human-readable list of architected-state differences."""
        diffs = []
        for off, size, name in R.architected_slots():
            a = self.get_bytes(off, size)
            b = other.get_bytes(off, size)
            if a != b:
                diffs.append(f"{name}: {a.hex()} != {b.hex()}")
        for name, off in (
            ("cc_op", R.OFFSET_CC_OP),
            ("cc_dep1", R.OFFSET_CC_DEP1),
            ("cc_dep2", R.OFFSET_CC_DEP2),
            ("cc_ndep", R.OFFSET_CC_NDEP),
        ):
            a = self.get_bytes(off, 4)
            b = other.get_bytes(off, 4)
            if a != b:
                diffs.append(f"{name}: {a.hex()} != {b.hex()}")
        return diffs
