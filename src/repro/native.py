"""Native execution: run a vx32 program directly on the reference CPU.

This is the *uninstrumented baseline* — the stand-in for "running the
program on the bare machine" that every slow-down factor in the
evaluation is measured against.  It couples :class:`RefCPU` threads to
the simulated kernel and the host libc, with round-robin scheduling,
signal delivery, and the same loader the DBI core uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .guest.loader import (
    SIGPAGE_ADDR,
    THREAD_STACK_REGION,
    LoadedProgram,
    load_program,
)
from .guest.program import VxImage
from .guest.refcpu import CPUError, RefCPU, TrapKind
from .guest.regs import SP
from .kernel.fs import FileSystem
from .kernel.kernel import (
    FATAL_BY_DEFAULT,
    Kernel,
    NO_RESULT,
    BLOCKED,
    ProcessExit,
    SIG_DFL,
    SIGFPE,
    SIGILL,
    SIGKILL,
    SIGSEGV,
    SigInfo,
)
from .kernel.memory import GuestFault, GuestMemory, PROT_RWX
from .kernel.sigframe import pop_signal_frame, push_signal_frame
from .libc.hostlib import LibC

M32 = 0xFFFFFFFF


class _CpuCtx:
    """RegContext adapter over a RefCPU, for the shared signal-frame code."""

    def __init__(self, cpu: RefCPU):
        self.cpu = cpu

    def get_reg(self, i: int) -> int:
        return self.cpu.regs[i]

    def set_reg_(self, i: int, v: int) -> None:
        self.cpu.regs[i] = v & M32

    def get_pc(self) -> int:
        return self.cpu.pc

    def set_pc(self, v: int) -> None:
        self.cpu.pc = v & M32

    def get_thunk(self):
        c = self.cpu
        return (c.cc_op, c.cc_dep1, c.cc_dep2, c.cc_ndep)

    def set_thunk(self, op, dep1, dep2, ndep) -> None:
        c = self.cpu
        c.cc_op, c.cc_dep1, c.cc_dep2, c.cc_ndep = op, dep1, dep2, ndep


class _Machine:
    """libc Machine interface bound to one native thread."""

    def __init__(self, runner: "NativeRunner", tid: int):
        self._runner = runner
        self._tid = tid

    @property
    def mem(self) -> GuestMemory:
        return self._runner.memory

    def reg(self, i: int) -> int:
        return self._runner.cpus[self._tid].regs[i]

    def set_reg(self, i: int, value: int) -> None:
        self._runner.cpus[self._tid].regs[i] = value & M32

    def syscall(self, num: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
        r = self._runner.kernel.syscall(self._runner, self._tid, num, a1, a2, a3)
        if r in (BLOCKED, NO_RESULT):
            raise RuntimeError(f"libc made a blocking syscall ({num})")
        return r

    @property
    def tid(self) -> int:
        return self._tid


@dataclass
class NativeResult:
    exit_code: int
    guest_insns: int
    stdout: str
    stderr: str
    #: Signal that killed the process, if any.
    fatal_signal: Optional[int] = None
    #: Precise description of the fault behind *fatal_signal*, if any.
    fault_info: Optional[SigInfo] = None


class NativeRunner:
    """Runs a program to completion on the reference CPU."""

    TIMESLICE = 20000  # instructions between thread switches

    def __init__(self, image: VxImage, argv: Optional[List[str]] = None,
                 *, stack_size: int = 1024 * 1024, stdin: bytes = b""):
        self.memory = GuestMemory()
        self.fs = FileSystem()
        self.fs.set_stdin(stdin)
        self.kernel = Kernel(self.memory, self.fs)
        self.libc = LibC()
        self.program: LoadedProgram = load_program(
            image, self.kernel, argv, stack_size=stack_size
        )
        self.cpus: Dict[int, RefCPU] = {}
        self._zombies: Dict[int, int] = {}
        self._next_tid = 1
        self._run_queue: List[int] = []
        self._insns_retired = 0
        self._exit: Optional[ProcessExit] = None
        self.fatal_signal: Optional[int] = None
        self.fault_info: Optional[SigInfo] = None
        self._next_thread_stack = THREAD_STACK_REGION

        tid = self._new_thread(self.program.entry, self.program.initial_sp)
        assert tid == 1

    # -- engine interface (used by the kernel) ------------------------------------

    def guest_insns(self) -> int:
        return self._insns_retired + sum(c.insn_count for c in self.cpus.values())

    def create_thread(self, entry: int, sp: int, arg: int) -> int:
        if sp == 0:
            # Kernel-allocated stack for the new thread.
            size = 256 * 1024
            base = self._next_thread_stack
            self._next_thread_stack += size + 0x10000
            self.memory.map(base, size, PROT_RWX)
            sp = base + size - 16
        tid = self._new_thread(entry, sp)
        cpu = self.cpus[tid]
        # The thread argument is pushed like a call argument; entry returning
        # is an error (threads must call thread_exit), so push a 0 retaddr.
        sp = (sp - 8) & M32
        self.memory.write(sp + 4, (arg & M32).to_bytes(4, "little"))
        self.memory.write(sp, b"\0\0\0\0")
        cpu.regs[SP] = sp
        return tid

    def exit_thread(self, tid: int, status: int) -> None:
        cpu = self.cpus.pop(tid, None)
        if cpu is not None:
            self._insns_retired += cpu.insn_count
        if tid in self._run_queue:
            self._run_queue.remove(tid)
        self._zombies[tid] = status & M32

    def join_status(self, tid: int) -> Optional[int]:
        return self._zombies.get(tid)

    def sigreturn(self, tid: int) -> None:
        pop_signal_frame(_CpuCtx(self.cpus[tid]), self.memory)

    # -- internals -------------------------------------------------------------------

    def _new_thread(self, entry: int, sp: int) -> int:
        tid = self._next_tid
        self._next_tid += 1
        cpu = RefCPU(self.memory)
        cpu.pc = entry
        cpu.regs[SP] = sp & M32
        self.cpus[tid] = cpu
        self._run_queue.append(tid)
        return tid

    def _handler_runnable(self, handler: int) -> bool:
        """A registered handler must point into mapped executable memory."""
        try:
            self.memory.fetch(handler, 1)
        except GuestFault:
            return False
        return True

    def _fatal(self, sig: int, siginfo: Optional[SigInfo]) -> None:
        self.fatal_signal = sig
        self.fault_info = siginfo
        self._exit = ProcessExit(128 + sig)

    def _deliver_signal(self, tid: int, sig: int,
                        siginfo: Optional[SigInfo] = None) -> None:
        cpu = self.cpus.get(tid)
        if cpu is None:
            return
        if sig == SIGKILL:
            # SIGKILL cannot be caught, even with a stale handler entry.
            self._fatal(sig, siginfo)
            return
        handler = self.kernel.handler_for(sig)
        if handler != SIG_DFL and not self._handler_runnable(handler):
            handler = SIG_DFL  # unmapped handler: default disposition
        if handler == SIG_DFL:
            if sig in FATAL_BY_DEFAULT:
                self._fatal(sig, siginfo)
            return  # ignored by default
        try:
            push_signal_frame(_CpuCtx(cpu), self.memory, sig, handler,
                              SIGPAGE_ADDR, siginfo=siginfo)
        except GuestFault:
            # No stack to build the frame on: the fault is fatal.
            self._fatal(SIGSEGV, siginfo)

    def _check_signals(self, tid: int) -> None:
        self.kernel.check_timers(self.guest_insns())
        pair = self.kernel.next_pending_info(tid)
        if pair is not None:
            self._deliver_signal(tid, pair[0], pair[1])

    def run(self, max_insns: Optional[int] = None) -> NativeResult:
        """Round-robin the runnable threads until exit (or budget)."""
        budget = max_insns
        blocked_joins: Dict[int, int] = {}  # tid -> target it waits for
        while self._exit is None:
            if not self._run_queue:
                if blocked_joins:
                    # Wake any joiner whose target died.
                    for tid, target in list(blocked_joins.items()):
                        if target in self._zombies:
                            cpu = self.cpus[tid]
                            cpu.regs[0] = self._zombies[target]
                            del blocked_joins[tid]
                            self._run_queue.append(tid)
                    if not self._run_queue:
                        raise RuntimeError("deadlock: all threads blocked")
                    continue
                # No threads left: process ends when the last thread exits.
                self._exit = ProcessExit(0)
                break
            tid = self._run_queue.pop(0)
            if tid not in self.cpus:
                continue
            cpu = self.cpus[tid]
            self._check_signals(tid)
            if self._exit is not None:
                break
            if tid not in self.cpus:
                continue
            slice_insns = self.TIMESLICE
            if budget is not None:
                remaining = budget - self.guest_insns()
                if remaining <= 0:
                    raise RuntimeError("instruction budget exhausted")
                slice_insns = min(slice_insns, remaining)
            try:
                trap = cpu.run(slice_insns)
            except GuestFault as f:
                # RefCPU commits nothing before raising: cpu.pc is the
                # exact faulting instruction boundary.
                si = SigInfo(SIGSEGV, addr=f.addr, access=f.access, pc=cpu.pc)
                self.kernel.post_signal(tid, SIGSEGV, si)
                self._check_signals(tid)
                if self._exit is not None:
                    break
                self._run_queue.append(tid)
                continue
            except ZeroDivisionError:
                si = SigInfo(SIGFPE, addr=cpu.pc, access="fpe", pc=cpu.pc)
                self.kernel.post_signal(tid, SIGFPE, si)
                self._check_signals(tid)
                if self._exit is not None:
                    break
                self._run_queue.append(tid)
                continue
            except CPUError as e:
                pc = getattr(e, "pc", None)
                pc = cpu.pc if pc is None else pc
                si = SigInfo(SIGILL, addr=pc, access="ill", pc=pc)
                self.kernel.post_signal(tid, SIGILL, si)
                self._check_signals(tid)
                if self._exit is not None:
                    break
                self._run_queue.append(tid)
                continue

            if trap is TrapKind.HALT:
                self._exit = ProcessExit(cpu.regs[0])
                break
            if trap is TrapKind.SYSCALL:
                try:
                    r = self.kernel.syscall(
                        self, tid, cpu.regs[0], cpu.regs[1], cpu.regs[2], cpu.regs[3]
                    )
                except ProcessExit as exc:
                    self._exit = exc
                    break
                if r is BLOCKED:
                    blocked_joins[tid] = cpu.regs[1]
                    continue  # not re-queued until the join target dies
                if r is not NO_RESULT:
                    cpu.regs[0] = r & M32
                if tid in self.cpus:
                    self._run_queue.append(tid)
                continue
            if trap is TrapKind.LCALL:
                try:
                    self.libc.call(cpu.trap_arg, _Machine(self, tid))
                except ProcessExit as exc:
                    self._exit = exc
                    break
                except GuestFault:
                    self.kernel.post_signal(tid, SIGSEGV)
                if tid in self.cpus:
                    self._run_queue.append(tid)
                continue
            if trap is TrapKind.CLREQ:
                # Outside Valgrind, client requests do nothing; the
                # RUNNING_ON_VALGRIND convention is r0 := 0.
                cpu.regs[0] = 0
                self._run_queue.append(tid)
                continue
            # BUDGET (timeslice expiry): rotate.
            self._run_queue.append(tid)

        # Wake-any-joiners loop ended: finalise.
        self._insns_retired = self.guest_insns()
        return NativeResult(
            exit_code=self._exit.status if self._exit else 0,
            guest_insns=self._insns_retired,
            stdout=self.fs.stdout_text(),
            stderr=self.fs.stderr_text(),
            fatal_signal=self.fatal_signal,
            fault_info=self.fault_info,
        )


def run_native(
    image: VxImage,
    argv: Optional[List[str]] = None,
    *,
    stdin: bytes = b"",
    max_insns: Optional[int] = None,
) -> NativeResult:
    """Convenience: load and natively run *image* to completion."""
    return NativeRunner(image, argv, stdin=stdin).run(max_insns=max_insns)
