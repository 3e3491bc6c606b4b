"""The simulated kernel: system-call semantics, signals, timers.

The kernel implements what a vx32 "process" can ask of its OS — memory
management (brk/mmap/munmap/mremap), file I/O, signals, threads, time —
against the paged :class:`~repro.kernel.memory.GuestMemory` and in-memory
:class:`~repro.kernel.fs.FileSystem`.

It is deliberately engine-agnostic: both the *native* runner (RefCPU) and
the Valgrind core call :meth:`Kernel.syscall` with an ``engine`` object
that supplies thread operations.  Under Valgrind, calls arrive via the
core's system-call *wrappers*, which fire the R4/R6 events around this
call — exactly the paper's division of labour.

Thread-management behaviour is signalled to the engine with the special
return values :data:`BLOCKED` (the calling thread must wait) and
:data:`NO_RESULT` (the syscall does not write r0, e.g. sigreturn).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple
from collections import deque

from .fs import FileSystem, FsError
from .memory import (
    GuestFault,
    GuestMemory,
    PAGE_SIZE,
    PROT_RW,
)

M32 = 0xFFFFFFFF

# -- syscall numbers ----------------------------------------------------------

SYS_EXIT = 1
SYS_READ = 2
SYS_WRITE = 3
SYS_OPEN = 4
SYS_CLOSE = 5
SYS_BRK = 6
SYS_MMAP = 7
SYS_MUNMAP = 8
SYS_MREMAP = 9
SYS_GETTIME = 10
SYS_SIGACTION = 11
SYS_KILL = 12
SYS_ALARM = 13
SYS_THREAD_CREATE = 14
SYS_THREAD_EXIT = 15
SYS_THREAD_JOIN = 16
SYS_YIELD = 17
SYS_GETPID = 18
SYS_SIGRETURN = 19
SYS_LSEEK = 20
SYS_FSIZE = 21
SYS_SETTIME = 22
SYS_UNLINK = 23

SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_READ: "read",
    SYS_WRITE: "write",
    SYS_OPEN: "open",
    SYS_CLOSE: "close",
    SYS_BRK: "brk",
    SYS_MMAP: "mmap",
    SYS_MUNMAP: "munmap",
    SYS_MREMAP: "mremap",
    SYS_GETTIME: "gettime",
    SYS_SIGACTION: "sigaction",
    SYS_KILL: "kill",
    SYS_ALARM: "alarm",
    SYS_THREAD_CREATE: "thread_create",
    SYS_THREAD_EXIT: "thread_exit",
    SYS_THREAD_JOIN: "thread_join",
    SYS_YIELD: "yield",
    SYS_GETPID: "getpid",
    SYS_SIGRETURN: "sigreturn",
    SYS_LSEEK: "lseek",
    SYS_FSIZE: "fsize",
    SYS_SETTIME: "settime",
    SYS_UNLINK: "unlink",
}

# -- signals --------------------------------------------------------------------

SIGHUP = 1
SIGINT = 2
SIGILL = 4
SIGFPE = 8
SIGKILL = 9
SIGUSR1 = 10
SIGSEGV = 11
SIGUSR2 = 12
SIGALRM = 14
SIGTERM = 15
NSIG = 32

#: Default disposition: True if the signal kills the process.
FATAL_BY_DEFAULT = {
    SIGHUP, SIGINT, SIGILL, SIGFPE, SIGKILL, SIGSEGV, SIGALRM, SIGTERM,
    SIGUSR1, SIGUSR2,
}

SIG_DFL = 0

SIGNAL_NAMES = {
    SIGHUP: "SIGHUP",
    SIGINT: "SIGINT",
    SIGILL: "SIGILL",
    SIGFPE: "SIGFPE",
    SIGKILL: "SIGKILL",
    SIGUSR1: "SIGUSR1",
    SIGSEGV: "SIGSEGV",
    SIGUSR2: "SIGUSR2",
    SIGALRM: "SIGALRM",
    SIGTERM: "SIGTERM",
}

# errno-style failures: syscalls return -errno & M32.
EINVAL = 22
ENOMEM = 12
ESRCH = 3
EINTR = 4
EFAULT = 14


@dataclass(frozen=True)
class SigInfo:
    """What caused a synchronous signal (the siginfo_t analogue).

    Carried alongside the signal number through the pending queues and
    into the signal frame, so guest handlers and the fatal-path reporter
    can see the faulting address and access kind.
    """

    sig: int
    #: Faulting guest address (the accessed address for SIGSEGV, the
    #: faulting instruction address for SIGILL/SIGFPE; 0 if unknown).
    addr: int = 0
    #: Access kind: "read" | "write" | "exec" | "fpe" | "ill" |
    #: "synthetic" | "" (async / unknown).
    access: str = ""
    #: PC of the faulting guest instruction (0 for async signals).
    pc: int = 0

    def describe(self) -> str:
        name = SIGNAL_NAMES.get(self.sig, f"signal {self.sig}")
        if self.access in ("read", "write", "exec"):
            return (f"{name}: bad {self.access} at address {self.addr:#x} "
                    f"(pc={self.pc:#x})")
        if self.access == "fpe":
            return f"{name}: integer division by zero at pc={self.pc:#x}"
        if self.access == "ill":
            return f"{name}: illegal/undecodable instruction at pc={self.pc:#x}"
        if self.access == "synthetic":
            return f"{name}: injected fault at pc={self.pc:#x}"
        return name


#: Numeric access-kind codes stored in signal frames (siginfo word 2).
ACCESS_CODES = {
    "": 0, "read": 1, "write": 2, "exec": 3, "fpe": 4, "ill": 5,
    "synthetic": 6,
}

#: Special syscall results directing the engine.
BLOCKED = "blocked"
NO_RESULT = "no-result"

#: How many simulated instructions one "microsecond" takes.
INSNS_PER_USEC = 10


class ProcessExit(Exception):
    """The whole process exited (syscall exit)."""

    def __init__(self, status: int):
        super().__init__(f"exit({status})")
        self.status = status & 0xFF


@dataclass
class Kernel:
    """Per-process kernel state."""

    memory: GuestMemory
    fs: FileSystem = field(default_factory=FileSystem)
    #: Current program break (set by the loader).
    brk_base: int = 0
    brk_cur: int = 0
    #: mmap search region.
    mmap_base: int = 0x4000_0000
    mmap_top: int = 0xB000_0000
    #: Address ranges the engine forbids the client from mapping (the
    #: Valgrind core reserves its own region here).
    forbidden: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-signal handler addresses (SIG_DFL = 0).
    handlers: Dict[int, int] = field(default_factory=dict)
    #: Per-thread pending signal queues of (sig, Optional[SigInfo]).
    pending: Dict[int, Deque[Tuple[int, Optional[SigInfo]]]] = field(
        default_factory=dict
    )
    #: Armed virtual timers: (due instruction count, tid, signal).
    timers: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Virtual-clock offset applied by settime.
    time_offset_usec: int = 0
    pid: int = 4242

    # -- memory helpers ---------------------------------------------------------

    def set_brk_base(self, addr: int) -> None:
        addr = (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        self.brk_base = addr
        self.brk_cur = addr

    def _is_forbidden(self, addr: int, size: int) -> bool:
        return any(addr < end and start < addr + size for start, end in self.forbidden)

    def _find_mmap_gap(self, size: int) -> Optional[int]:
        addr = self.mmap_base
        size = (size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        while addr + size <= self.mmap_top:
            if not self._is_forbidden(addr, size):
                for off in range(0, size, PAGE_SIZE):
                    if self.memory.is_mapped(addr + off):
                        break
                else:
                    return addr
            addr += PAGE_SIZE
        return None

    # -- signals -------------------------------------------------------------------

    def post_signal(self, tid: int, sig: int,
                    siginfo: Optional[SigInfo] = None) -> None:
        """Queue *sig* for thread *tid* (with optional fault details)."""
        self.pending.setdefault(tid, deque()).append((sig, siginfo))

    def next_pending_info(self, tid: int) -> Optional[Tuple[int, Optional[SigInfo]]]:
        """Pop the next pending (signal, siginfo) pair for *tid*."""
        q = self.pending.get(tid)
        if q:
            return q.popleft()
        return None

    def has_pending(self, tid: int) -> bool:
        return bool(self.pending.get(tid))

    def handler_for(self, sig: int) -> int:
        return self.handlers.get(sig, SIG_DFL)

    def check_timers(self, now_insns: int) -> bool:
        """Fire any due timers; return True if a signal was posted."""
        fired = False
        still = []
        for due, tid, sig in self.timers:
            if now_insns >= due:
                self.post_signal(tid, sig)
                fired = True
            else:
                still.append((due, tid, sig))
        self.timers = still
        return fired

    # -- the syscall entry point -------------------------------------------------------

    def syscall(self, engine, tid: int, num: int, a1: int, a2: int, a3: int):
        """Execute syscall *num*; return the r0 result (or BLOCKED/NO_RESULT).

        *engine* must provide: ``guest_insns()``, ``create_thread(entry,
        sp, arg) -> tid``, ``exit_thread(tid, status)``, ``join_status(tid)
        -> Optional[int]``, ``sigreturn(tid)``.
        """
        mem = self.memory
        try:
            if num == SYS_EXIT:
                raise ProcessExit(a1)
            if num == SYS_READ:
                data = self.fs.read(a1, a3)
                mem.write(a2, data)
                return len(data)
            if num == SYS_WRITE:
                data = mem.read(a2, a3)
                return self.fs.write(a1, data)
            if num == SYS_OPEN:
                path = mem.read_cstring(a1).decode(errors="replace")
                return self.fs.open(path, a2)
            if num == SYS_CLOSE:
                self.fs.close(a1)
                return 0
            if num == SYS_BRK:
                return self._sys_brk(a1)
            if num == SYS_MMAP:
                return self._sys_mmap(a1, a2, a3)
            if num == SYS_MUNMAP:
                return self._sys_munmap(a1, a2)
            if num == SYS_MREMAP:
                return self._sys_mremap(a1, a2, a3)
            if num == SYS_GETTIME:
                usec = engine.guest_insns() // INSNS_PER_USEC + self.time_offset_usec
                mem.write(a1, struct.pack("<II", usec // 1_000_000, usec % 1_000_000))
                return 0
            if num == SYS_SETTIME:
                sec, usec = struct.unpack("<II", mem.read(a1, 8))
                now = engine.guest_insns() // INSNS_PER_USEC
                self.time_offset_usec = sec * 1_000_000 + usec - now
                return 0
            if num == SYS_SIGACTION:
                if not 1 <= a1 < NSIG or a1 == SIGKILL:
                    return (-EINVAL) & M32
                old = self.handlers.get(a1, SIG_DFL)
                self.handlers[a1] = a2
                return old
            if num == SYS_KILL:
                target = a1 if a1 else tid
                self.post_signal(target, a2)
                return 0
            if num == SYS_ALARM:
                self.timers.append((engine.guest_insns() + a1, tid, SIGALRM))
                return 0
            if num == SYS_THREAD_CREATE:
                return engine.create_thread(a1, a2, a3)
            if num == SYS_THREAD_EXIT:
                engine.exit_thread(tid, a1)
                return NO_RESULT
            if num == SYS_THREAD_JOIN:
                status = engine.join_status(a1)
                if status is None:
                    return BLOCKED
                return status & M32
            if num == SYS_YIELD:
                return 0
            if num == SYS_GETPID:
                return self.pid
            if num == SYS_SIGRETURN:
                engine.sigreturn(tid)
                return NO_RESULT
            if num == SYS_LSEEK:
                off = a2 - (1 << 32) if a2 & 0x8000_0000 else a2
                return self.fs.lseek(a1, off, a3) & M32
            if num == SYS_FSIZE:
                return self.fs.size(a1)
            if num == SYS_UNLINK:
                path = mem.read_cstring(a1).decode(errors="replace")
                self.fs.unlink(path)
                return 0
        except FsError as exc:
            return (-exc.errno) & M32
        except GuestFault:
            # A bad guest pointer handed to the kernel (read buffer,
            # string, struct) fails the call, as a real kernel's
            # copy_{from,to}_user would — never the host process.
            return (-EFAULT) & M32
        return (-EINVAL) & M32  # unknown syscall

    # -- memory syscalls ------------------------------------------------------------------

    def _sys_brk(self, addr: int) -> int:
        """brk(0) queries; otherwise move the break.  Returns the new break."""
        if addr == 0:
            return self.brk_cur
        if addr < self.brk_base:
            return self.brk_cur
        new_end = (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        old_end = (self.brk_cur + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if addr > self.brk_cur:
            if self._is_forbidden(old_end, new_end - old_end):
                return self.brk_cur  # refuse
            if new_end > old_end:
                self.memory.map(old_end, new_end - old_end, PROT_RW)
        elif addr < self.brk_cur and new_end < old_end:
            self.memory.unmap(new_end, old_end - new_end)
        self.brk_cur = addr
        return self.brk_cur

    def _sys_mmap(self, addr: int, length: int, prot: int) -> int:
        if length == 0:
            return (-EINVAL) & M32
        size = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if addr == 0:
            addr = self._find_mmap_gap(size) or 0
            if addr == 0:
                return (-ENOMEM) & M32
        else:
            addr &= ~(PAGE_SIZE - 1)
            if self._is_forbidden(addr, size):
                return (-ENOMEM) & M32
        self.memory.map(addr, size, prot if prot else PROT_RW)
        return addr

    def _sys_munmap(self, addr: int, length: int) -> int:
        if addr & (PAGE_SIZE - 1) or length == 0:
            return (-EINVAL) & M32
        size = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        self.memory.unmap(addr, size)
        return 0

    def _sys_mremap(self, old_addr: int, old_len: int, new_len: int) -> int:
        """Grow/shrink a mapping, moving it if necessary (and copying the
        contents — the event the copy_mem_mremap callback shadows)."""
        if old_addr & (PAGE_SIZE - 1) or old_len == 0 or new_len == 0:
            return (-EINVAL) & M32
        old_size = (old_len + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        new_size = (new_len + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if not self.memory.is_mapped(old_addr, old_size):
            return (-EFAULT) & M32
        if new_size <= old_size:
            if new_size < old_size:
                self.memory.unmap(old_addr + new_size, old_size - new_size)
            return old_addr
        # Try to extend in place.
        can_extend = not self.memory.is_mapped(old_addr + old_size) and not (
            self._is_forbidden(old_addr + old_size, new_size - old_size)
        )
        if can_extend:
            self.memory.map(old_addr + old_size, new_size - old_size, PROT_RW)
            return old_addr
        # Move: the data is copied to the new location.
        new_addr = self._find_mmap_gap(new_size)
        if new_addr is None:
            return (-ENOMEM) & M32
        data = self.memory.read_raw(old_addr, old_size)
        self.memory.map(new_addr, new_size, PROT_RW)
        self.memory.write_raw(new_addr, data)
        self.memory.unmap(old_addr, old_size)
        return new_addr
