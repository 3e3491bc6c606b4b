"""System call wrappers (Sections 3.10 and 3.12, requirement R4/R6).

Valgrind provides a wrapper for every system call which fires the
pre/post register and memory events as needed — "because there are so
many cases, Valgrind's wrappers are almost 15,000 lines of tedious C
code", and several Memcheck false positives/negatives were traced to
wrapper bugs.  This module is our (much smaller, since our kernel is
smaller) equivalent: one wrapper per syscall, each declaring exactly
which registers and memory the call reads and writes.

Wrappers also:

* pre-check partitioned resources — a client mmap that would land on the
  core's reserved region fails *without consulting the kernel*
  (Section 3.10);
* fire the R6 allocation events around brk/mmap/munmap/mremap; and
* discard translations when code is unloaded by munmap (Section 3.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..guest.regs import gpr_offset
from ..kernel import kernel as K
from ..kernel.kernel import Kernel, SYSCALL_NAMES
from ..kernel.memory import PAGE_SIZE
from .allocator import CORE_REGION_BASE, CORE_REGION_END
from .events import EventRegistry
from .replay import RES_BLOCKED, RES_INJECTED, RES_NORMAL, RES_NO_RESULT

M32 = 0xFFFFFFFF
ENOMEM = 12


def _is_err(result: int) -> bool:
    """Kernel errors are -errno as unsigned (top page of the range)."""
    return isinstance(result, int) and result > 0xFFFF_F000


@dataclass
class _Spec:
    """Static description of one syscall's register/memory behaviour."""

    name: str
    nargs: int
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


class SyscallWrappers:
    """The wrapper layer for one core instance."""

    def __init__(
        self,
        events: EventRegistry,
        kernel: Kernel,
        engine,
        on_code_unmapped: Optional[Callable[[int, int], None]] = None,
        injector=None,
        rr=None,
    ):
        self.events = events
        self.kernel = kernel
        self.engine = engine
        self.on_code_unmapped = on_code_unmapped or (lambda a, s: None)
        self.injector = injector
        #: Record/replay engine (a Recorder or Replayer), or None.
        self.rr = rr
        self._specs = self._build_specs()
        #: How many syscalls were wrapped (stats for tests/benches).
        self.count = 0

    # -- the entry point ------------------------------------------------------------

    def do_syscall(self, tid: int, num: int, a1: int, a2: int, a3: int,
                   *, from_host: bool = False):
        """Run one system call with full event instrumentation.

        *from_host* marks calls the core or host libc makes on the client's
        behalf: the arguments never passed through guest registers, so the
        register events do not apply (the memory and allocation events
        still do).
        """
        self.count += 1
        ev = self.events
        spec = self._specs.get(num)
        name = spec.name if spec else f"syscall{num}"
        if not from_host:
            # Every system call reads its number and arguments from registers.
            ev.fire("pre_reg_read", tid, gpr_offset(0), 4, f"{name}(num)")
            nargs = spec.nargs if spec else 3
            for i in range(nargs):
                ev.fire(
                    "pre_reg_read", tid, gpr_offset(1 + i), 4, f"{name}(arg{i + 1})"
                )

        rr = self.rr
        if rr is not None and rr.replaying and not from_host:
            # Replay: if the log's next event is an injected failure for
            # exactly this call, impose it instead of running the kernel.
            imposed = rr.syscall_injected(tid, num)
            if imposed is not None:
                if spec and spec.pre is not None:
                    spec.pre(self, tid, a1, a2, a3)
                ev.fire("post_reg_write", tid, gpr_offset(0), 4, name)
                return imposed
        elif not from_host and self.injector is not None:
            injected = self._injected_failure(num)
            if injected is not None:
                if spec and spec.pre is not None:
                    spec.pre(self, tid, a1, a2, a3)
                ev.fire("post_reg_write", tid, gpr_offset(0), 4, name)
                self._rr_finish(tid, num, from_host, RES_INJECTED, injected)
                return injected

        if spec and spec.pre is not None:
            short = spec.pre(self, tid, a1, a2, a3)
            if short is not None:
                # Pre-check failed: fail without consulting the kernel.
                if not from_host:
                    ev.fire("post_reg_write", tid, gpr_offset(0), 4, name)
                self._rr_finish(tid, num, from_host, RES_NORMAL, short)
                return short

        # SYS_EXIT raises ProcessExit out of this call: deliberately no
        # event on either side, keeping record and replay symmetric.
        result = self.kernel.syscall(self.engine, tid, num, a1, a2, a3)

        if result is K.BLOCKED:
            self._rr_finish(tid, num, from_host, RES_BLOCKED, 0)
            return result
        if result is K.NO_RESULT:
            self._rr_finish(tid, num, from_host, RES_NO_RESULT, 0)
            return result
        if spec and spec.post is not None:
            spec.post(self, tid, a1, a2, a3, result)
        # The return value is written to r0.
        if not from_host:
            ev.fire("post_reg_write", tid, gpr_offset(0), 4, name)
        self._rr_finish(tid, num, from_host, RES_NORMAL, result)
        return result

    def _rr_finish(self, tid: int, num: int, from_host: bool, rflag: int,
                   result: int) -> None:
        """Record (or verify, on replay) one completed syscall."""
        rr = self.rr
        if rr is None:
            return
        if rr.replaying:
            rr.syscall_check(tid, num, from_host, rflag, result)
        else:
            rr.syscall_done(tid, num, from_host, rflag, result)

    def _injected_failure(self, num: int) -> Optional[int]:
        """Consult the fault injector for a synthetic errno for this call."""
        if num in (K.SYS_MMAP, K.SYS_BRK, K.SYS_MREMAP):
            if self.injector.mmap_enomem():
                return (-ENOMEM) & M32
        elif num in (K.SYS_READ, K.SYS_WRITE, K.SYS_OPEN):
            if self.injector.eintr():
                return (-K.EINTR) & M32
        return None

    # -- per-syscall pre/post handlers ---------------------------------------------------

    def _build_specs(self) -> Dict[int, _Spec]:
        s: Dict[int, _Spec] = {}

        def spec(num: int, nargs: int, pre=None, post=None) -> None:
            s[num] = _Spec(SYSCALL_NAMES[num], nargs, pre, post)

        spec(K.SYS_EXIT, 1)
        spec(K.SYS_READ, 3, pre=self._pre_read, post=self._post_read)
        spec(K.SYS_WRITE, 3, pre=self._pre_write)
        spec(K.SYS_OPEN, 2, pre=self._pre_open)
        spec(K.SYS_CLOSE, 1)
        spec(K.SYS_BRK, 1, pre=self._pre_brk, post=self._post_brk)
        spec(K.SYS_MMAP, 3, pre=self._pre_mmap, post=self._post_mmap)
        spec(K.SYS_MUNMAP, 2, pre=self._pre_munmap, post=self._post_munmap)
        spec(K.SYS_MREMAP, 3, pre=self._pre_mremap, post=self._post_mremap)
        spec(K.SYS_GETTIME, 1, pre=self._pre_gettime, post=self._post_gettime)
        spec(K.SYS_SETTIME, 1, pre=self._pre_settime)
        spec(K.SYS_SIGACTION, 2)
        spec(K.SYS_KILL, 2)
        spec(K.SYS_ALARM, 1)
        spec(K.SYS_THREAD_CREATE, 3)
        spec(K.SYS_THREAD_EXIT, 1)
        spec(K.SYS_THREAD_JOIN, 1)
        spec(K.SYS_YIELD, 0)
        spec(K.SYS_GETPID, 0)
        spec(K.SYS_SIGRETURN, 0)
        spec(K.SYS_LSEEK, 3)
        spec(K.SYS_FSIZE, 1)
        spec(K.SYS_UNLINK, 1, pre=self._pre_unlink)
        return s

    # read(fd, buf, n): the kernel writes up to n bytes at buf.
    def _pre_read(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_write", tid, a2, a3, "read(buf)")

    def _post_read(self, w, tid, a1, a2, a3, result):
        if not _is_err(result) and result > 0:
            self.events.fire("post_mem_write", tid, a2, result, "read(buf)")

    # write(fd, buf, n): the kernel reads n bytes at buf.
    def _pre_write(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_read", tid, a2, a3, "write(buf)")

    # open(path, flags): path is a NUL-terminated string.
    def _pre_open(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_read_asciiz", tid, a1, "open(path)")

    def _pre_unlink(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_read_asciiz", tid, a1, "unlink(path)")

    # brk: allocation events computed from the break movement.
    def _pre_brk(self, w, tid, a1, a2, a3):
        self._brk_before = self.kernel.brk_cur

    def _post_brk(self, w, tid, a1, a2, a3, result):
        old = self._brk_before
        new = self.kernel.brk_cur
        if new > old:
            self.events.fire("new_mem_brk", old, new - old, tid)
        elif new < old:
            self.events.fire("die_mem_brk", new, old - new)

    # mmap: pre-check the core's reserved region; announce new memory.
    def _pre_mmap(self, w, tid, a1, a2, a3):
        if a1 != 0:
            size = (a2 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            if a1 < CORE_REGION_END and CORE_REGION_BASE < a1 + size:
                return (-ENOMEM) & M32  # fail without consulting the kernel
        return None

    def _post_mmap(self, w, tid, a1, a2, a3, result):
        if _is_err(result):
            return
        size = (a2 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        prot = a3 if a3 else 0x6  # kernel default: rw
        self.events.fire(
            "new_mem_mmap", result, size, bool(prot & 4), bool(prot & 2),
            bool(prot & 1)
        )

    def _pre_munmap(self, w, tid, a1, a2, a3):
        return None

    def _post_munmap(self, w, tid, a1, a2, a3, result):
        if _is_err(result):
            return
        size = (a2 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        self.events.fire("die_mem_munmap", a1, size)
        # Code may have been unloaded: drop its translations (Section 3.8).
        self.on_code_unmapped(a1, size)

    # mremap: "can cause memory values to be copied, in which case the
    # corresponding shadow memory values may have to be copied as well".
    def _pre_mremap(self, w, tid, a1, a2, a3):
        self._mremap_old_size = (a2 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)

    def _post_mremap(self, w, tid, a1, a2, a3, result):
        if _is_err(result):
            return
        old_size = self._mremap_old_size
        new_size = (a3 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if result != a1:
            # The mapping moved: contents (and shadows) were copied.
            self.events.fire("copy_mem_mremap", a1, result, min(old_size, new_size))
            self.events.fire("die_mem_munmap", a1, old_size)
            self.on_code_unmapped(a1, old_size)
            if new_size > old_size:
                self.events.fire(
                    "new_mem_mmap", result + old_size, new_size - old_size,
                    True, True, False,
                )
        elif new_size > old_size:
            self.events.fire(
                "new_mem_mmap", a1 + old_size, new_size - old_size, True, True, False
            )
        elif new_size < old_size:
            self.events.fire("die_mem_munmap", a1 + new_size, old_size - new_size)
            self.on_code_unmapped(a1 + new_size, old_size - new_size)

    # gettime(tv): kernel fills an 8-byte struct.
    def _pre_gettime(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_write", tid, a1, 8, "gettime(tv)")

    def _post_gettime(self, w, tid, a1, a2, a3, result):
        if not _is_err(result):
            self.events.fire("post_mem_write", tid, a1, 8, "gettime(tv)")

    # settime(tv): kernel reads an 8-byte struct.
    def _pre_settime(self, w, tid, a1, a2, a3):
        self.events.fire("pre_mem_read", tid, a1, 8, "settime(tv)")
