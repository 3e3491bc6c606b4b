"""The scheduler: thread serialisation, signals, and trap handling.

Sections 3.9/3.14/3.15.  The scheduler is the slow path around the
dispatcher: it makes translations, runs system calls through the
wrappers, dispatches host-libc calls (through any tool wrappers), handles
client requests, and manages threads and signals.

* **Thread serialisation** (3.14): only the thread holding the big lock
  runs; threads drop the lock before blocking system calls or after a
  timeslice of code blocks.  The kernel-style run queue chooses who runs
  next, but the scheduler dictates *when* switches occur — so shadow
  loads/stores can never interleave with their originals.

* **Signals** (3.15): the core intercepts all signal registrations and
  deliveries; asynchronous signals are delivered only *between* code
  blocks, which also guarantees they never separate a load/store from its
  shadow counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..backend.hostcpu import HostCPU
from ..frontend.disasm import TranslationFault
from ..guest.encoding import decode
from ..guest.loader import SIGPAGE_ADDR, THREAD_STACK_REGION, LoadedProgram
from ..guest.refcpu import CPUError, RefCPU
from ..guest.regs import GUEST_STATE_SIZE, OFFSET_IP_AT_SYSCALL, SP
from ..ir.stmt import JumpKind
from ..ir.types import Ty
from ..kernel import kernel as K
from ..kernel.kernel import Kernel, ProcessExit, SigInfo
from ..kernel.memory import PAGE_SIZE, GuestFault, GuestMemory, PROT_RWX
from ..kernel.sigframe import FRAME_PUSH, pop_signal_frame, push_signal_frame
from . import clientreq as CR
from .codecache import CodeCache, translation_context
from .codegen import CodegenTiers
from .dispatch import Dispatcher
from .errors import ExitCode
from .events import EventRegistry
from .faultinject import FaultInjector
from .function_wrap import FunctionRedirector
from .options import BadOption, Options
from .replay import (
    EventLog,
    Recorder,
    Replayer,
    ReplayFormatError,
    ReplayLogExhausted,
    apply_snapshot,
    EV_CHECKPOINT,
    unpack_obj,
)
from .smc import SmcPolicy
from .syscalls import SyscallWrappers
from .threadstate import ThreadState, ThreadStatus
from .translate import SP_TRACK_HELPER, Translator
from .transtab import TranslationTable

M32 = 0xFFFFFFFF


class BigLock:
    """The thread serialisation lock (Section 3.14).

    In real Valgrind this is a pipe holding a single character; here the
    process model is already serial, so the lock exists to *model* the
    discipline — exactly one holder, released only at blocking syscalls
    and timeslice expiry — and to expose its statistics.
    """

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        self.acquisitions = 0
        self.handoffs = 0

    def acquire(self, tid: int) -> None:
        assert self.holder is None, "big lock already held"
        self.holder = tid
        self.acquisitions += 1

    def release(self, tid: int) -> None:
        assert self.holder == tid, "big lock released by non-holder"
        self.holder = None
        self.handoffs += 1


class _TsCtx:
    """RegContext adapter over a ThreadState, for signal frames."""

    def __init__(self, ts: ThreadState):
        self.ts = ts

    def get_reg(self, i: int) -> int:
        return self.ts.reg(i)

    def set_reg_(self, i: int, v: int) -> None:
        self.ts.set_reg(i, v)

    def get_pc(self) -> int:
        return self.ts.pc

    def set_pc(self, v: int) -> None:
        self.ts.pc = v

    def get_thunk(self):
        from ..guest import regs as R

        g = self.ts.get
        return (
            g(R.OFFSET_CC_OP, Ty.I32),
            g(R.OFFSET_CC_DEP1, Ty.I32),
            g(R.OFFSET_CC_DEP2, Ty.I32),
            g(R.OFFSET_CC_NDEP, Ty.I32),
        )

    def set_thunk(self, op, dep1, dep2, ndep) -> None:
        from ..guest import regs as R

        p = self.ts.put
        p(R.OFFSET_CC_OP, Ty.I32, op)
        p(R.OFFSET_CC_DEP1, Ty.I32, dep1)
        p(R.OFFSET_CC_DEP2, Ty.I32, dep2)
        p(R.OFFSET_CC_NDEP, Ty.I32, ndep)


class VgMachine:
    """libc Machine interface bound to the scheduler's current thread.

    Its ``syscall`` goes through the *wrapper* layer, so allocator brk
    calls made by host libc fire the same R6 events real guest syscalls
    do.
    """

    def __init__(self, sched: "Scheduler", tid: int):
        self._sched = sched
        self._tid = tid

    @property
    def mem(self) -> GuestMemory:
        return self._sched.memory

    def reg(self, i: int) -> int:
        return self._sched.threads[self._tid].reg(i)

    def set_reg(self, i: int, value: int) -> None:
        self._sched.threads[self._tid].set_reg(i, value)
        # A host-side write of a guest register produces a defined value;
        # the event lets shadow-value tools update the register's shadow.
        from ..guest.regs import gpr_offset

        self._sched.events.fire(
            "post_reg_write", self._tid, gpr_offset(i), 4, "host libc"
        )

    def syscall(self, num: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
        r = self._sched.wrappers.do_syscall(self._tid, num, a1, a2, a3,
                                            from_host=True)
        if r is K.BLOCKED or r is K.NO_RESULT:
            raise RuntimeError("libc made a blocking syscall")
        return r

    @property
    def tid(self) -> int:
        return self._tid


class ExecEnv:
    """The environment handed to dirty helpers (tool helpers included)."""

    def __init__(self, sched: "Scheduler"):
        self._sched = sched

    @property
    def state(self) -> ThreadState:
        return self._sched.current_ts

    @property
    def mem(self) -> GuestMemory:
        return self._sched.memory

    @property
    def tid(self) -> int:
        return self._sched.current_tid

    @property
    def tool(self):
        return self._sched.tool

    @property
    def core(self):
        return self._sched.core

    def guest_insns(self) -> int:
        return self._sched.guest_insns()

    def stack_trace_pcs(self, max_depth: int = 16) -> List[int]:
        """Current stack trace, innermost first, for error reports."""
        ts = self._sched.current_ts
        pcs = [ts.pc]
        for retaddr, _callee in reversed(ts.callstack):
            pcs.append(retaddr)
            if len(pcs) >= max_depth:
                break
        return pcs


@dataclass
class RunOutcome:
    exit_code: int
    fatal_signal: Optional[int] = None
    blocks_executed: int = 0
    guest_insns: int = 0
    translations: int = 0
    #: Why the run stopped without the client exiting, if so:
    #: None (normal exit / fatal signal) | "deadlock" | "block-budget".
    stopped_reason: Optional[str] = None
    #: Fault details of the fatal signal, when it was synchronous.
    fault_info: Optional[SigInfo] = None


class Scheduler:
    """Drives client execution for the Valgrind core."""

    def __init__(
        self,
        core,  # the Valgrind instance (back-reference for tools)
        kernel: Kernel,
        program: LoadedProgram,
        tool,
        options: Options,
        events: EventRegistry,
        helpers,
        libc,
        redirector: FunctionRedirector,
        error_mgr=None,
    ):
        self.core = core
        self.kernel = kernel
        self.memory = kernel.memory
        self.program = program
        self.tool = tool
        self.options = options
        self.events = events
        self.libc = libc
        self.redirector = redirector
        self.error_mgr = error_mgr

        self.threads: Dict[int, ThreadState] = {}
        self._zombies: Dict[int, int] = {}
        self._run_queue: List[int] = []
        self._next_tid = 1
        self.current_tid = 1
        self.big_lock = BigLock()
        self.registered_stacks = CR.RegisteredStacks()
        self._next_thread_stack = THREAD_STACK_REGION
        self._exit: Optional[ProcessExit] = None
        self.fatal_signal: Optional[int] = None
        self.stopped_reason: Optional[str] = None
        self.fault_info: Optional[SigInfo] = None
        #: Robustness counters (reported under --stats=json).
        self.quarantined_blocks = 0
        self.faults_recovered = 0
        #: Optional embedding hook called with guest_insns at every
        #: dispatch-quantum / checkpoint boundary: the fleet supervisor's
        #: worker heartbeat (see core/supervisor.py).  A passive observer —
        #: it must not mutate guest state.
        self.on_progress = None
        #: (event index, pc, guest_insns) where a partial crash-bundle
        #: replay ran out of log, if it did.
        self.replay_exhausted_at: Optional[Tuple[int, int, int]] = None
        #: Deterministic fault-injection plan, if --inject was given.
        #: Under --replay the live injector is disabled: recorded
        #: injection events are imposed from the log instead.
        if options.record and options.replay:
            raise BadOption("--record and --replay are mutually exclusive")
        if options.replay:
            self.rr = Replayer.load(options, options.replay)
            self.injector: Optional[FaultInjector] = None
        elif options.record:
            self.rr = Recorder(options)
            self.injector = FaultInjector(options.inject) if options.inject \
                else None
        else:
            self.rr = None
            self.injector = FaultInjector(options.inject) if options.inject \
                else None
        #: Global scheduler-step counter: incremented once per inner-loop
        #: iteration whenever record/replay is active, keying EV_INJECT
        #: events unambiguously (several steps can share (tid, insns)).
        self._step = 0
        #: Mid-slice resume after --restore: the interrupted thread's
        #: remaining timeslice, consumed by its first synthetic pick.
        self._resume_slice_left: Optional[int] = None
        #: Scratch RefCPU for precise-fault replay (created lazily; one
        #: instance is reused so memory write hooks are registered once).
        self._replay_cpu: Optional[RefCPU] = None

        # Execution machinery.
        self.env = ExecEnv(self)
        self.hostcpu = HostCPU(self.memory, helpers, self.env)
        # Memcheck-style tools expose their shadow page maps for the
        # pygen tier's inlined LOADV/STOREV fast paths (backend.pygen);
        # --memcheck-fastpath=no (or REPRO_MEMCHECK_FASTPATH=0) keeps
        # the helper-only emission for differential testing.
        shadow_maps = tool.shadow_fastpath_maps()
        if shadow_maps is not None and options.memcheck_fastpath:
            self.hostcpu.shadow_rd_get, self.hostcpu.shadow_wr_get = \
                shadow_maps
            self.hostcpu.shadow_fastpath = True
        self.transtab = TranslationTable(options.transtab_entries,
                                         policy=options.transtab_policy)
        self.smc = SmcPolicy(options.smc_check, self._fetch_exact)
        self.translator = Translator(
            self._fetch,
            tool,
            options,
            track_stack_events=events.tracks_stack_events,
        )
        #: Codegen tiering (closures / pygen / interp_first / interp).
        self.codegen = CodegenTiers(
            self.hostcpu,
            options,
            self.translator,
            injector=self.injector,
            on_demote=self._on_pygen_demoted,
            on_quarantine=self._on_promotion_failed,
        )
        self.translator.disasm._chase_ok = self._chase_ok
        if self.injector is not None:
            self.translator.fail_hook = self.injector.jit_failure
        #: Persistent cross-process translation cache (--cache-dir): one
        #: shared store skips the whole pipeline for byte-identical
        #: blocks across runs and fleet workers (core.codecache).
        self.codecache = None
        # --trace-translations prints per-phase IR *during* translation;
        # a hit skips those phases, so debug-trace runs bypass both
        # translation tiers to keep their output meaningful.
        if not options.trace_translations:
            _redir = self.redirector
            self.translator.context = translation_context(
                tool=tool,
                options=options,
                track_stack_events=events.tracks_stack_events,
                # Redirects steer the disassembler's chase decisions
                # (_chase_ok), and tools add them at runtime — re-read
                # the table on every lookup.
                redirects_fn=lambda: tuple(
                    sorted(_redir._guest_redirects.items())
                ),
            )
            if options.cache_dir:
                try:
                    self.codecache = CodeCache(
                        options.cache_dir, max_mb=options.cache_max_mb
                    )
                except OSError:
                    pass  # unusable directory: run uncached
                else:
                    # pygen emit payloads and trace build results persist
                    # through the same store (backend.pygen / core.traces
                    # find it here).
                    self.hostcpu.codecache = self.codecache
                    self.translator.cache = self.codecache
        #: Trace tier (--codegen=traces): the manager records hot chains
        #: and splices them into compiled superblocks; traces live off
        #: the translation table, severed through its on_kill hook.
        if options.codegen == "traces":
            from .traces import (
                TraceManager,
                VG_TRACE_CALL,
                VG_TRACE_RET,
                vg_trace_call,
                vg_trace_ret,
            )

            self.traces = TraceManager(
                self.translator, self.hostcpu, on_fail=self._on_trace_failed
            )
            self.traces.promote = self.codegen.promote
            self.transtab.on_kill = self.traces.on_translation_dead
            if VG_TRACE_CALL not in helpers:
                helpers.register_dirty(VG_TRACE_CALL, vg_trace_call)
                helpers.register_dirty(VG_TRACE_RET, vg_trace_ret)
        else:
            self.traces = None
        self.dispatcher = Dispatcher(
            self.transtab, self.hostcpu, options,
            smc_recheck=self.smc.recheck,
            fault_recover=self._recover_fault,
            signals_pending=self._signals_pending,
            attach_runner=self.codegen.attach,
            traces=self.traces,
        )
        self.wrappers = SyscallWrappers(
            events, kernel, self, on_code_unmapped=self._on_code_unmapped,
            injector=self.injector, rr=self.rr,
        )
        if SP_TRACK_HELPER not in helpers:
            helpers.register_dirty(SP_TRACK_HELPER, _track_sp_change)

        # Main thread.
        ts = ThreadState(tid=1)
        ts.pc = program.entry
        ts.set_reg(SP, program.initial_sp)
        ts.stack_base = program.stack_base
        ts.stack_limit = program.stack_top
        self.threads[1] = ts
        self._run_queue.append(1)
        self._next_tid = 2
        tool.at_thread_create(1)

        if self.rr is not None:
            # Binding verifies the contract (replay) or stamps the meta
            # (record), and wires the transtab/translator hooks.
            self.rr.bind(self, tool.name)

    # -- helpers -----------------------------------------------------------------

    @property
    def current_ts(self) -> ThreadState:
        return self.threads[self.current_tid]

    def _fetch(self, addr: int, n: int) -> bytes:
        """Fetch up to n executable bytes (at least one), for the
        disassembler, cache-hit verification and SMC hashes.

        One ``memory.fetch`` per in-page run; the bytes stop at the first
        unfetchable page, wrapping at 0xFFFFFFFF.  An unfetchable first
        byte raises the same one-byte exec fault a byte-at-a-time fetch
        would."""
        fetch = self.memory.fetch
        addr &= 0xFFFFFFFF
        n = max(n, 1)
        run = min(n, PAGE_SIZE - (addr & (PAGE_SIZE - 1)))
        try:
            out = fetch(addr, run)
        except GuestFault as exc:
            raise GuestFault(exc.addr, 1, exc.access, exc.reason) from None
        while len(out) < n:
            a = (addr + len(out)) & 0xFFFFFFFF
            try:
                out += fetch(a, min(n - len(out), PAGE_SIZE))
            except GuestFault:
                break
        return out

    def _fetch_exact(self, addr: int, n: int) -> bytes:
        return self.memory.fetch(addr, n)

    def _chase_ok(self, addr: int) -> bool:
        return self.redirector.resolve(addr) == addr

    def _on_code_unmapped(self, addr: int, size: int) -> None:
        if self.transtab.discard_range(addr, size):
            self.dispatcher.flush_cache()

    def guest_insns(self) -> int:
        return self.dispatcher.guest_insns

    # -- precise synchronous faults -----------------------------------------------------

    def _signals_pending(self) -> bool:
        """Dispatcher poll hook: did an async signal become pending?"""
        k = self.kernel
        k.check_timers(self.guest_insns())
        return k.has_pending(self.current_tid)

    def _siginfo_for(self, exc, pc: int) -> SigInfo:
        """Classify an escaped guest exception."""
        if isinstance(exc, GuestFault):
            return SigInfo(K.SIGSEGV, addr=exc.addr, access=exc.access, pc=pc)
        if isinstance(exc, ZeroDivisionError):
            return SigInfo(K.SIGFPE, addr=pc, access="fpe", pc=pc)
        return SigInfo(K.SIGILL, addr=pc, access="ill", pc=pc)

    def _recover_fault(self, ts, snapshot: bytes, t, exc) -> Tuple[SigInfo, int]:
        """Commit *ts* exactly to the faulting instruction boundary.

        A fault escaping mid-block leaves the guest state wherever the
        optimised code's PUTs happened to be — opt2 may have sunk or
        coalesced them past instruction boundaries.  Recovery rolls the
        state back to the block-entry *snapshot* and replays the block one
        instruction at a time on the reference CPU until the fault
        reproduces; RefCPU semantics commit nothing before raising, so its
        state at that point IS the precise boundary (registers, CC thunk
        and PC of the faulting instruction).

        Replay is deterministic because the block's own stores were
        already committed once with the same inputs (re-applying them is
        idempotent).  Known limit: a location read and *later* overwritten
        within the same faulting prefix replays the overwritten value;
        none of our front-end's single-instruction expansions do this.
        Dirty/tool helpers are not replayed, so shadow state keeps the
        partial run's effects — shadow precision at fault points is not an
        architected-state property.

        Returns (SigInfo, completed guest instructions — counting the
        faulting attempt, as the native engine does).
        """
        self.faults_recovered += 1
        saved = bytes(ts.data[:GUEST_STATE_SIZE])  # partial, maybe imprecise
        cpu = self._replay_cpu
        if cpu is None:
            cpu = self._replay_cpu = RefCPU(self.memory)
        ts.data[:GUEST_STATE_SIZE] = snapshot
        ts.store_to_cpu(cpu)
        cap = max(1024, 8 * (t.stats.guest_insns or 1))
        steps = 0
        si: Optional[SigInfo] = None
        while steps <= cap and t.covers(cpu.pc):
            pc = cpu.pc
            try:
                trap = cpu.step()
            except GuestFault as f:
                si = SigInfo(K.SIGSEGV, addr=f.addr, access=f.access, pc=pc)
                break
            except ZeroDivisionError:
                si = SigInfo(K.SIGFPE, addr=pc, access="fpe", pc=pc)
                break
            except CPUError:
                si = SigInfo(K.SIGILL, addr=pc, access="ill", pc=pc)
                break
            steps += 1
            if trap is not None:
                break  # a trap is a block boundary; the fault is gone
        if si is not None:
            ts.load_from_cpu(cpu)
            return si, steps + 1
        # The fault did not reproduce (imprecise-replay corner): fall back
        # to the state the faulting execution left behind.
        ts.data[:GUEST_STATE_SIZE] = saved
        return self._siginfo_for(exc, ts.pc), steps + 1

    # -- JIT quarantine (graceful degradation) -----------------------------------------

    def _on_pygen_demoted(self, t, exc) -> None:
        """A pygen-tier compile failed (real or injected): the block runs
        in the closure tier instead.  Logged (CodegenTiers counts it),
        never fatal."""
        self.core.log(
            f"pygen compile failure for block at {t.guest_addr:#x} "
            f"({exc!r}); demoting to closure tier"
        )

    def _on_trace_failed(self, t, exc) -> None:
        """A trace build headed at *t* failed: its members keep running
        in the block tier and the head is never re-recorded."""
        self.core.log(
            f"trace build failure for chain headed at {t.guest_addr:#x} "
            f"({exc!r}); chain stays in the block tier"
        )

    def _on_promotion_failed(self, t, exc) -> None:
        """Phases 5-8 failed while promoting an interpreted-first block:
        it stays in the IR interpreter, quarantined like a block whose
        translation failed."""
        self.core.log(
            f"JIT failure for block at {t.guest_addr:#x} ({exc!r}); "
            "quarantining to IR interpreter"
        )
        self.quarantined_blocks += 1

    def _quarantine_translation(self, addr: int, exc) -> Optional[object]:
        """Build an interpreter-executed translation for *addr* after an
        internal JIT failure; None if even that is impossible."""
        self.core.log(
            f"JIT failure for block at {addr:#x} ({exc!r}); "
            "quarantining to IR interpreter"
        )
        try:
            t = self.translator.translate_interp(addr)
        except Exception:
            return None
        self.quarantined_blocks += 1
        return t

    # -- engine interface for the kernel ----------------------------------------------

    def create_thread(self, entry: int, sp: int, arg: int) -> int:
        if sp == 0:
            size = 256 * 1024
            base = self._next_thread_stack
            self._next_thread_stack += size + 0x10000
            self.memory.map(base, size, PROT_RWX)
            self.events.fire("new_mem_mmap", base, size, True, True, True)
            sp = base + size - 16
        tid = self._next_tid
        self._next_tid += 1
        ts = ThreadState(tid=tid)
        ts.pc = entry
        sp = (sp - 8) & M32
        self.memory.write(sp + 4, (arg & M32).to_bytes(4, "little"))
        self.memory.write(sp, b"\0\0\0\0")
        self.events.fire("post_mem_write", tid, sp, 8, "thread_create(args)")
        ts.set_reg(SP, sp)
        ts.stack_base = sp - 256 * 1024
        ts.stack_limit = sp + 16
        self.threads[tid] = ts
        self._run_queue.append(tid)
        self.tool.at_thread_create(tid)
        return tid

    def exit_thread(self, tid: int, status: int) -> None:
        self.threads.pop(tid, None)
        if tid in self._run_queue:
            self._run_queue.remove(tid)
        self._zombies[tid] = status & M32
        self.tool.at_thread_exit(tid)

    def join_status(self, tid: int) -> Optional[int]:
        return self._zombies.get(tid)

    def sigreturn(self, tid: int) -> None:
        pop_signal_frame(_TsCtx(self.threads[tid]), self.memory)

    # -- signals ------------------------------------------------------------------------

    def _handler_runnable(self, handler: int) -> bool:
        """A handler must point into mapped executable memory."""
        try:
            self.memory.fetch(handler, 1)
            return True
        except GuestFault:
            return False

    def _fatal(self, tid: int, sig: int, siginfo: Optional[SigInfo]) -> None:
        """Default-fatal delivery: report Valgrind-style and terminate."""
        self.fatal_signal = sig
        self.fault_info = siginfo
        self._exit = ProcessExit(128 + sig)
        pid = self.kernel.pid
        name = K.SIGNAL_NAMES.get(sig, str(sig))
        log = self.core.log
        log(f"=={pid}== ")
        log(f"=={pid}== Process terminating with default action of "
            f"signal {sig} ({name})")
        if siginfo is not None:
            log(f"=={pid}==   {siginfo.describe()}")
        for i, pc in enumerate(self.env.stack_trace_pcs()):
            frame = self.core._symbolise(pc)
            where = "at" if i == 0 else "by"
            sym = f": {frame.symbol}+{frame.offset:#x}" if frame.symbol else ""
            loc = f" ({frame.location})" if frame.location else ""
            log(f"=={pid}==    {where} {pc:#010x}{sym}{loc}")

    def _deliver_signal(self, tid: int, sig: int,
                        siginfo: Optional[SigInfo] = None) -> None:
        ts = self.threads.get(tid)
        if ts is None:
            return
        if self.rr is not None:
            # The single delivery point: every signal that reaches a live
            # thread is recorded (or verified) keyed by (tid, guest_insns).
            self.rr.signal_delivered(tid, sig, siginfo)
        if sig == K.SIGKILL:
            # SIGKILL cannot be caught: fatal even if a (stale, corrupt)
            # handler table entry exists.
            self._fatal(tid, sig, siginfo)
            return
        handler = self.kernel.handler_for(sig)
        if handler != K.SIG_DFL and not self._handler_runnable(handler):
            self.core.log(
                f"=={self.kernel.pid}== handler for signal {sig} at "
                f"{handler:#x} is not in executable memory; using default"
            )
            handler = K.SIG_DFL
        if handler == K.SIG_DFL:
            if sig in K.FATAL_BY_DEFAULT:
                self._fatal(tid, sig, siginfo)
            return
        try:
            push_signal_frame(_TsCtx(ts), self.memory, sig, handler,
                              SIGPAGE_ADDR, siginfo)
        except GuestFault:
            # Cannot even write the frame (corrupt SP): force-fatal, as a
            # real kernel does when signal delivery itself faults.
            self._fatal(tid, K.SIGSEGV, siginfo)
            return
        # The frame is kernel-written guest memory: tell the tool.
        self.events.fire(
            "post_mem_write", tid, (ts.sp) & M32, FRAME_PUSH, "signal frame"
        )

    def _check_signals(self, tid: int) -> None:
        self.kernel.check_timers(self.guest_insns())
        entry = self.kernel.next_pending_info(tid)
        if entry is not None:
            self._deliver_signal(tid, entry[0], entry[1])

    def post_fault(self, tid: int, sig: int,
                   siginfo: Optional[SigInfo] = None) -> None:
        self.kernel.post_signal(tid, sig, siginfo)

    # -- trap handlers --------------------------------------------------------------------

    def _handle_syscall(self, tid: int) -> Optional[str]:
        ts = self.threads[tid]
        r = self.wrappers.do_syscall(
            tid, ts.reg(0), ts.reg(1), ts.reg(2), ts.reg(3)
        )
        if r is K.BLOCKED:
            ts.status = ThreadStatus.WAIT_JOIN
            ts.joining = ts.reg(1)
            return "blocked"
        if r is not K.NO_RESULT:
            ts.set_reg(0, r & M32)
        return None

    def _handle_lcall(self, tid: int) -> None:
        ts = self.threads[tid]
        ip = ts.get(OFFSET_IP_AT_SYSCALL, Ty.I32)
        insn = decode(self.memory.read(ip, 6), 0, ip)
        assert insn.mnemonic == "lcall", insn
        index = insn.operands[0].value
        machine = VgMachine(self, tid)
        self.redirector.call_libc(index, machine)

    def _handle_client_request(self, tid: int) -> None:
        ts = self.threads[tid]
        args = [ts.reg(i) for i in range(4)]
        code = args[0]
        result: Optional[int] = None
        if code == CR.RUNNING_ON_VALGRIND:
            result = 1
        elif code == CR.DISCARD_TRANSLATIONS:
            self._on_code_unmapped(args[1], args[2])
            result = 0
        elif code == CR.STACK_REGISTER:
            result = self.registered_stacks.register(args[1], args[2])
        elif code == CR.STACK_DEREGISTER:
            result = int(self.registered_stacks.deregister(args[1]))
        elif code == CR.STACK_CHANGE:
            result = int(self.registered_stacks.change(args[1], args[2], args[3]))
        elif code == CR.CLIENT_PRINT:
            text = self.memory.read_cstring(args[1]).decode(errors="replace")
            self.core.log(f"[client] {text}")
            result = 0
        else:
            result = self.tool.handle_client_request(tid, args)
            if result is None:
                result = 0
        ts.set_reg(0, result & M32)

    # -- the main loop ------------------------------------------------------------------------

    def run(self, max_blocks: Optional[int] = None) -> RunOutcome:
        try:
            self._run_loop(max_blocks)
        except ReplayLogExhausted as exc:
            # A partial (crash-bundle) replay consumed its whole log:
            # stop cleanly at the exact recorded point instead of
            # treating the truncation as a divergence.  The interrupted
            # thread may still hold the big lock.
            self.stopped_reason = "replay-exhausted"
            self.replay_exhausted_at = (exc.index, exc.pc, exc.insns)
            self._exit = ProcessExit(int(ExitCode.REPLAY_EXHAUSTED))
            if self.big_lock.holder is not None:
                self.big_lock.release(self.big_lock.holder)
        exit_code = self._exit.status if self._exit else 0
        outcome = RunOutcome(
            exit_code=exit_code,
            fatal_signal=self.fatal_signal,
            blocks_executed=self.dispatcher.stats.blocks_executed,
            guest_insns=self.guest_insns(),
            translations=self.translator.translations_made,
            stopped_reason=self.stopped_reason,
            fault_info=self.fault_info,
        )
        if self.rr is not None:
            # Record the final outcome — or, on replay, verify it against
            # the recording and assert the log was consumed completely.
            self.rr.finish(outcome)
        return outcome

    def _run_loop(self, max_blocks: Optional[int]) -> None:
        # tid -> join target; rebuilt from thread statuses so a --restore
        # resumed mid-run re-learns who was blocked at the checkpoint.
        blocked: Dict[int, int] = {
            tid: ts.joining
            for tid, ts in self.threads.items()
            if ts.status is ThreadStatus.WAIT_JOIN and ts.joining is not None
        }
        total_budget = max_blocks
        while self._exit is None:
            # Wake joiners whose target has died.
            for tid, target in list(blocked.items()):
                if target in self._zombies:
                    ts = self.threads[tid]
                    ts.set_reg(0, self._zombies[target])
                    ts.status = ThreadStatus.RUNNABLE
                    del blocked[tid]
                    self._run_queue.append(tid)
            if not self._run_queue:
                if blocked:
                    # A guest-caused condition, not a host error: finish
                    # with a clean outcome the harness can inspect.
                    self.stopped_reason = "deadlock"
                    self.core.log(
                        f"=={self.kernel.pid}== process deadlocked: "
                        "all client threads blocked; terminating"
                    )
                    self._exit = ProcessExit(int(ExitCode.DEADLOCK))
                    break
                self._exit = ProcessExit(0)
                break
            rr = self.rr
            if self._resume_slice_left is not None:
                # Synthetic first pick after --restore: the interrupted
                # thread resumes with its remaining timeslice; neither
                # side records/consumes a schedule event for it.
                tid = self._run_queue.pop(0)
                slice_left = self._resume_slice_left
                self._resume_slice_left = None
            elif rr is not None and rr.replaying:
                tid = rr.next_thread(self._run_queue, self.threads)
                slice_left = self.options.thread_timeslice
            else:
                tid = self._run_queue.pop(0)
                if tid not in self.threads:
                    continue
                if rr is not None:
                    rr.thread_scheduled(tid)
                slice_left = self.options.thread_timeslice
            self.current_tid = tid
            ts = self.threads[tid]
            self.big_lock.acquire(tid)
            reschedule = True  # requeue the thread when its slice ends
            while slice_left > 0 and self._exit is None:
                self._check_signals(tid)
                if self._exit is not None or tid not in self.threads:
                    reschedule = tid in self.threads
                    break
                if total_budget is not None:
                    if self.dispatcher.stats.blocks_executed >= total_budget:
                        self.stopped_reason = "block-budget"
                        self._exit = ProcessExit(int(ExitCode.BLOCK_BUDGET))
                        break
                if rr is not None:
                    # One step per inner iteration, counted identically
                    # under record and replay: the unambiguous key for
                    # dispatch-level injection events.
                    self._step += 1
                    if rr.replaying:
                        name = rr.pending_inject(self._step)
                        if name is not None:
                            self._inject_dispatch_event(tid, ts, name)
                            continue
                    elif self.injector is not None:
                        event = self.injector.dispatch_event()
                        if event is not None:
                            rr.inject_fired(event, self._step, tid)
                            self._inject_dispatch_event(tid, ts, event)
                            continue
                    self.dispatcher.stop_at_insns = rr.next_stop(
                        self.dispatcher.guest_insns
                    )
                elif self.injector is not None:
                    event = self.injector.dispatch_event()
                    if event is not None:
                        self._inject_dispatch_event(tid, ts, event)
                        continue
                try:
                    reason, payload = self.dispatcher.run(ts, max_blocks=slice_left)
                except (GuestFault, ZeroDivisionError) as exc:
                    # Backstop for a fault raised outside a runner call
                    # (the dispatcher recovers those precisely): classify
                    # it from the exception at the current state.
                    si = self._siginfo_for(exc, ts.pc)
                    self.post_fault(tid, si.sig, si)
                    continue
                if reason == "quantum":
                    slice_left -= self.options.dispatch_quantum
                    if rr is not None and hasattr(rr, "autoflush"):
                        rr.autoflush()
                    if self.on_progress is not None:
                        self.on_progress(self.dispatcher.guest_insns)
                    continue
                if reason == "signals":
                    # A pending async signal was observed mid-quantum.
                    slice_left -= max(1, payload)
                    continue
                if reason == "insns":
                    # Checkpoint boundary: snapshot (record) or verify the
                    # state hash against the log (replay), then continue.
                    slice_left -= max(1, payload)
                    if rr is not None:
                        rr.at_insns_stop(tid, slice_left)
                    if self.on_progress is not None:
                        self.on_progress(self.dispatcher.guest_insns)
                    continue
                if reason == "fault":
                    # Precise synchronous fault: the dispatcher already
                    # committed the faulting instruction boundary.
                    self.post_fault(tid, payload.sig, payload)
                    continue
                if reason == "translate":
                    if not self._make_translation(tid, payload):
                        continue  # fault was posted
                    continue
                if reason == "smc":
                    # Stale translation: discard and retranslate.
                    if rr is not None:
                        rr.smc_flush(tid, payload.guest_addr)
                    self.transtab.discard(payload.guest_addr)
                    self.dispatcher.flush_cache()
                    continue
                # reason == "jumpkind"
                jk = payload
                if jk == JumpKind.Exit.value:
                    self._exit = ProcessExit(ts.reg(0))
                    break
                if jk == JumpKind.Syscall.value:
                    try:
                        if self._handle_syscall(tid) == "blocked":
                            blocked[tid] = ts.joining
                            reschedule = False
                            break  # drop the lock before blocking
                    except ProcessExit as exc:
                        self._exit = exc
                        break
                    except GuestFault as f:
                        # A wrapper touched a bad guest pointer before the
                        # kernel could return EFAULT: treat as the fault
                        # the access was.
                        si = SigInfo(K.SIGSEGV, addr=f.addr, access=f.access,
                                     pc=ts.pc)
                        self.post_fault(tid, K.SIGSEGV, si)
                        continue
                    if tid not in self.threads:
                        reschedule = False
                        break
                    continue
                if jk == JumpKind.LCall.value:
                    try:
                        self._handle_lcall(tid)
                    except ProcessExit as exc:
                        self._exit = exc
                        break
                    except GuestFault as f:
                        self.post_fault(tid, K.SIGSEGV,
                                        SigInfo(K.SIGSEGV, addr=f.addr,
                                                access=f.access, pc=ts.pc))
                    if tid not in self.threads:
                        reschedule = False
                        break
                    continue
                if jk == JumpKind.ClientReq.value:
                    self._handle_client_request(tid)
                    continue
                if jk == JumpKind.Yield.value:
                    break  # voluntary switch
                if jk == JumpKind.SigFPE.value:
                    # The guard exit set ts.pc to the faulting instruction.
                    self.post_fault(tid, K.SIGFPE,
                                    SigInfo(K.SIGFPE, addr=ts.pc, access="fpe",
                                            pc=ts.pc))
                    continue
                if jk == JumpKind.SigSEGV.value:
                    self.post_fault(tid, K.SIGSEGV,
                                    SigInfo(K.SIGSEGV, addr=ts.pc, pc=ts.pc))
                    continue
                if jk == JumpKind.NoDecode.value:
                    self.post_fault(tid, K.SIGILL,
                                    SigInfo(K.SIGILL, addr=ts.pc, access="ill",
                                            pc=ts.pc))
                    continue
                raise RuntimeError(f"unhandled jump kind {jk}")
            self.big_lock.release(tid)
            if self._exit is None and reschedule and tid in self.threads:
                self._run_queue.append(tid)

    def _inject_dispatch_event(self, tid: int, ts, event: str) -> None:
        """Apply one scheduled --inject dispatch event."""
        if event == "segv":
            si = SigInfo(K.SIGSEGV, addr=ts.pc, access="synthetic", pc=ts.pc)
            self.post_fault(tid, K.SIGSEGV, si)
        elif event == "smc-flush":
            # Spurious self-modifying-code invalidation of the current
            # block (exercises discard + retranslate).
            t = self.transtab.lookup(ts.pc)
            if t is not None:
                self.transtab.discard(t.guest_addr)
                self.dispatcher.flush_cache()
        elif event == "evict":
            # Forced eviction round (exercises chain severing).
            self.transtab.evict_chunk()
            self.dispatcher.flush_cache()

    def _make_translation(self, tid: int, pc: int) -> bool:
        """Translate the block at *pc* (honouring redirects); False if a
        fault was posted instead."""
        target = self.redirector.resolve(pc)
        try:
            t = self.translator.translate(target)
        except TranslationFault as exc:
            addr = getattr(exc, "addr", pc)
            self.post_fault(tid, K.SIGSEGV,
                            SigInfo(K.SIGSEGV, addr=addr, access="exec", pc=pc))
            return False
        except GuestFault as exc:
            self.post_fault(tid, K.SIGSEGV,
                            SigInfo(K.SIGSEGV, addr=exc.addr, access=exc.access,
                                    pc=pc))
            return False
        except CPUError:
            self.post_fault(tid, K.SIGILL,
                            SigInfo(K.SIGILL, addr=pc, access="ill", pc=pc))
            return False
        except ProcessExit:
            raise
        except Exception as exc:
            # An internal error in the translation pipeline (isel,
            # regalloc, assembly, an injected JIT failure, ...) must not
            # kill the run: quarantine the block into the IR interpreter.
            t = self._quarantine_translation(target, exc)
            if t is None:
                self.post_fault(tid, K.SIGILL,
                                SigInfo(K.SIGILL, addr=pc, access="ill", pc=pc))
                return False
        t.guest_addr = pc  # key under the *requested* address
        ts = self.threads[tid]
        t.smc_checked = self.smc.should_check(t, ts.stack_base, ts.stack_limit)
        self.transtab.insert(t)
        return True

    # -- checkpoint restore ---------------------------------------------------------------

    def _restore_translations(self, entries) -> None:
        """Rebuild the translation table from snapshot entries in their
        recorded eviction order, so post-restore lookup/translate points
        match the original run's warm caches."""
        saved_hook = self.translator.fail_hook
        self.translator.fail_hook = None
        if self.rr is not None:
            self.rr.suspend()
        try:
            for addr, smc_checked, quarantined, smc_hash in entries:
                target = self.redirector.resolve(addr)
                try:
                    if quarantined:
                        t = self.translator.translate_interp(target)
                    else:
                        t = self.translator.translate(target)
                except Exception:
                    # The code bytes may be gone or undecodable now: the
                    # block simply retranslates on demand, as after any
                    # discard.
                    continue
                t.guest_addr = addr
                t.smc_checked = bool(smc_checked)
                # Preserve the recorded content hash: a translation stale
                # at checkpoint time must fail its SMC recheck after
                # restore exactly as the original would have.
                t.smc_hash = smc_hash
                self.transtab.insert(t, evict_ok=False)
        finally:
            self.translator.fail_hook = saved_hook
            if self.rr is not None:
                self.rr.resume()
        self.dispatcher.flush_cache()

    def restore_from(self, path: str) -> None:
        """Resume this run from the last checkpoint in *path*'s log."""
        if self.rr is not None and self.rr.replaying:
            if path != self.options.replay:
                raise BadOption(
                    "--restore under --replay must name the --replay log"
                )
            log = self.rr.log
        else:
            log = EventLog.load(path)
        found = None
        for i, ev in enumerate(log.events):
            if ev.kind == EV_CHECKPOINT:
                found = (i, ev.args[0])
        if found is None:
            raise ReplayFormatError(
                f"log {path!r} contains no checkpoints to restore from "
                "(record with --checkpoint-every=N)"
            )
        index, ckpt_idx = found
        snap = unpack_obj(log.checkpoints[ckpt_idx])
        if self.rr is not None:
            self.rr.suspend()
        try:
            apply_snapshot(self, snap)
        finally:
            if self.rr is not None:
                self.rr.resume()
        # Tools attached before the restore saw none of this memory:
        # announce every mapped range so shadow state exists.  (Tool
        # *error* output after a restore may differ from the original
        # run; architected replay stays exact.)
        for start, size, prot in self.memory.mapped_ranges():
            self.events.fire(
                "new_mem_mmap", start, size,
                bool(prot & 4), bool(prot & 2), bool(prot & 1),
            )
        if self.rr is not None:
            if self.rr.replaying:
                # Everything before the checkpoint was consumed by the
                # restore itself; replay resumes right after it.
                self.rr.seek_to(index + 1)
            else:
                # Record-from-restore: open the new log with the starting
                # snapshot so its own replay can resume the same way.
                self.rr.bootstrap(snap)


def _track_sp_change(env: ExecEnv, old_sp: int, new_sp: int) -> int:
    """Dirty helper: classify an SP change and fire the R7 stack events.

    Follows the paper's heuristic: changes larger than --max-stackframe
    (2MB by default) are assumed to be stack switches, not allocations;
    client-registered stacks resolve the tricky cases exactly.
    """
    if new_sp == old_sp:
        return 0
    sched: Scheduler = env._sched
    events = sched.events
    threshold = sched.options.max_stackframe
    delta = (old_sp - new_sp) & M32
    # Interpret as a signed distance.
    sdelta = delta - (1 << 32) if delta & 0x8000_0000 else delta
    if abs(sdelta) > threshold or _different_registered_stack(sched, old_sp, new_sp):
        events.fire("pre_stack_switch", old_sp, new_sp)
        ts = sched.current_ts
        reg = sched.registered_stacks.containing(new_sp)
        if reg is not None:
            _sid, start, end = reg
            ts.stack_base, ts.stack_limit = start, end
        return 0
    if sdelta > 0:  # SP moved down: allocation
        events.fire("new_mem_stack", new_sp, sdelta)
    else:  # SP moved up: deallocation
        events.fire("die_mem_stack", old_sp, -sdelta)
    return 0


def _different_registered_stack(sched: Scheduler, old_sp: int, new_sp: int) -> bool:
    old = sched.registered_stacks.containing(old_sp)
    new = sched.registered_stacks.containing(new_sp)
    return old is not None and new is not None and old[0] != new[0]
