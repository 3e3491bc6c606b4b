"""The hx host CPU emulator.

Executes *assembled* translations (the byte strings Phase 8 produces and
the translation table stores).  Each translation's bytes are decoded and
compiled into a list of Python closures once, then cached on the
translation, so repeated executions — the overwhelmingly common case —
pay only the closure-dispatch cost.

Guest faults (unmapped/forbidden memory, division by zero) propagate as
exceptions; the scheduler turns them into guest signals.  The ThreadState
PC is kept precise by the PUT(pc)s the front-end emits, so fault reporting
can trust ``ts.pc``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..guest.regs import CALL_SAVE_BASE, SPILL_AREA_BASE, SPILL_SLOT_SIZE
from ..ir.helpers import HelperRegistry
from ..ir.ops import get_op
from ..ir.types import Ty
from ..ir.values import from_bytes, to_bytes
from ..kernel.memory import GuestMemory
from .isel import MC_LOADV_SIZES, MC_STOREV_SIZES
from .hostisa import (
    BIN,
    CALL,
    CSEL,
    HInsn,
    LDG,
    LDM,
    LI,
    LIF,
    MOVR,
    NUM_REGS,
    RC,
    RELOAD,
    RET,
    Reg,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    SIDEEXITR,
    SPILL,
    STG,
    STM,
    Slot,
    TRACEMARK,
    UN,
    decode_insns,
)


class HostCPU:
    """Executes assembled host code against a ThreadState + guest memory."""

    def __init__(self, memory: GuestMemory, helpers: HelperRegistry, env: object):
        self.mem = memory
        self.helpers = helpers
        #: Execution environment handed to dirty helpers.
        self.env = env
        # Register files are instance state: translations never nest.
        self.ir: List[int] = [0] * NUM_REGS[RC.INT]
        self.fr: List[float] = [0.0] * NUM_REGS[RC.FLT]
        self.vr: List[int] = [0] * NUM_REGS[RC.VEC]
        #: Current thread's state, set by run().
        self.ts = None
        #: Total host instructions executed (a deterministic cost metric).
        self.host_insns = 0
        #: Guest instructions (IMarks) completed by the most recent exit;
        #: set by the SIDEEXIT/RET closures, read back by run().
        self._exit_icnt = 0
        #: Index of the member block the current trace-tier execution has
        #: reached (set by TRACEMARK); the dispatcher reads it back to
        #: account completed blocks exactly on trace faults/side exits.
        self.trace_blocks = 0
        #: Content-addressed pygen-tier cache (see repro.backend.pygen):
        #: host code bytes -> one shared specialized-function runner.
        self._pygen_cache: Dict[bytes, Callable] = {}
        self.pygen_cache_hits = 0
        self.pygen_cache_misses = 0
        #: pygen source texts this cpu had to compile() (the rest came
        #: from the process-wide or the persistent code cache).
        self.pygen_compiles = 0
        #: Persistent code cache (core.codecache), set by the scheduler
        #: under --cache-dir: compile_pygen_code and the trace builder
        #: round-trip their content-addressed payloads through it.
        self.codecache = None
        #: Memcheck shadow fast paths (backend.isel tables): the
        #: scheduler binds the tool's shadow page-map accessors here
        #: before any block compiles; pygen-emitted code closes over
        #: them as ``_vsg``/``_vsw``, and the closure tier's CALL
        #: builder wraps matching helpers in the same inline probe.
        #: ``shadow_counters`` is [fast_loads, fast_stores, slow_loads,
        #: slow_stores], bumped by the inlined fast paths only.
        self.shadow_fastpath = False
        self.shadow_rd_get = None
        self.shadow_wr_get = None
        self.shadow_counters = [0, 0, 0, 0]

    # -- compilation -------------------------------------------------------------

    def _file(self, rc: RC) -> list:
        return {RC.INT: self.ir, RC.FLT: self.fr, RC.VEC: self.vr}[rc]

    def compile(self, code: bytes) -> List[Callable[[], Optional[str]]]:
        """Decode + compile assembled bytes into executable closures."""
        return [self._compile_insn(i) for i in decode_insns(code)]

    def _compile_insn(self, insn: HInsn) -> Callable[[], Optional[str]]:
        cpu = self
        mem = self.mem
        if isinstance(insn, LI):
            f = self._file(insn.dst.rc)
            d, imm = insn.dst.n, insn.imm

            def run():
                f[d] = imm
                return None

            return run
        if isinstance(insn, LIF):
            f = self._file(insn.dst.rc)
            d, imm = insn.dst.n, insn.imm

            def run():
                f[d] = imm
                return None

            return run
        if isinstance(insn, MOVR):
            fd, fs = self._file(insn.dst.rc), self._file(insn.src.rc)
            d, s = insn.dst.n, insn.src.n

            def run():
                fd[d] = fs[s]
                return None

            return run
        if isinstance(insn, BIN):
            op = get_op(insn.op).fn
            fd = self._file(insn.dst.rc)
            f1 = self._file(insn.src1.rc)
            f2 = self._file(insn.src2.rc)
            d, s1, s2 = insn.dst.n, insn.src1.n, insn.src2.n

            def run():
                fd[d] = op(f1[s1], f2[s2])
                return None

            return run
        if isinstance(insn, UN):
            op = get_op(insn.op).fn
            fd = self._file(insn.dst.rc)
            fs = self._file(insn.src.rc)
            d, s = insn.dst.n, insn.src.n

            def run():
                fd[d] = op(fs[s])
                return None

            return run
        if isinstance(insn, LDG):
            fd = self._file(insn.dst.rc)
            d, off, ty = insn.dst.n, insn.off, insn.ty
            if ty.is_int:
                size = ty.size
                end = off + size

                def run():
                    fd[d] = int.from_bytes(cpu.ts.data[off:end], "little")
                    return None

            else:

                def run():
                    fd[d] = cpu.ts.get(off, ty)
                    return None

            return run
        if isinstance(insn, STG):
            fs = self._file(insn.src.rc)
            s, off, ty = insn.src.n, insn.off, insn.ty
            if ty.is_int:
                size = ty.size
                end = off + size

                def run():
                    cpu.ts.data[off:end] = fs[s].to_bytes(size, "little")
                    return None

            else:

                def run():
                    cpu.ts.put(off, ty, fs[s])
                    return None

            return run
        if isinstance(insn, LDM):
            fd = self._file(insn.dst.rc)
            fa = self._file(insn.addr.rc)
            d, a, ty = insn.dst.n, insn.addr.n, insn.ty
            if ty.is_int and ty.size <= 8:
                size = ty.size
                pages = mem._pages
                slow = mem.load
                from ..kernel.memory import PROT_READ as _PR

                def run():
                    addr = fa[a] & 0xFFFFFFFF
                    off = addr & 0xFFF
                    if off <= 4096 - size:
                        page = pages.get(addr >> 12)
                        if page is not None and page[1] & _PR:
                            fd[d] = int.from_bytes(
                                page[0][off : off + size], "little"
                            )
                            return None
                    fd[d] = slow(addr, ty)
                    return None

            else:

                def run():
                    fd[d] = mem.load(fa[a] & 0xFFFFFFFF, ty)
                    return None

            return run
        if isinstance(insn, STM):
            fa = self._file(insn.addr.rc)
            fs = self._file(insn.src.rc)
            a, s, ty = insn.addr.n, insn.src.n, insn.ty
            if ty.is_int and ty.size <= 8:
                size = ty.size
                pages = mem._pages
                slow = mem.store
                from ..kernel.memory import PROT_WRITE as _PW

                def run():
                    addr = fa[a] & 0xFFFFFFFF
                    off = addr & 0xFFF
                    if off <= 4096 - size:
                        page = pages.get(addr >> 12)
                        if page is not None and page[1] & _PW:
                            page[0][off : off + size] = fs[s].to_bytes(
                                size, "little"
                            )
                            return None
                    slow(addr, ty, fs[s])
                    return None

            else:

                def run():
                    mem.store(fa[a] & 0xFFFFFFFF, ty, fs[s])
                    return None

            return run
        if isinstance(insn, CSEL):
            fd = self._file(insn.dst.rc)
            fc = self._file(insn.cond.rc)
            fa = self._file(insn.a.rc)
            fb = self._file(insn.b.rc)
            d, c, a, b = insn.dst.n, insn.cond.n, insn.a.n, insn.b.n

            def run():
                fd[d] = fa[a] if fc[c] else fb[b]
                return None

            return run
        if isinstance(insn, CALL):
            helper = self.helpers.lookup(insn.helper)
            fn = helper.fn
            dirty = insn.dirty
            getters = []
            for arg in insn.args:
                if isinstance(arg, Reg):
                    fr = self._file(arg.rc)
                    getters.append(lambda fr=fr, n=arg.n: fr[n])
                elif isinstance(arg, Slot):
                    off = SPILL_AREA_BASE + arg.n * SPILL_SLOT_SIZE
                    getters.append(
                        lambda off=off, ty=arg.ty: cpu.ts.get(off, ty)
                    )
                else:  # ImmArg
                    getters.append(lambda v=arg.value: v)
            guard = insn.guard
            gfile = self._file(guard.rc) if guard is not None else None
            gn = guard.n if guard is not None else 0
            dst = insn.dst
            dfile = self._file(dst.rc) if dst is not None else None
            dn = dst.n if dst is not None else 0

            ir, fr = self.ir, self.fr
            save_lo = CALL_SAVE_BASE
            save_hi = CALL_SAVE_BASE + 64

            def run():
                if gfile is not None and not gfile[gn]:
                    return None
                # All host registers are caller-saved: the generated call
                # sequence stores the integer register file to the frame
                # area and restores it afterwards (this, plus the spills
                # the allocator inserts for values live across calls, is
                # what makes helper calls cost more than inline analysis
                # code on every platform).
                saved_i = ir[:]
                saved_f = fr[:]
                cpu.ts.data[save_lo:save_hi] = b"".join(
                    v.to_bytes(8, "little") for v in saved_i
                )
                args = [g() for g in getters]
                ret = fn(cpu.env, *args) if dirty else fn(*args)
                ir[:] = saved_i
                fr[:] = saved_f
                if dfile is not None:
                    dfile[dn] = ret
                return None

            # Memcheck LOADV/STOREV fast path (tables in backend.isel,
            # same shape as the pygen-emitted one): probe the shadow
            # read/write map, check the range's A bits, slice the V
            # bytes — skipping the caller-save sequence and the helper
            # body entirely.  Page miss, page cross, or any
            # unaddressable byte (the error-reporting path) falls into
            # the generic call above.  Argument getters are pure
            # register/slot/imm reads, so the slow path may re-read
            # them.
            if dirty and guard is None and cpu.shadow_fastpath:
                mc_load = MC_LOADV_SIZES.get(insn.helper)
                mc_store = MC_STOREV_SIZES.get(insn.helper)
                counters = cpu.shadow_counters
                if (mc_load is not None and dfile is not None
                        and len(getters) == 1):
                    size, last = mc_load, 4096 - mc_load
                    g0, rd_get, slow = getters[0], cpu.shadow_rd_get, run

                    def run():
                        a = g0() & 0xFFFFFFFF
                        o = a & 4095
                        if o <= last:
                            sp = rd_get(a >> 12)
                            if sp is not None and 0 not in sp[0][o : o + size]:
                                dfile[dn] = int.from_bytes(
                                    sp[1][o : o + size], "little"
                                )
                                counters[0] += 1
                                return None
                        counters[2] += 1
                        return slow()

                elif (mc_store is not None and dfile is None
                        and len(getters) == 2):
                    size, last = mc_store, 4096 - mc_store
                    g0, g1 = getters
                    wr_get, slow = cpu.shadow_wr_get, run

                    def run():
                        a = g0() & 0xFFFFFFFF
                        o = a & 4095
                        if o <= last:
                            sp = wr_get(a >> 12)
                            if sp is not None and 0 not in sp[0][o : o + size]:
                                sp[1][o : o + size] = g1().to_bytes(
                                    size, "little"
                                )
                                counters[1] += 1
                                return None
                        counters[3] += 1
                        return slow()

            return run
        if isinstance(insn, SIDEEXIT):
            fc = self._file(insn.cond.rc)
            c, dst, jk, icnt = insn.cond.n, insn.dst, insn.jk, insn.icnt

            def run():
                if fc[c]:
                    cpu.ts.pc = dst
                    cpu._exit_icnt = icnt
                    return jk
                return None

            return run
        if isinstance(insn, SIDEEXITR):
            fc = self._file(insn.cond.rc)
            fs = self._file(insn.src.rc)
            c, s, jk, icnt = insn.cond.n, insn.src.n, insn.jk, insn.icnt

            def run():
                if fc[c]:
                    cpu.ts.pc = fs[s] & 0xFFFFFFFF
                    cpu._exit_icnt = icnt
                    return jk
                return None

            return run
        if isinstance(insn, TRACEMARK):
            idx = insn.index

            def run():
                cpu.trace_blocks = idx
                return None

            return run
        if isinstance(insn, SETPCI):
            dst = insn.dst

            def run():
                cpu.ts.pc = dst
                return None

            return run
        if isinstance(insn, SETPCR):
            fs = self._file(insn.src.rc)
            s = insn.src.n

            def run():
                cpu.ts.pc = fs[s] & 0xFFFFFFFF
                return None

            return run
        if isinstance(insn, RET):
            jk, icnt = insn.jk, insn.icnt

            def run():
                cpu._exit_icnt = icnt
                return jk

            return run
        if isinstance(insn, SPILL):
            fs = self._file(insn.src.rc)
            s, ty = insn.src.n, insn.ty
            off = SPILL_AREA_BASE + insn.slot * SPILL_SLOT_SIZE
            if ty.is_int:
                size = ty.size
                end = off + size

                def run():
                    cpu.ts.data[off:end] = fs[s].to_bytes(size, "little")
                    return None

            else:

                def run():
                    cpu.ts.put(off, ty, fs[s])
                    return None

            return run
        if isinstance(insn, RELOAD):
            fd = self._file(insn.dst.rc)
            d, ty = insn.dst.n, insn.ty
            off = SPILL_AREA_BASE + insn.slot * SPILL_SLOT_SIZE
            if ty.is_int:
                end = off + ty.size

                def run():
                    fd[d] = int.from_bytes(cpu.ts.data[off:end], "little")
                    return None

            else:

                def run():
                    fd[d] = cpu.ts.get(off, ty)
                    return None

            return run
        raise TypeError(f"cannot compile {insn!r}")  # pragma: no cover

    # -- execution ---------------------------------------------------------------

    def run(
        self, compiled: Sequence[Callable[[], Optional[str]]], ts
    ) -> Tuple[str, int]:
        """Execute one compiled translation.

        Returns ``(jump-kind, guest_insns)`` where *guest_insns* is the
        exact number of guest instructions (IMarks) the execution
        completed — exact even on side exits.
        """
        self.ts = ts
        self._exit_icnt = 0
        i = 0
        n = len(compiled)
        while i < n:
            r = compiled[i]()
            i += 1
            if r is not None:
                self.host_insns += i
                return r, self._exit_icnt
        self.host_insns += n
        raise RuntimeError("translation fell off the end (missing RET)")

    def compile_fn(self, code: bytes) -> Callable:
        """Compile assembled bytes into a closure-tier block runner.

        The runner has the signature every tier's
        ``Translation.compiled_fn`` shares,
        ``runner(ts) -> (jump-kind, guest_insns)``, and is exactly
        ``run(compile(code), ts)``.
        """
        compiled = self.compile(code)
        run = self.run

        def runner(ts):
            return run(compiled, ts)

        return runner

    def compile_pygen(self, code: bytes) -> Callable:
        """Compile assembled bytes into a pygen-tier specialized function.

        Memoized content-addressed (keyed by the code bytes themselves),
        so byte-identical translations share one runner and pay the
        compilation cost once.  The runner has the same
        ``runner(ts) -> (jump-kind, guest_insns)`` signature as
        :meth:`compile_fn`, so the tiers are interchangeable mid-run (see
        repro.backend.pygen).
        """
        fn = self._pygen_cache.get(code)
        if fn is not None:
            self.pygen_cache_hits += 1
            return fn
        self.pygen_cache_misses += 1
        from .pygen import compile_pygen_code

        fn = compile_pygen_code(self, code)
        self._pygen_cache[code] = fn
        return fn

    def flush_code_cache(self) -> None:
        """Drop all memoized pygen runners (content-addressed entries
        never go *stale* — identical bytes mean identical semantics — so
        this only exists to bound memory and for tests)."""
        self._pygen_cache.clear()
