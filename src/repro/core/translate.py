"""The eight-phase translation pipeline (Section 3.7).

========  ==========================  ===========================
Phase     What                        Module
========  ==========================  ===========================
1         disassembly (arch-specific) :mod:`repro.frontend.disasm`
2         optimisation 1              :mod:`repro.opt.opt1`
3         instrumentation (the tool)  the tool plug-in
(3b)      SP-change event calls       here (on the tool's behalf)
4         optimisation 2              :mod:`repro.opt.opt2`
5         tree building               :mod:`repro.opt.treebuild`
6         instruction selection*      :mod:`repro.backend.isel`
7         register allocation         :mod:`repro.backend.regalloc`
8         assembly*                   :mod:`repro.backend.hostisa`
========  ==========================  ===========================

All phases are performed by the core except instrumentation, which is
performed by the tool.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..frontend.disasm import Disassembler
from ..frontend.spec import vx32_spec_helper
from ..guest.regs import SP, gpr_offset
from ..ir.block import IRSB
from ..ir.expr import Expr, Get, RdTmp
from ..ir.stmt import Dirty, IMark, Put, StateFx, Stmt
from ..ir.types import Ty
from ..ir.validate import validate
from ..opt.opt1 import optimise1
from ..opt.opt2 import optimise2
from ..opt.treebuild import build_trees
from ..backend.hostisa import encode_insns
from ..backend.isel import select
from ..backend.regalloc import AllocStats, allocate
from .options import Options
from .tool import Tool

#: Dirty helper the core inserts after every SP write when the tool tracks
#: stack events (R7).  Registered by the scheduler.
SP_TRACK_HELPER = "vg_track_sp_change"


@dataclass
class TranslationStats:
    """Per-translation pipeline statistics (feeds several benches)."""

    guest_insns: int = 0
    stmts_disasm: int = 0
    stmts_opt1: int = 0
    stmts_instrumented: int = 0
    stmts_opt2: int = 0
    host_insns: int = 0
    alloc: Optional[AllocStats] = None
    phase_seconds: dict = field(default_factory=dict)


@dataclass
class Translation:
    """One finished translation, as stored in the translation table."""

    guest_addr: int
    #: Assembled host machine code (Phase 8 output).
    code: bytes
    #: Guest address ranges covered (start, len) — more than one when the
    #: disassembler chased unconditional branches.
    ranges: Tuple[Tuple[int, int], ...]
    #: CRC of the original guest bytes, for self-modifying-code checking
    #: (None when SMC checking is off for this translation).
    smc_hash: Optional[int] = None
    stats: TranslationStats = field(default_factory=TranslationStats)
    #: Host closures, compiled lazily by the dispatcher (closure tier).
    compiled: Optional[list] = None
    #: The block runner ``fn(ts) -> (jump-kind, guest_insns)`` of every
    #: other tier, attached on first execution (see core.codegen).
    compiled_fn: Optional[object] = None
    #: Chaining: the first successor observed after a Boring exit.
    chain_next: Optional["Translation"] = None
    #: Chaining: the first successor observed after a Call / Ret (kept
    #: separate so call/return targets don't thrash the Boring link).
    chain_call: Optional["Translation"] = None
    chain_ret: Optional["Translation"] = None
    #: Monotonic insertion number (set by the translation table; FIFO evict).
    serial: int = 0
    #: Set when evicted/discarded, so stale chain pointers are not followed.
    dead: bool = False
    #: Last-use counter (only maintained under the LRU ablation policy).
    last_used: int = 0
    #: True if the SMC hash must be re-checked before every execution
    #: (Section 3.16: by default, only translations of on-stack code).
    smc_checked: bool = False
    #: True if the JIT back-end failed for this block and it executes
    #: through the IR interpreter instead (graceful degradation).
    quarantined: bool = False
    #: Codegen tier this block currently executes in ("closures",
    #: "pygen", "interp"); None until first attached (see core.codegen).
    tier: Optional[str] = None
    #: Executions counted towards --trace-threshold (core.codegen).
    exec_count: int = 0
    #: True if a pygen compile failed for this block (real or injected):
    #: it stays demoted in the closure tier, never retried.
    pygen_failed: bool = False
    #: True if building a trace headed at this block failed: the block
    #: stays in the pygen tier and is never re-recorded (core.traces).
    trace_failed: bool = False
    #: The live trace headed at this block, if any: the dispatcher's
    #: superblock probe is one attribute load on the block it already
    #: resolved, so the non-trace fast path pays no map lookup
    #: (core.traces maintains this on build / sever / prune).
    trace: Optional[object] = None
    #: The instrumented flat IR, kept for quarantined translations (the
    #: interpreter runner executes it directly) and under traces mode
    #: (the stitcher stitches member IR without re-translating).
    irsb: Optional[IRSB] = None

    @property
    def guest_len(self) -> int:
        return sum(length for _, length in self.ranges)

    def covers(self, addr: int, size: int = 1) -> bool:
        return any(
            start < addr + size and addr < start + length
            for start, length in self.ranges
        )


def _imark_ranges(sb: IRSB) -> Tuple[Tuple[int, int], ...]:
    """Coalesce the block's IMarks into covered guest ranges."""
    ranges: List[Tuple[int, int]] = []
    for s in sb.stmts:
        if isinstance(s, IMark):
            if ranges and ranges[-1][0] + ranges[-1][1] == s.addr:
                start, length = ranges[-1]
                ranges[-1] = (start, length + s.length)
            else:
                ranges.append((s.addr, s.length))
    return tuple(ranges)


def add_sp_tracking(sb: IRSB) -> IRSB:
    """Insert SP-change event calls after every stack-pointer PUT.

    "The core instruments the code with calls to the event callbacks on
    the tool's behalf" (Section 3.12).  The helper receives the old and
    new SP and dispatches new_mem_stack/die_mem_stack (or the stack-switch
    heuristic) at run time.
    """
    sp_off = gpr_offset(SP)
    out = sb.copy()
    stmts: List[Stmt] = []
    for s in out.stmts:
        if isinstance(s, Put) and s.offset == sp_off:
            told = out.new_tmp(Ty.I32)
            stmts.append(
                # Capture the old SP before the PUT...
                _wrtmp(told, Get(sp_off, Ty.I32))
            )
            stmts.append(s)
            # ...and report the change after it.
            stmts.append(
                Dirty(
                    SP_TRACK_HELPER,
                    (RdTmp(told), s.data),
                    state_fx=(StateFx(False, sp_off, 4),),
                )
            )
        else:
            stmts.append(s)
    out.stmts = stmts
    return out


def _wrtmp(tmp: int, data: Expr) -> Stmt:
    from ..ir.stmt import WrTmp

    return WrTmp(tmp, data)


class Translator:
    """Runs the pipeline for one core instance."""

    def __init__(
        self,
        fetch: Callable[[int, int], bytes],
        tool: Tool,
        options: Options,
        *,
        track_stack_events: bool = False,
        collect_phase_times: bool = False,
    ):
        self.disasm = Disassembler(fetch)
        self._fetch = fetch
        self.tool = tool
        self.options = options
        self.track_stack_events = track_stack_events
        self.collect_phase_times = collect_phase_times
        #: Cumulative pipeline statistics.
        self.translations_made = 0
        #: Fault-injection hook, called with the block address just before
        #: instruction selection; may raise to simulate an internal JIT
        #: failure (exercises the quarantine path).
        self.fail_hook: Optional[Callable[[int], None]] = None
        #: Persistent translation cache view (core.codecache), bound by
        #: the scheduler under --cache-dir; None runs every block through
        #: the full pipeline.
        self.cache = None

    def translate(self, addr: int) -> Translation:
        """Translate the code block at guest address *addr*."""
        opts = self.options
        if self.cache is not None:
            hit = self.cache.lookup(addr, self._fetch)
            if hit is not None:
                # The fail hook fires exactly once per translate() on the
                # cold path (just before isel), so it must fire on the hit
                # path too: --inject=isel@N plans and chaos/replay runs
                # stay deterministic warm vs cold.  A raise here follows
                # the same quarantine route as a cold pipeline failure —
                # before the entry is consumed or counted.
                if self.fail_hook is not None:
                    self.fail_hook(addr)
                self.translations_made += 1
                return self._from_cache(addr, hit, opts)
        stats = TranslationStats()
        times = stats.phase_seconds
        clock = time.perf_counter if self.collect_phase_times else None

        def tick(name: str, t0: float) -> float:
            if clock is None:
                return 0.0
            t1 = clock()
            times[name] = times.get(name, 0.0) + (t1 - t0)
            return t1

        t0 = clock() if clock else 0.0
        # Phase 1: disassembly.
        sb = self.disasm.disasm_block(addr)
        stats.guest_insns = sum(1 for s in sb.stmts if isinstance(s, IMark))
        stats.stmts_disasm = sb.num_real_stmts()
        ranges = _imark_ranges(sb)
        if opts.sanity_level >= 2:
            validate(sb)
        t0 = tick("disasm", t0)

        # Phase 2: optimisation 1 (includes flattening).
        if opts.opt1:
            sb = optimise1(sb, spec_helper=vx32_spec_helper, unroll=opts.unroll)
        else:
            from ..opt.flatten import flatten

            sb = flatten(sb)
        stats.stmts_opt1 = sb.num_real_stmts()
        if opts.sanity_level >= 1:
            validate(sb, flat=True)
        t0 = tick("opt1", t0)

        # Phase 3: instrumentation, performed by the tool.
        sb = self.tool.instrument(sb)
        if self.track_stack_events:
            sb = add_sp_tracking(sb)
        stats.stmts_instrumented = sb.num_real_stmts()
        if opts.sanity_level >= 1:
            validate(sb, flat=True)
        t0 = tick("instrument", t0)

        # Phase 4: optimisation 2.
        if opts.opt2:
            sb = optimise2(sb, spec_helper=vx32_spec_helper)
        stats.stmts_opt2 = sb.num_real_stmts()
        t0 = tick("opt2", t0)

        if opts.trace_translations:
            from ..ir.pretty import fmt_irsb

            print(f"==== translation at {addr:#x} "
                  f"({stats.guest_insns} guest insns) ====")
            print(fmt_irsb(sb))

        # Phase 5: tree building.
        tree = build_trees(sb)
        if opts.sanity_level >= 2:
            validate(tree)
        t0 = tick("treebuild", t0)

        # Phase 6: instruction selection.
        if self.fail_hook is not None:
            self.fail_hook(addr)
        vcode = select(tree)
        t0 = tick("isel", t0)

        # Phase 7: register allocation.
        hcode, alloc_stats = allocate(vcode)
        stats.alloc = alloc_stats
        stats.host_insns = len(hcode)
        t0 = tick("regalloc", t0)

        # Phase 8: assembly.
        code = encode_insns(hcode)
        tick("assemble", t0)

        smc_hash = None
        if opts.smc_check != "none" or opts.codegen == "traces":
            # Traces mode always hashes: a trace build re-verifies every
            # member against its translation-time bytes, even when SMC
            # checking itself is off.
            smc_hash = hash_guest_ranges(self._fetch, ranges)

        self.translations_made += 1
        if self.cache is not None:
            from dataclasses import replace as _dc_replace

            # Phase timings are wall-clock noise; persist the structural
            # counters only, so warm and cold entries are byte-identical.
            self.cache.store(
                addr, self._fetch, code=code, ranges=ranges, irsb=sb,
                stats=_dc_replace(stats, phase_seconds={}),
            )
        return Translation(
            guest_addr=addr,
            code=code,
            ranges=ranges,
            smc_hash=smc_hash,
            stats=stats,
            # Traces mode keeps the flat instrumented IR so the stitcher
            # reuses it instead of re-running Phases 1-4 per member.
            irsb=sb if opts.codegen == "traces" else None,
        )

    def _from_cache(self, addr: int, hit: dict, opts: Options) -> Translation:
        """Materialize a Translation from a verified cache entry.

        The entry's guest bytes were already re-fetched and digest-checked
        by the lookup, which also recomputed ``smc_crc`` from those exact
        bytes — so the SMC hash matches what a cold translation of the
        current memory image would have produced.
        """
        smc_hash = None
        if opts.smc_check != "none" or opts.codegen == "traces":
            smc_hash = hit["smc_crc"]
        stats = hit.get("stats")
        if not isinstance(stats, TranslationStats):
            stats = TranslationStats()
        return Translation(
            guest_addr=addr,
            code=hit["code"],
            ranges=hit["ranges"],
            smc_hash=smc_hash,
            stats=stats,
            irsb=hit["irsb"] if opts.codegen == "traces" else None,
        )

    def front_ir(self, addr: int) -> Tuple[IRSB, Tuple[Tuple[int, int], ...], int]:
        """Run the front half of the pipeline (Phases 1-4) for *addr*.

        Returns ``(flat instrumented IR, guest ranges, guest insns)``.
        Used by the trace stitcher (core.traces) to regenerate member
        blocks' IR; deliberately does NOT bump ``translations_made`` —
        traces live outside the translation table and must not perturb
        the record/replay translation accounting.
        """
        opts = self.options
        sb = self.disasm.disasm_block(addr)
        guest_insns = sum(1 for s in sb.stmts if isinstance(s, IMark))
        ranges = _imark_ranges(sb)
        if opts.opt1:
            sb = optimise1(sb, spec_helper=vx32_spec_helper, unroll=opts.unroll)
        else:
            from ..opt.flatten import flatten

            sb = flatten(sb)
        sb = self.tool.instrument(sb)
        if self.track_stack_events:
            sb = add_sp_tracking(sb)
        if opts.opt2:
            sb = optimise2(sb, spec_helper=vx32_spec_helper)
        if opts.sanity_level >= 1:
            validate(sb, flat=True)
        return sb, ranges, guest_insns


    def translate_interp(self, addr: int) -> Translation:
        """Build an interpreter-backed translation for the block at *addr*.

        Runs only the front half of the pipeline — disassembly, flattening
        and instrumentation — and stores the flat IR on the translation for
        direct execution by :func:`make_interp_runner`.  Used as the
        graceful-degradation path when the JIT back-end (isel / regalloc /
        runner compilation) fails for one block: the guest keeps running,
        just slower, instead of the whole process dying.
        """
        opts = self.options
        stats = TranslationStats()
        sb = self.disasm.disasm_block(addr)
        stats.guest_insns = sum(1 for s in sb.stmts if isinstance(s, IMark))
        stats.stmts_disasm = sb.num_real_stmts()
        ranges = _imark_ranges(sb)

        from ..opt.flatten import flatten

        sb = flatten(sb)
        try:
            inst = self.tool.instrument(sb)
            if self.track_stack_events:
                inst = add_sp_tracking(inst)
            validate(inst, flat=True)
            sb = inst
        except Exception:
            # The tool's instrumentation may itself be what broke; a
            # quarantined block runs uninstrumented rather than not at all.
            pass
        stats.stmts_instrumented = sb.num_real_stmts()

        smc_hash = None
        if opts.smc_check != "none":
            smc_hash = hash_guest_ranges(self._fetch, ranges)

        self.translations_made += 1
        return Translation(
            guest_addr=addr,
            code=b"",
            ranges=ranges,
            smc_hash=smc_hash,
            stats=stats,
            quarantined=True,
            irsb=sb,
        )


def make_interp_runner(sb: IRSB, helpers, env, mem):
    """Build a block runner executing *sb* through the IR interpreter.

    The result has the same signature as every tier's compiled runner —
    ``runner(ts) -> (jump-kind, guest_insns)`` — so quarantined
    translations plug into the dispatch loop unchanged.
    """
    from ..ir.interp import IRInterpreter
    from ..ir.stmt import Exit, NoOp, Store, WrTmp

    interp = IRInterpreter(helpers, env)
    stmts = sb.stmts
    jk_final = sb.jumpkind.value
    nxt_expr = sb.next
    M32 = 0xFFFFFFFF

    class _State:
        __slots__ = ("ts",)

        def __init__(self, ts):
            self.ts = ts

        def get(self, offset, ty):
            return self.ts.get(offset, ty)

        def put(self, offset, ty, value):
            self.ts.put(offset, ty, value)

        def load(self, addr, ty):
            return mem.load(addr & M32, ty)

        def store(self, addr, ty, value):
            mem.store(addr & M32, ty, value)

    def runner(ts):
        state = _State(ts)
        ev = interp.eval_expr
        tmps: dict = {}
        icnt = 0
        for s in stmts:
            cls = s.__class__
            if cls is WrTmp:
                tmps[s.tmp] = ev(s.data, tmps, state)
            elif cls is IMark:
                icnt += 1
            elif cls is Put:
                state.put(s.offset, sb.type_of(s.data), ev(s.data, tmps, state))
            elif cls is Store:
                a = ev(s.addr, tmps, state)
                state.store(a, sb.type_of(s.data), ev(s.data, tmps, state))
            elif cls is Exit:
                if ev(s.guard, tmps, state):
                    ts.pc = s.dst & M32
                    return (s.jumpkind.value, icnt)
            elif cls is Dirty:
                if s.guard is not None and not ev(s.guard, tmps, state):
                    continue
                h = interp.helpers.lookup(s.callee)
                args = [ev(a, tmps, state) for a in s.args]
                ret = h.fn(*args) if h.pure else h.fn(interp.env, *args)
                if s.tmp is not None:
                    tmps[s.tmp] = ret
            elif cls is NoOp:
                continue
            else:  # pragma: no cover
                raise RuntimeError(f"cannot interpret {s!r}")
        ts.pc = ev(nxt_expr, tmps, state) & M32
        return (jk_final, icnt)

    return runner


def hash_guest_ranges(
    fetch: Callable[[int, int], bytes], ranges: Tuple[Tuple[int, int], ...]
) -> int:
    """CRC of the guest code bytes a translation was derived from."""
    crc = 0
    for start, length in ranges:
        crc = zlib.crc32(fetch(start, length), crc)
    return crc
