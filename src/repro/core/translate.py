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

Two translation tiers stand in front of the pipeline, both keyed by the
run's translation context (``core.codecache.translation_context``: the
versions, the tool and its options, the pipeline settings and the live
redirect table) plus the guest address, and both verified on every hit
against the guest bytes the translation was made from:

* the process-wide memory tier (:data:`_TIER`), LRU-bounded by an entry
  cap and a byte budget, so every run in one process — embedders, fleet
  workers, benchmarks — translates each block once;
* the persistent code cache's ``t/`` namespace (``--cache-dir``), so a
  fresh process translates nothing an earlier one stored.

A hit in either behaves exactly like a fresh translation to the rest of
the engine: it fires the fault-injection hook, counts in
``translations_made`` and yields a new :class:`Translation` whose SMC
hash is taken from the bytes just fetched.  ``--trace-translations``
bypasses both, since a hit runs none of the phases it prints.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
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
from ..kernel.memory import GuestFault
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
    #: The instrumented flat IR of a quarantined translation (the
    #: interpreter runner executes it directly); None otherwise.
    irsb: Optional[IRSB] = None

    @property
    def guest_len(self) -> int:
        return sum(length for _, length in self.ranges)

    def covers(self, addr: int, size: int = 1) -> bool:
        return any(
            start < addr + size and addr < start + length
            for start, length in self.ranges
        )


class _Resident:
    """One translation as the memory tier holds it: the guest bytes it was
    made from and the read-only payload every hit shares — host code,
    ranges and structural stats, never mutated once here."""

    __slots__ = ("guest", "ranges", "code", "stats", "nbytes")

    def __init__(self, guest: bytes, ranges, code: bytes,
                 stats: TranslationStats):
        self.guest = guest
        self.ranges = ranges
        self.code = code
        self.stats = stats
        self.nbytes = _RESIDENT_OVERHEAD + len(code) + len(guest)


#: The process-wide memory tier: (context digest, guest address) -> the
#: :class:`_Resident` translations made there, most recently used first
#: — one per distinct guest code seen at the address, as ``t/`` keeps
#: one entry per guest-byte digest, so programs that share an address
#: do not evict each other.  An LRU over addresses with a fixed cap on
#: versions per address, on entries and on bytes (estimated: payload
#: bytes plus a fixed per-entry charge); every hit re-verifies the guest
#: bytes, so eviction is purely a memory bound.
_TIER: "OrderedDict[Tuple[bytes, int], List[_Resident]]" = OrderedDict()
_TIER_VERSIONS = 8
_TIER_MAX = 8192
_TIER_BUDGET = 64 * 1024 * 1024
_TIER_STATS = {"entries": 0, "bytes": 0, "evictions": 0}
_RESIDENT_OVERHEAD = 512


def _tier_lookup(key: Tuple[bytes, int],
                 fetch: Callable[[int, int], bytes]):
    """``(resident, guest bytes)`` of the version at *key* whose guest
    bytes match memory now, or None."""
    versions = _TIER.get(key)
    if versions is None:
        return None
    for i, resident in enumerate(versions):
        try:
            raw = _guest_bytes(fetch, resident.ranges)
        except GuestFault:
            continue  # code pages gone or unreadable: not this one
        if raw == resident.guest:
            _TIER.move_to_end(key)
            if i:
                versions.insert(0, versions.pop(i))
            return resident, raw
    return None


def _tier_put(key: Tuple[bytes, int], resident: _Resident) -> None:
    stats = _TIER_STATS
    versions = _TIER.setdefault(key, [])
    _TIER.move_to_end(key)
    versions.insert(0, resident)
    stats["entries"] += 1
    stats["bytes"] += resident.nbytes
    while len(versions) > _TIER_VERSIONS:
        _tier_drop(versions.pop())
    while _TIER and (stats["bytes"] > _TIER_BUDGET
                     or stats["entries"] > _TIER_MAX):
        versions = next(iter(_TIER.values()))
        _tier_drop(versions.pop())
        if not versions:
            _TIER.popitem(last=False)


def _tier_drop(resident: _Resident) -> None:
    _TIER_STATS["entries"] -= 1
    _TIER_STATS["bytes"] -= resident.nbytes
    _TIER_STATS["evictions"] += 1


def clear_translation_cache() -> None:
    """Drop every memory-tier entry (keeps the eviction count), as a
    fresh process would start."""
    _TIER.clear()
    _TIER_STATS["entries"] = _TIER_STATS["bytes"] = 0


def _guest_bytes(fetch: Callable[[int, int], bytes],
                 ranges: Tuple[Tuple[int, int], ...]) -> bytes:
    return b"".join(fetch(start, length) for start, length in ranges)


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
    ):
        self.disasm = Disassembler(fetch)
        self._fetch = fetch
        self.tool = tool
        self.options = options
        self.track_stack_events = track_stack_events
        #: Cumulative pipeline statistics.
        self.translations_made = 0
        #: Fault-injection hook, called with the block address just before
        #: instruction selection; may raise to simulate an internal JIT
        #: failure (exercises the quarantine path).
        self.fail_hook: Optional[Callable[[int], None]] = None
        #: The run's translation context (core.codecache), bound by the
        #: scheduler unless --trace-translations is on; None bypasses
        #: both translation tiers.
        self.context = None
        #: Persistent code cache (core.codecache.CodeCache), bound by
        #: the scheduler under --cache-dir (with a context).
        self.cache = None
        #: Memory-tier lookups of this run that hit / missed.
        self.tier_hits = 0
        self.tier_misses = 0

    def translate(self, addr: int) -> Translation:
        """Translate the code block at guest address *addr*: from the
        memory tier, else the code cache, else the pipeline."""
        opts = self.options
        ctx = key = None
        if self.context is not None:
            ctx = self.context.digest()
            key = (ctx, addr)
            found = _tier_lookup(key, self._fetch)
            if found is not None:
                self.tier_hits += 1
                return self._hit(addr, *found, opts)
            self.tier_misses += 1
            if self.cache is not None:
                hit = self.cache.lookup_translation(ctx, addr, self._fetch)
                if hit is not None:
                    stats = hit.get("stats")
                    if not isinstance(stats, TranslationStats):
                        stats = TranslationStats()
                    resident = _Resident(hit["guest"], hit["ranges"],
                                         hit["code"], stats)
                    t = self._hit(addr, resident, hit["guest"], opts)
                    _tier_put(key, resident)
                    return t
        stats = TranslationStats()
        # Phase 1: disassembly.
        sb = self.disasm.disasm_block(addr)
        stats.guest_insns = sum(1 for s in sb.stmts if isinstance(s, IMark))
        stats.stmts_disasm = sb.num_real_stmts()
        ranges = _imark_ranges(sb)
        if opts.sanity_level >= 2:
            validate(sb)

        # Phase 2: optimisation 1 (includes flattening).
        if opts.opt1:
            sb = optimise1(sb, spec_helper=vx32_spec_helper, unroll=opts.unroll)
        else:
            from ..opt.flatten import flatten

            sb = flatten(sb)
        stats.stmts_opt1 = sb.num_real_stmts()
        if opts.sanity_level >= 1:
            validate(sb, flat=True)

        # Phase 3: instrumentation, performed by the tool.
        sb = self.tool.instrument(sb)
        if self.track_stack_events:
            sb = add_sp_tracking(sb)
        stats.stmts_instrumented = sb.num_real_stmts()
        if opts.sanity_level >= 1:
            validate(sb, flat=True)

        # Phase 4: optimisation 2.
        if opts.opt2:
            sb = optimise2(sb, spec_helper=vx32_spec_helper)
        stats.stmts_opt2 = sb.num_real_stmts()

        if opts.trace_translations:
            from ..ir.pretty import fmt_irsb

            print(f"==== translation at {addr:#x} "
                  f"({stats.guest_insns} guest insns) ====")
            print(fmt_irsb(sb))

        # Phase 5: tree building.
        tree = build_trees(sb)
        if opts.sanity_level >= 2:
            validate(tree)

        # Phase 6: instruction selection.
        if self.fail_hook is not None:
            self.fail_hook(addr)
        vcode = select(tree)

        # Phase 7: register allocation.
        hcode, alloc_stats = allocate(vcode)
        stats.alloc = alloc_stats
        stats.host_insns = len(hcode)

        # Phase 8: assembly.
        code = encode_insns(hcode)

        raw = None
        if key is not None:
            raw = _guest_bytes(self._fetch, ranges)
        smc_hash = None
        if opts.smc_check != "none" or opts.codegen == "traces":
            # Traces mode always hashes: a trace build re-verifies every
            # member against its translation-time bytes, even when SMC
            # checking itself is off.
            smc_hash = (zlib.crc32(raw) if raw is not None
                        else hash_guest_ranges(self._fetch, ranges))

        self.translations_made += 1
        if self.cache is not None:
            self.cache.store_translation(
                ctx, addr, self._fetch, code=code, ranges=ranges, stats=stats,
            )
        if key is not None:
            _tier_put(key, _Resident(raw, ranges, code, stats))
        return Translation(
            guest_addr=addr,
            code=code,
            ranges=ranges,
            smc_hash=smc_hash,
            stats=stats,
        )

    def tier_stats(self) -> dict:
        """The ``translation_cache`` stats section: this run's memory-tier
        hits and misses, and the process-wide tier's entries, estimated
        bytes and evictions."""
        return {
            "hits": self.tier_hits,
            "misses": self.tier_misses,
            **_TIER_STATS,
        }

    def _hit(self, addr: int, resident: _Resident, raw: bytes,
             opts: Options) -> Translation:
        """A fresh Translation sharing *resident*'s payload, after a
        verified hit in either tier; *raw* are the guest bytes just
        fetched over its ranges.

        The fail hook fires exactly once per translate() on the cold path
        (just before isel), so it fires on a hit too: --inject=isel@N
        plans and chaos/replay runs stay deterministic warm vs cold.  A
        raise here follows the same quarantine route as a cold pipeline
        failure.
        """
        if self.fail_hook is not None:
            self.fail_hook(addr)
        self.translations_made += 1
        smc_hash = None
        if opts.smc_check != "none" or opts.codegen == "traces":
            smc_hash = zlib.crc32(raw)
        return Translation(
            guest_addr=addr,
            code=resident.code,
            ranges=resident.ranges,
            smc_hash=smc_hash,
            stats=resident.stats,
        )

    def front_ir(self, addr: int) -> IRSB:
        """Run the front half of the pipeline (Phases 1-4) for *addr* and
        return the flat instrumented IR, without counting a translation.

        Nothing in the engine calls it.  It stays because perfbench's
        layer table wraps it (``core.traces.front_ir``), and
        ``Patches.wrap`` reads ``vars(Translator)["front_ir"]``: without
        it ``perfbench/run.py --trace 1`` and
        ``test_layer_wraps_name_real_functions`` fail.
        """
        opts = self.options
        sb = self.disasm.disasm_block(addr)
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
        return sb

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
