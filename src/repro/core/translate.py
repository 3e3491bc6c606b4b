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

Phases 1-4 are the engine's one front half, :meth:`Translator.front_ir`;
phases 5-8 run over its IR.  Under the closure tier (the paper's engine)
:meth:`Translator.translate` runs both halves.  The pygen engines
interpret first (core.codegen): ``translate`` runs the front half only,
the block's first execution interprets that IR, and its second
execution promotes it (:meth:`Translator.promote`) through phases 5-8,
still called through this module's names.

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
hash is taken from the bytes just fetched.  Both tiers hold either a
block's host code or, for a block no run promoted, its phase 1-4 IR; a
hit on IR interprets first too (unless a run of this process already
interpreted it: then the hit is its second execution and promotes it),
and a look-up that finds both takes the host code.
``--trace-translations`` bypasses both, since a hit runs none of the
phases it prints.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

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
    #: The block runner ``fn(ts) -> (jump-kind, guest_insns)``, attached
    #: on first execution by the tier in ``tier`` (see core.codegen).
    compiled_fn: Optional[object] = None
    #: Chaining: the first successor observed after a Boring exit.
    chain_next: Optional["Translation"] = None
    #: Chaining: the first successor observed after a Call / Ret (kept
    #: separate so call/return targets don't thrash the Boring link).
    chain_call: Optional["Translation"] = None
    chain_ret: Optional["Translation"] = None
    #: Set when evicted/discarded, so stale chain pointers are not followed.
    dead: bool = False
    #: True if the SMC hash must be re-checked before every execution
    #: (Section 3.16: by default, only translations of on-stack code).
    smc_checked: bool = False
    #: Codegen tier this block executes in ("closures", "pygen",
    #: "interp_first", "interp"); None until first attached (see
    #: core.codegen).  A block whose pygen compile failed stays in
    #: "closures", never retried.
    tier: Optional[str] = None
    #: Under --codegen=traces, the dispatcher's count of this block's
    #: runs on the block path (runs inside a trace are not counted),
    #: towards ``traces.TRACE_THRESHOLD``; the trace manager lowers it
    #: to re-arm the block (core.traces).  0 under the other tiers.
    exec_count: int = 0
    #: True if building a trace headed at this block failed: the block
    #: stays in the pygen tier and is never re-recorded (core.traces).
    trace_failed: bool = False
    #: The live trace headed at this block, if any: the dispatcher's
    #: superblock probe is one attribute load on the block it already
    #: resolved, so the non-trace fast path pays no map lookup
    #: (core.traces maintains this on build / sever / prune).
    trace: Optional[object] = None
    #: The instrumented flat IR of a quarantined translation — the JIT
    #: back end failed for this block, so the interp tier executes this
    #: IR directly (graceful degradation); None otherwise.
    irsb: Optional[IRSB] = None
    #: A block the pygen engines have not promoted yet (core.codegen):
    #: the shared payload whose phase 1-4 IR (``front.ir``) runs in the
    #: IR interpreter until :meth:`Translator.promote` gives the block
    #: host code (``code`` is empty until then); None otherwise.
    front: Optional["_Resident"] = None

    def covers(self, addr: int, size: int = 1) -> bool:
        return any(
            start < addr + size and addr < start + length
            for start, length in self.ranges
        )


class _Resident:
    """One translation as the memory tier holds it: the tier key and the
    guest bytes it was made from, and the read-only payload every hit
    shares — ranges, structural stats and either host code or, for a
    block not yet promoted, its phase 1-4 IR (``ir``; ``code`` is None).
    The payload is never mutated: promotion makes a new resident with the
    code.  ``ran`` is set when an unpromoted resident's block runs in the
    IR interpreter, so its next execution promotes it whichever run of
    the process makes it (core.codegen)."""

    __slots__ = ("key", "guest", "ranges", "code", "ir", "stats", "nbytes",
                 "ran")

    def __init__(self, key, guest: bytes, ranges, stats: TranslationStats,
                 *, code: Optional[bytes] = None, ir: Optional[IRSB] = None):
        self.key = key
        self.guest = guest
        self.ranges = ranges
        self.code = code
        self.ir = ir
        self.stats = stats
        self.ran = False
        self.nbytes = _RESIDENT_OVERHEAD + len(guest) + (
            len(code) if code is not None else _IR_STMT_BYTES * len(ir.stmts))


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
#: Estimated bytes per statement of a resident's IR.
_IR_STMT_BYTES = 256


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
    _tier_bound()


def _tier_promoted(old: _Resident, new: _Resident) -> None:
    """Replace the unpromoted *old* with *new*, its host code, where the
    tier still holds it (evicted, it stays out)."""
    versions = _TIER.get(old.key) or []
    for i, resident in enumerate(versions):
        if resident is old:
            versions[i] = new
            _TIER_STATS["bytes"] += new.nbytes - old.nbytes
            _tier_bound()
            return


def _tier_bound() -> None:
    """Evict least recently used versions past the entry cap or budget."""
    stats = _TIER_STATS
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
        #: The pygen engines interpret a block first and run phases 5-8
        #: only when it runs again (:meth:`promote`, core.codegen); the
        #: closure tier translates every block through all eight phases.
        self.interpret_first = options.codegen != "closures"
        #: Cumulative pipeline statistics.
        self.translations_made = 0
        #: Fault-injection hook, called with the block address once per
        #: translate(), when its front half is built or found; may raise
        #: to simulate an internal JIT failure (exercises the quarantine
        #: path).
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
        #: Unpromoted residents this run built (keyed by id), stored as
        #: ``t/`` IR records by :meth:`store_unpromoted` unless promoted.
        self._made: Dict[int, _Resident] = {}

    def translate(self, addr: int) -> Translation:
        """Translate the code block at guest address *addr*: from the
        memory tier, else the code cache, else the pipeline (phases 1-4,
        and under the closure tier phases 5-8 too)."""
        key = None
        if self.context is not None:
            key = (self.context.digest(), addr)
            found = _tier_lookup(key, self._fetch)
            if found is not None:
                self.tier_hits += 1
                return self._hit(addr, *found)
            self.tier_misses += 1
            if self.cache is not None:
                hit = self.cache.lookup_translation(key[0], addr, self._fetch)
                if hit is not None:
                    return self._hit(addr, _cached_resident(key, hit),
                                     hit["guest"], put=True)
        stats = TranslationStats()
        sb, ranges = self.front_ir(addr, stats)
        if self.fail_hook is not None:
            self.fail_hook(addr)
        raw = _guest_bytes(self._fetch, ranges)
        resident = _Resident(key, raw, ranges, stats, ir=sb)
        if not self.interpret_first:
            resident = self._back_half(resident)
        self.translations_made += 1
        if key is not None:
            _tier_put(key, resident)
            if resident.code is None and self.cache is not None:
                self._made[id(resident)] = resident
        return self._translation(addr, resident, raw)

    def _hit(self, addr: int, resident: _Resident, raw: bytes, *,
             put: bool = False) -> Translation:
        """A fresh Translation sharing *resident*'s payload, after a
        verified hit in either tier; *raw* are the guest bytes just
        fetched over its ranges.  *put*: a code-cache hit, which the
        memory tier takes.

        The fail hook fires once per translate(), when the front half is
        built on the cold path, so it fires on a hit too: --inject=isel@N
        plans and chaos/replay runs stay deterministic warm vs cold.  A
        raise here follows the same quarantine route as a cold pipeline
        failure.
        """
        if self.fail_hook is not None:
            self.fail_hook(addr)
        if put:
            _tier_put(resident.key, resident)
        if resident.code is None and not self.interpret_first:
            resident = self._promoted(resident)
        self.translations_made += 1
        return self._translation(addr, resident, raw)

    def _translation(self, addr: int, resident: _Resident,
                     raw: bytes) -> Translation:
        opts = self.options
        smc_hash = None
        if opts.smc_check != "none" or opts.codegen == "traces":
            # Traces mode always hashes: a trace build re-verifies every
            # member against its translation-time bytes, even when SMC
            # checking itself is off.
            smc_hash = zlib.crc32(raw)
        promoted = resident.code is not None
        return Translation(
            guest_addr=addr,
            code=resident.code if promoted else b"",
            ranges=resident.ranges,
            smc_hash=smc_hash,
            stats=resident.stats,
            front=None if promoted else resident,
        )

    def front_ir(self, addr: int, stats: TranslationStats, *,
                 optimise: bool = True) -> Tuple[IRSB, tuple]:
        """Run the front half of the pipeline (Phases 1-4) for *addr*:
        the flat instrumented IR and the guest ranges it covers.  Fills
        *stats*' statement counts; counts no translation.  *optimise*
        False skips both optimisation passes (Phase 2 only flattens).

        The engine's one front half: :meth:`translate` runs it on every
        miss in both translation tiers, and the quarantine path
        (:meth:`translate_interp`) too.
        """
        opts = self.options
        # Phase 1: disassembly.
        sb = self.disasm.disasm_block(addr)
        stats.guest_insns = sum(1 for s in sb.stmts if isinstance(s, IMark))
        stats.stmts_disasm = sb.num_real_stmts()
        ranges = _imark_ranges(sb)

        # Phase 2: optimisation 1 (includes flattening).
        if optimise and opts.opt1:
            sb = optimise1(sb, spec_helper=vx32_spec_helper, unroll=opts.unroll)
        else:
            from ..opt.flatten import flatten

            sb = flatten(sb)
        stats.stmts_opt1 = sb.num_real_stmts()
        validate(sb, flat=True)

        # Phase 3: instrumentation, performed by the tool.
        sb = self.tool.instrument(sb)
        if self.track_stack_events:
            sb = add_sp_tracking(sb)
        stats.stmts_instrumented = sb.num_real_stmts()
        validate(sb, flat=True)

        # Phase 4: optimisation 2.
        if optimise and opts.opt2:
            sb = optimise2(sb, spec_helper=vx32_spec_helper)
        stats.stmts_opt2 = sb.num_real_stmts()

        if opts.trace_translations:
            from ..ir.pretty import fmt_irsb

            print(f"==== translation at {addr:#x} "
                  f"({stats.guest_insns} guest insns) ====")
            print(fmt_irsb(sb))
        return sb, ranges

    def _back_half(self, resident: _Resident) -> _Resident:
        """Run Phases 5-8 over an unpromoted *resident*'s IR; the
        resident with its host code, stored in both translation tiers."""
        stats = replace(resident.stats)
        # Phase 5: tree building.
        tree = build_trees(resident.ir)

        # Phase 6: instruction selection.
        vcode = select(tree)

        # Phase 7: register allocation.
        hcode, stats.alloc = allocate(vcode)
        stats.host_insns = len(hcode)

        # Phase 8: assembly.
        code = encode_insns(hcode)

        done = _Resident(resident.key, resident.guest, resident.ranges,
                         stats, code=code)
        if self.cache is not None and done.key is not None:
            ctx, addr = done.key
            self.cache.store_translation(
                ctx, addr, self._fetch, code=code, ranges=done.ranges,
                stats=stats, guest=done.guest,
            )
        return done

    def _promoted(self, resident: _Resident) -> _Resident:
        """Unpromoted *resident* with its host code from Phases 5-8,
        replacing it in the memory tier."""
        done = self._back_half(resident)
        self._made.pop(id(resident), None)
        _tier_promoted(resident, done)
        return done

    def promote(self, t: Translation) -> None:
        """Give the unpromoted *t* host code: Phases 5-8 over its IR,
        stored in both tiers.  Raises what the back end raises."""
        done = self._promoted(t.front)
        t.code = done.code
        t.stats = done.stats
        t.front = None

    def store_unpromoted(self) -> None:
        """Store the IR of every block this run built that is still
        unpromoted as a ``t/`` record of its own kind, so a later run hits
        it instead of translating (called when the run ends)."""
        made, self._made = self._made, {}
        for resident in made.values():
            ctx, addr = resident.key
            self.cache.store_translation(
                ctx, addr, self._fetch, ir=resident.ir,
                ranges=resident.ranges, stats=resident.stats,
                guest=resident.guest,
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

    def translate_interp(self, addr: int) -> Translation:
        """Build an interpreter-backed translation for the block at *addr*.

        Runs only the front half of the pipeline and stores the flat IR
        on the translation for direct execution by
        :func:`make_interp_runner`.  Used as the graceful-degradation path
        when the JIT back-end (isel / regalloc / runner compilation) fails
        for one block: the guest keeps running, just slower, instead of
        the whole process dying.
        """
        stats = TranslationStats()
        try:
            sb, ranges = self.front_ir(addr, stats)
        except Exception:
            try:
                # An optimisation pass may be what broke: the tool still
                # instruments the plainly flattened block.
                sb, ranges = self.front_ir(addr, stats, optimise=False)
            except Exception:
                # The tool's instrumentation may itself be what broke; a
                # quarantined block runs uninstrumented rather than not
                # at all.
                from ..opt.flatten import flatten

                sb = self.disasm.disasm_block(addr)
                ranges = _imark_ranges(sb)
                sb = flatten(sb)
                stats.stmts_instrumented = sb.num_real_stmts()

        smc_hash = None
        if self.options.smc_check != "none":
            smc_hash = hash_guest_ranges(self._fetch, ranges)

        self.translations_made += 1
        return Translation(
            guest_addr=addr,
            code=b"",
            ranges=ranges,
            smc_hash=smc_hash,
            stats=stats,
            irsb=sb,
        )


def _cached_resident(key, hit: dict) -> _Resident:
    """The resident for a verified code-cache *hit* (either record kind)."""
    stats = hit.get("stats")
    if not isinstance(stats, TranslationStats):
        stats = TranslationStats()
    return _Resident(key, hit["guest"], hit["ranges"], stats,
                     code=hit.get("code"), ir=hit.get("ir"))


_M32 = 0xFFFFFFFF


class _InterpState:
    """What the IR interpreter reads and writes: one thread's guest state
    and the guest memory."""

    __slots__ = ("ts", "mem")

    def __init__(self, ts, mem):
        self.ts = ts
        self.mem = mem

    def get(self, offset, ty):
        return self.ts.get(offset, ty)

    def put(self, offset, ty, value):
        self.ts.put(offset, ty, value)

    def load(self, addr, ty):
        return self.mem.load(addr & _M32, ty)

    def store(self, addr, ty, value):
        self.mem.store(addr & _M32, ty, value)


def make_interp_runner(sb: IRSB, helpers, env, mem):
    """Build a block runner executing *sb* through the IR interpreter.

    The result has the same signature as every tier's compiled runner —
    ``runner(ts) -> (jump-kind, guest_insns)`` — so interpreted blocks
    plug into the dispatch loop unchanged.
    """
    from ..ir.interp import IRInterpreter

    run_block = IRInterpreter(helpers, env).run_block

    def runner(ts):
        nxt, jk, icnt = run_block(sb, _InterpState(ts, mem))
        ts.pc = nxt & _M32
        return jk.value, icnt

    return runner


def hash_guest_ranges(
    fetch: Callable[[int, int], bytes], ranges: Tuple[Tuple[int, int], ...]
) -> int:
    """CRC of the guest code bytes a translation was derived from."""
    crc = 0
    for start, length in ranges:
        crc = zlib.crc32(fetch(start, length), crc)
    return crc
