"""Superblock traces: the ``--codegen=traces`` tier.

The paper's translation unit is the superblock — "a single-entry,
multiple-exit stretch of code" (Section 3.5) — but the front end only
ever builds single-block superblocks.  This module grows them: the
dispatcher watches which translations chain hot along Boring/Call/Ret
edges, records the successor sequence, and the :class:`TraceManager`
splices the member blocks' *host code* into one multi-block superblock
compiled to a single specialized pygen function.  Every block goes
through the eight phases once, as a block; a trace re-runs none of
them.  The gain is the pygen emitter's: it carries pending guest-state
writebacks and known guest-state values across the seams, so a hot
chain runs seam to seam in Python locals instead of round-tripping
guest state through the dispatcher per block.

Correctness model — recorder as hint, splicer as proof
------------------------------------------------------

The recorded successor sequence is only a *hint*.  At build time every
seam between consecutive members A -> B is proven from the tail of A's
host code, which always ends ``SETPCI``/``SETPCR`` then ``RET``, falling
into exactly one of three plans:

* **fall** — A ends ``SETPCI B``: control always reaches B, no guard is
  needed, and A's ``RET`` goes.
* **invert** — A ends ``SIDEEXIT c -> B`` right before ``SETPCI F``: the
  branch was observed taken, so the exit is inverted (``Not1 c``) into a
  side exit to the fall-through address F and the trace continues into
  B.
* **guard** — A ends ``SETPCR r`` (an indirect jump, a Ret): a
  ``CmpNE32(r, B)`` side exit to the computed target (``SIDEEXITR``)
  guards the seam.  Nothing but ``r`` is live at a block's tail, so the
  compare borrows any other integer register.

Any other tail truncates the trace at A; a recording the splicer cannot
prove therefore yields a *shorter* trace, never a wrong one.  Members are
additionally re-verified against the guest bytes they were translated
from (the SMC hash), so a stale hint cannot splice stale code.

Every seam ends in ``SETPCI B``: the front end writes the guest PC from
a block's second instruction on, so B's first instruction relies on the
PC being B on entry (Memcheck's error reports read it).  pygen keeps
that store pending, so it costs a write only where something reads the
PC before B's own next write.

Every side exit restores the invariants the block tier maintains: the
guest PC is written before leaving, the retired-instruction count is
exact at the exit point (each member's exit counts are offset by the
guest instructions of the members before it, so the fault-precision
entry-snapshot contract extends to every trace side exit unchanged), and
Call/Ret seams maintain the shadow call stack through the
:func:`vg_trace_call` / :func:`vg_trace_ret` dirty helpers, mirroring
the dispatcher's own bookkeeping byte for byte.  ``TRACEMARK j`` before
member j's code records progress, so the dispatcher accounts completed
blocks exactly when a trace faults or side-exits.

Builds are content-addressed: the build key
(:meth:`TraceManager._build_key`) hashes the trace-build and host-ISA
versions plus each member's guest address and host code, which is all a
build reads.  A key hit reuses the spliced result — from the
process-wide build cache or the persistent code cache's ``x/``
namespace — so a warm start splices nothing.  The outcome a key maps to
includes how many members survived seam truncation, and an unspliceable
recording is cached like any other outcome.

Traces live *off* the translation table in the manager's own maps, so
they never perturb transtab capacity, eviction order or the
``translations`` counter (record/replay logs stay tier-portable).  When
any member translation dies — SMC flush, munmap discard, FIFO eviction
— the table's ``on_kill`` hook severs every trace containing it; the
surviving head's execution count is reset so a hot head can re-record
over the retranslated code.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..backend import hostisa as _hostisa
from ..backend.hostisa import (
    BIN,
    CALL,
    HInsn,
    ImmArg,
    LI,
    RC,
    RET,
    Reg,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    SIDEEXITR,
    TRACEMARK,
    UN,
    decode_insns,
    encode_insns,
)
from ..ir.stmt import JumpKind
from ..ir.types import Ty
from .translate import Translation, hash_guest_ranges

#: JumpKind values the recorder may follow and the splicer may sew across.
_TRACEABLE_VALUES = tuple(jk.value for jk in
                          (JumpKind.Boring, JumpKind.Call, JumpKind.Ret))
#: u16 instruction-count fields in SIDEEXIT/SIDEEXITR bound trace size.
_MAX_TRACE_INSNS = 60000
#: Shadow call-stack depth cap — must match the dispatcher's.
_CALLSTACK_MAX = 16384

#: Dirty helpers maintaining the shadow call stack across in-trace
#: Call/Ret seams (registered by the scheduler under traces mode).
VG_TRACE_CALL = "vg_trace_call"
VG_TRACE_RET = "vg_trace_ret"
_SEAM_HELPERS = {JumpKind.Call.value: VG_TRACE_CALL,
                 JumpKind.Ret.value: VG_TRACE_RET}

#: Bump on any change to seam planning or splicing that alters build
#: output: part of every build key.
TRACE_BUILD_VERSION = 2

#: A build outcome: (host code, members used, guest insns); code None
#: means the recording is unspliceable.
BuildOutcome = Tuple[Optional[bytes], int, int]
_UNSPLICEABLE: BuildOutcome = (None, 0, 0)

#: Process-wide cache: build key (:meth:`TraceManager._build_key`) ->
#: :data:`BuildOutcome`.  LRU-bounded (entries never go stale — content
#: addressing — so eviction is purely a memory bound), and round-tripped
#: through the persistent code cache when one is bound (core.codecache),
#: so re-recorded traces skip the build across processes too.
_BUILD_CACHE: "OrderedDict[bytes, BuildOutcome]" = OrderedDict()
_BUILD_CACHE_MAX = 4096
_BUILD_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _build_cache_put(key: bytes, outcome: BuildOutcome) -> None:
    if key in _BUILD_CACHE:
        return
    _BUILD_CACHE[key] = outcome
    while len(_BUILD_CACHE) > _BUILD_CACHE_MAX:
        _BUILD_CACHE.popitem(last=False)
        _BUILD_CACHE_STATS["evictions"] += 1

#: Quality-probation window: once a trace has run this many times, any
#: further side exit re-checks whether runs retire on average at least
#: 1.5 member blocks, and prunes the trace if not.
_TRACE_PROBE = 64


def vg_trace_call(env, target: int) -> int:
    """Mirror the dispatcher's Call bookkeeping for an in-trace call seam.

    The member block that just ran pushed the return address at [sp] and
    committed SP before this helper runs (pygen flushes pending state
    ahead of every unguarded dirty call), so the load cannot fault.
    """
    cs = env.state.callstack
    cs.append((env.mem.load32(env.state.sp), target))
    if len(cs) > _CALLSTACK_MAX:
        del cs[: _CALLSTACK_MAX // 2]
    return 0


def vg_trace_ret(env, target: int) -> int:
    """Mirror the dispatcher's Ret bookkeeping for an in-trace return seam
    (including its depth-2..8 tail-call / longjmp tolerance)."""
    cs = env.state.callstack
    if cs:
        if cs[-1][0] == target:
            cs.pop()
        else:
            for depth in range(2, min(9, len(cs) + 1)):
                if cs[-depth][0] == target:
                    del cs[-depth:]
                    break
    return 0


def _seam(insns: List[HInsn], b: int) -> Optional[List[HInsn]]:
    """A block's host code *insns* rewritten to continue into the member
    at guest address *b* (the seam plans of the module docstring), or
    None if no plan proves that edge."""
    *body, setpc, ret = insns
    if ret.jk not in _TRACEABLE_VALUES:
        return None
    edge = ret.jk
    if isinstance(setpc, SETPCR):  # guard
        r = setpc.src
        s = Reg(RC.INT, 1 if r.n == 0 else 0)
        body += [LI(s, b), BIN("CmpNE32", s, r, s),
                 SIDEEXITR(s, r, ret.jk, ret.icnt)]
    elif not isinstance(setpc, SETPCI):
        return None
    elif setpc.dst != b:  # invert, if the last exit goes to b
        ex = body[-1] if body else None
        if not (isinstance(ex, SIDEEXIT) and ex.dst == b
                and ex.jk in _TRACEABLE_VALUES and ex.icnt == ret.icnt):
            return None
        edge = ex.jk
        body[-1] = UN("Not1", ex.cond, ex.cond)
        body.append(SIDEEXIT(ex.cond, setpc.dst, ret.jk, ret.icnt))
    helper = _SEAM_HELPERS.get(edge)
    if helper is not None:
        body.append(CALL(helper, (ImmArg(b, Ty.I32),), dirty=True))
    body.append(SETPCI(b))
    return body


class Trace:
    """One compiled superblock trace.

    Quacks enough like a :class:`Translation` for the scheduler's precise
    -fault recovery — ``covers``/``ranges``/``stats.guest_insns`` drive
    the RefCPU replay cap exactly as they do for a block — while living
    entirely outside the translation table.
    """

    __slots__ = (
        "head_addr", "members", "ranges", "n_blocks", "code", "total_insns",
        "compiled_fn", "dead", "stats", "runs", "blocks",
    )

    class _Stats:
        __slots__ = ("guest_insns",)

        def __init__(self, guest_insns: int):
            self.guest_insns = guest_insns

    def __init__(self, members: List[Translation], code: bytes,
                 total_insns: int, compiled_fn):
        self.head_addr = members[0].guest_addr
        self.members = members
        self.ranges = tuple(r for m in members for r in m.ranges)
        self.n_blocks = len(members)
        #: The spliced host code (core.traces module docstring).
        self.code = code
        self.total_insns = total_insns
        self.compiled_fn = compiled_fn
        self.dead = False
        self.stats = Trace._Stats(total_insns)
        # Quality probation: the dispatcher tallies these and prunes
        # traces whose runs mostly side-exit early (a mispredicted seam
        # makes a trace *slower* than the block tier it shadows).
        self.runs = 0
        self.blocks = 0

    @property
    def guest_addr(self) -> int:
        return self.head_addr

    def covers(self, addr: int, size: int = 1) -> bool:
        return any(
            start < addr + size and addr < start + length
            for start, length in self.ranges
        )


class TraceManager:
    """Records hot block chains and splices them into compiled traces."""

    def __init__(
        self,
        translator,
        hostcpu,
        options,
        *,
        on_fail: Optional[Callable] = None,
    ):
        self.translator = translator
        self.hostcpu = hostcpu
        self.options = options
        self.on_fail = on_fail
        #: Re-attach the codegen layer's execution-counting wrapper to a
        #: severed trace's surviving head (set by the scheduler).
        self.rewrap: Optional[Callable] = None
        self.max_blocks = max(2, options.max_trace_blocks)
        #: Every input of a build besides its members (read per run, so
        #: a version bump between runs takes effect).
        self._key_base = b"trace-build:%d:%d:" % (
            TRACE_BUILD_VERSION, _hostisa.HOSTISA_FORMAT_VERSION)
        #: Live traces by head guest address.
        self.traces: Dict[int, Trace] = {}
        #: id(member Translation) -> traces containing it (sever index).
        self._by_member: Dict[int, List[Trace]] = {}
        #: Head addresses whose next execution should start a recording.
        self._want: set = set()
        #: Recording in progress: member list and the jump kind that led
        #: *out* of the last appended member.
        self._members: List[Translation] = []
        self._last_jk: Optional[str] = None
        #: Fast gate the dispatcher checks per block: True while any
        #: recording is requested or in progress.
        self.active = False
        # Counters (reported under --stats=json as the "traces" section).
        self.traces_built = 0
        #: Builds that spliced member code (a build-key miss).
        self.stitched = 0
        self.compile_failures = 0
        self.recordings_aborted = 0
        self.demotions = 0
        self.pruned = 0
        self.runs = 0
        self.side_exits = 0
        self.insns_retired = 0
        self.blocks_retired = 0
        self.compile_seconds = 0.0

    # -- recording ---------------------------------------------------------

    def request(self, t: Translation) -> None:
        """A block crossed --trace-threshold: record its next chain."""
        if t.trace_failed or t.guest_addr in self.traces:
            return
        self._want.add(t.guest_addr)
        self.active = True

    def _eligible(self, t: Translation) -> bool:
        # SMC-checked blocks re-verify their bytes before every run; a
        # trace cannot, so they never join one.  Quarantined blocks have
        # no JITable code; pygen_failed blocks already proved the back
        # end chokes on them.
        return not (t.dead or t.smc_checked or t.quarantined or t.pygen_failed)

    def on_block(self, t: Translation, jk: str) -> None:
        """Dispatcher hook: translation *t* just executed, leaving with
        jump kind *jk* (a JumpKind value string)."""
        if self._members:
            if (
                self._last_jk in _TRACEABLE_VALUES
                and len(self._members) < self.max_blocks
                and self._eligible(t)
            ):
                # Revisits are allowed: a recording that crosses a loop
                # back edge unrolls the loop body into the trace, so hot
                # iterations run seam-to-seam in host locals instead of
                # round-tripping guest state per block.
                self._members.append(t)
                self._last_jk = jk
                if len(self._members) == self.max_blocks:
                    self._finish()
                return
            self._finish()
        if t.guest_addr in self._want:
            self._want.discard(t.guest_addr)
            if self._eligible(t) and t.guest_addr not in self.traces:
                self._members = [t]
                self._last_jk = jk
        self._update_active()

    def flush_recording(self) -> None:
        """Finalize any in-progress recording (control is about to enter
        a trace or leave the dispatcher for an event)."""
        if self._members:
            self._finish()
            self._update_active()

    def _update_active(self) -> None:
        self.active = bool(self._members) or bool(self._want)

    def _finish(self) -> None:
        members = self._members
        self._members = []
        self._last_jk = None
        if len(members) < 2:
            self.recordings_aborted += 1
            return
        head = members[0]
        if head.dead or head.guest_addr in self.traces:
            self.recordings_aborted += 1
            return
        try:
            tr = self._build(members)
        except Exception as exc:
            self.compile_failures += 1
            head.trace_failed = True
            if self.on_fail is not None:
                self.on_fail(head, exc)
            return
        if tr is None:
            self.recordings_aborted += 1
            head.trace_failed = True
            return
        self.traces[head.guest_addr] = tr
        head.trace = tr
        for mid in {id(m) for m in tr.members}:
            self._by_member.setdefault(mid, []).append(tr)
        self.traces_built += 1

    # -- splicing ----------------------------------------------------------

    def _build(self, members: List[Translation]) -> Optional[Trace]:
        """Compile *members* into a trace (None: unspliceable)."""
        fetch = self.translator._fetch
        # Stop at the first dead member or one whose guest bytes changed
        # since it was translated.
        parts: List[Translation] = []
        for m in members:
            if m.dead or (
                m.smc_hash is not None
                and hash_guest_ranges(fetch, m.ranges) != m.smc_hash
            ):
                break
            parts.append(m)
        if len(parts) < 2:
            return None

        t0 = time.perf_counter()
        key = self._build_key(parts)
        disk = getattr(self.hostcpu, "codecache", None)
        outcome = _BUILD_CACHE.get(key)
        if outcome is not None:
            _BUILD_CACHE.move_to_end(key)
            _BUILD_CACHE_STATS["hits"] += 1
        else:
            _BUILD_CACHE_STATS["misses"] += 1
            if disk is not None:
                outcome = disk.load_trace(key)
            if outcome is None:
                outcome = self._splice(parts)
                if disk is not None:
                    disk.store_trace(key, *outcome)
            _build_cache_put(key, outcome)
        code, n_members, total_insns = outcome
        fn = self.hostcpu.compile_pygen(code) if code is not None else None
        self.compile_seconds += time.perf_counter() - t0
        if code is None:
            return None
        return Trace(parts[:n_members], code, total_insns, fn)

    def _build_key(self, parts: List[Translation]) -> bytes:
        """Hash everything a build of *parts* reads (see the module
        docstring): the versions and each member's address and code."""
        h = hashlib.sha1(self._key_base)
        for m in parts:
            h.update(m.guest_addr.to_bytes(4, "little"))
            h.update(len(m.code).to_bytes(4, "little"))
            h.update(m.code)
        return h.digest()

    def _splice(self, members: List[Translation]) -> BuildOutcome:
        """Splice *members*' host code into one trace, truncating at the
        first seam no plan proves, and assemble it."""
        self.stitched += 1
        out: List[HInsn] = []
        total = 0  # guest insns of the members spliced so far
        for j, m in enumerate(members):
            insns = [replace(i, icnt=i.icnt + total)
                     if total and isinstance(i, (SIDEEXIT, RET)) else i
                     for i in decode_insns(m.code)]
            total = insns[-1].icnt
            out.append(TRACEMARK(j))
            spliced = (_seam(insns, members[j + 1].guest_addr)
                       if j + 1 < len(members) else None)
            if spliced is None:
                out += insns
                break
            out += spliced
        n_members = j + 1
        if n_members < 2 or not 1 <= total < _MAX_TRACE_INSNS:
            return _UNSPLICEABLE
        return encode_insns(out), n_members, total

    # -- quality pruning ---------------------------------------------------

    def note_side_exit(self, tr: Trace) -> None:
        """Dispatcher hook: a run of *tr* left through a side exit.

        Past the probation window, a trace whose runs retire fewer than
        1.5 member blocks on average is pruned: each entry pays the full
        preinit/flush cost of the whole superblock, so a trace that
        nearly always exits at its first seam is *slower* than the block
        tier it shadows (cf. Dynamo's fragment replacement).  Partial
        runs deeper than that still win — a trace retiring k blocks
        replaces k dispatch iterations with one.
        """
        self.side_exits += 1
        if tr.runs >= _TRACE_PROBE and tr.blocks * 2 < tr.runs * 3:
            self.prune(tr)

    def prune(self, tr: Trace) -> None:
        """Demote a low-quality trace and pin its head to the block tier
        (re-recording would reproduce the same biased seams)."""
        tr.dead = True
        self.pruned += 1
        if self.traces.get(tr.head_addr) is tr:
            del self.traces[tr.head_addr]
        head = tr.members[0]
        if head.trace is tr:
            head.trace = None
        head.trace_failed = True

    # -- invalidation ------------------------------------------------------

    def on_translation_dead(self, t: Translation) -> None:
        """Transtab ``on_kill`` hook: sever every trace containing *t*
        (SMC flush, munmap discard, eviction, insert-replace)."""
        for tr in self._by_member.pop(id(t), ()):
            if tr.dead:
                continue
            tr.dead = True
            self.demotions += 1
            if self.traces.get(tr.head_addr) is tr:
                del self.traces[tr.head_addr]
            head_t = tr.members[0]
            if head_t.trace is tr:
                head_t.trace = None
            if head_t is not t and not head_t.dead:
                # Let a still-hot head re-record over retranslated code.
                head_t.exec_count = 0
                if self.rewrap is not None and not head_t.trace_failed:
                    self.rewrap(head_t)

    # -- reporting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            "trace_threshold": self.options.trace_threshold,
            "max_trace_blocks": self.max_blocks,
            "traces_built": self.traces_built,
            "stitched": self.stitched,
            "live_traces": len(self.traces),
            "compile_failures": self.compile_failures,
            "recordings_aborted": self.recordings_aborted,
            "demotions": self.demotions,
            "pruned": self.pruned,
            "runs": self.runs,
            "side_exits": self.side_exits,
            "blocks_retired": self.blocks_retired,
            "insns_retired": self.insns_retired,
            "compile_seconds": self.compile_seconds,
            "build_cache": {
                **_BUILD_CACHE_STATS,
                "entries": len(_BUILD_CACHE),
            },
        }
