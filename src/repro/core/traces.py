"""Superblock traces: the ``--codegen=traces`` tier.

The paper's translation unit is the superblock — "a single-entry,
multiple-exit stretch of code" (Section 3.5) — but the front end only
ever builds single-block superblocks.  This module grows them: the
dispatcher watches which translations chain hot along Boring/Call/Ret
edges, records the successor sequence, and the :class:`TraceManager`
stitches the member blocks' *IR* into one multi-block superblock,
re-runs the Phase-2 optimisation passes across the merged IR (so
redundant condition-code thunks, dead PUTs and guard computations are
eliminated *across* the original block boundaries) and compiles the
result to a single specialized pygen function.

Correctness model — recorder as hint, stitcher as proof
-------------------------------------------------------

The recorded successor sequence is only a *hint*.  At build time every
seam between consecutive members A -> B is proven, falling into exactly
one of three plans:

* **fall** — A's ``next`` is the constant address of B: control always
  reaches B, no guard is needed.
* **invert** — A's ``next`` is a constant that is *not* B, but A ends in
  a conditional ``Exit`` whose target is B: the branch was observed
  taken, so the Exit is inverted (``Not1`` of its guard) into a side
  exit to the fall-through address and the trace continues into B.
* **guard** — A's ``next`` is computed (an indirect jump, a Ret): a
  ``CmpNE32(next, B)`` side exit (carrying ``dst_expr`` so the *actual*
  target is taken on the miss path) guards the seam.

Any edge that fits no plan truncates the trace at A; a recording the
stitcher cannot prove therefore yields a *shorter* trace, never a wrong
one.  Members are additionally re-verified against the guest bytes they
were translated from (the SMC hash), so a stale hint cannot stitch
stale code.

Every side exit restores the invariants the block tier maintains: the
guest PC is written before leaving, the retired-instruction count is
exact at the exit point (the fault-precision entry-snapshot contract
extends to every trace side exit unchanged), and Call/Ret seams
maintain the shadow call stack through the :func:`vg_trace_call` /
:func:`vg_trace_ret` dirty helpers, mirroring the dispatcher's own
bookkeeping byte for byte.

Builds are content-addressed by their members, not by stitched IR: the
build key (:meth:`TraceManager._build_key`) hashes the trace-build, spec,
opt-pipeline and host-ISA versions plus each member's guest address and
IR digest (``Translation.ir_digest``: the SHA-1 of its pickled flat IR,
made once per translation — when it is stored in the code cache, else on
first use).  The stitched IR is a pure function of exactly those inputs,
and the versions cover the passes and back end that turn it into host
code, so a key hit reuses the assembled result — from the process-wide
build cache or the persistent code cache's ``x/`` namespace — without
touching member IR.  A warm start therefore neither stitches nor decodes
the IR its ``t/`` hits carry; only a miss decodes it
(``Translation.flat_ir``).  The outcome a key maps to includes how many
members survived seam truncation, and an unstitchable recording is
cached like any other outcome.

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
from typing import Callable, Dict, List, Optional, Tuple

from .. import opt as _opt
from ..backend import hostisa as _hostisa
from ..frontend import spec as _spec
from ..frontend.spec import vx32_spec_helper
from ..ir.block import IRSB
from ..ir.expr import Binop, Const, RdTmp, Unop, c32
from ..ir.stmt import (
    Dirty,
    Exit,
    IMark,
    JumpKind,
    MemFx,
    NoOp,
    Put,
    Stmt,
    Store,
    TraceMark,
    WrTmp,
)
from ..ir.types import Ty
from ..ir.validate import validate
from ..opt.opt1 import (
    _rename_expr,
    cse,
    dead_code,
    forward_pass,
    redundant_put_elim,
)
from ..opt.treebuild import build_trees
from ..backend.hostisa import TRACE_REGFILE, encode_insns
from ..backend.isel import select
from ..backend.regalloc import allocate
from .translate import Translation, hash_guest_ranges, pickle_ir

_M32 = 0xFFFFFFFF
#: Edge kinds the recorder may follow and the stitcher may sew across.
_TRACEABLE = (JumpKind.Boring, JumpKind.Call, JumpKind.Ret)
#: u16 instruction-count fields in SIDEEXIT/SIDEEXITR bound trace size.
_MAX_TRACE_INSNS = 60000
#: Shadow call-stack depth cap — must match the dispatcher's.
_CALLSTACK_MAX = 16384

#: Dirty helpers maintaining the shadow call stack across in-trace
#: Call/Ret seams (registered by the scheduler under traces mode).
VG_TRACE_CALL = "vg_trace_call"
VG_TRACE_RET = "vg_trace_ret"

#: Bump on any change to seam planning, stitching or the trace
#: optimisation and back-end calls that alters build output: part of
#: every build key.
TRACE_BUILD_VERSION = 1

#: A build outcome: (host code, members used, post-opt member blocks,
#: guest insns); code None means the recording is unstitchable.
BuildOutcome = Tuple[Optional[bytes], int, int, int]
_UNSTITCHABLE: BuildOutcome = (None, 0, 0, 0)

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


def _rename_stmt(s: Stmt, delta: int) -> Stmt:
    """Shift every temporary in *s* by *delta* (flat member IR only)."""
    if isinstance(s, IMark):
        return s
    if isinstance(s, WrTmp):
        return WrTmp(s.tmp + delta, _rename_expr(s.data, delta))
    if isinstance(s, Put):
        return Put(s.offset, _rename_expr(s.data, delta))
    if isinstance(s, Store):
        return Store(_rename_expr(s.addr, delta), _rename_expr(s.data, delta))
    if isinstance(s, Exit):
        return Exit(
            _rename_expr(s.guard, delta), s.dst, s.jumpkind,
            dst_expr=(_rename_expr(s.dst_expr, delta)
                      if s.dst_expr is not None else None),
        )
    if isinstance(s, Dirty):
        return Dirty(
            s.callee,
            tuple(_rename_expr(a, delta) for a in s.args),
            guard=_rename_expr(s.guard, delta) if s.guard is not None else None,
            tmp=(s.tmp + delta) if s.tmp is not None else None,
            retty=s.retty,
            state_fx=s.state_fx,
            mem_fx=tuple(
                MemFx(m.write, _rename_expr(m.addr, delta), m.size)
                for m in s.mem_fx
            ),
        )
    raise TypeError(f"cannot stitch {s!r}")


class Trace:
    """One compiled superblock trace.

    Quacks enough like a :class:`Translation` for the scheduler's precise
    -fault recovery — ``covers``/``ranges``/``stats.guest_insns`` drive
    the RefCPU replay cap exactly as they do for a block — while living
    entirely outside the translation table.
    """

    __slots__ = (
        "head_addr", "members", "ranges", "n_blocks", "total_insns",
        "compiled_fn", "dead", "stats", "runs", "blocks",
    )

    class _Stats:
        __slots__ = ("guest_insns",)

        def __init__(self, guest_insns: int):
            self.guest_insns = guest_insns

    def __init__(
        self,
        head_addr: int,
        members: List[Translation],
        ranges: Tuple[Tuple[int, int], ...],
        n_blocks: int,
        total_insns: int,
        compiled_fn,
    ):
        self.head_addr = head_addr
        self.members = members
        self.ranges = ranges
        self.n_blocks = n_blocks
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
    """Records hot block chains and stitches them into compiled traces."""

    def __init__(
        self,
        translator,
        hostcpu,
        options,
        *,
        resolve: Optional[Callable[[int], int]] = None,
        on_fail: Optional[Callable] = None,
    ):
        self.translator = translator
        self.hostcpu = hostcpu
        self.options = options
        self.resolve = resolve if resolve is not None else (lambda a: a)
        self.on_fail = on_fail
        #: Re-attach the codegen layer's execution-counting wrapper to a
        #: severed trace's surviving head (set by the scheduler).
        self.rewrap: Optional[Callable] = None
        self.max_blocks = max(2, options.max_trace_blocks)
        #: Every input of a build besides its members (read per run, so
        #: a version bump between runs takes effect).
        self._key_base = b"trace-build:%d:%d:%d:%d:" % (
            TRACE_BUILD_VERSION, _spec.SPEC_VERSION,
            _opt.OPT_PIPELINE_VERSION, _hostisa.HOSTISA_FORMAT_VERSION,
        )
        #: Live traces by head guest address.
        self.traces: Dict[int, Trace] = {}
        #: id(member Translation) -> traces containing it (sever index).
        self._by_member: Dict[int, List[Trace]] = {}
        #: Head addresses whose next execution should start a recording.
        self._want: set = set()
        #: Recording in progress: member list and the jump kind that led
        #: *out* of the last appended member.
        self._members: List[Translation] = []
        self._last_jk: Optional[JumpKind] = None
        #: Fast gate the dispatcher checks per block: True while any
        #: recording is requested or in progress.
        self.active = False
        # Counters (reported under --stats=json as the "traces" section).
        self.traces_built = 0
        #: Builds that stitched member IR (a build-key miss).
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

    # -- stitching ---------------------------------------------------------

    def _build(self, members: List[Translation]) -> Optional[Trace]:
        """Compile *members* into a trace (None: unstitchable)."""
        fetch = self.translator._fetch
        # Phase 1, no IR needed: stop at the first dead member or one
        # whose guest bytes changed since it was translated.
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
                outcome = self._stitch_and_compile(parts)
                if disk is not None:
                    disk.store_trace(key, *outcome)
            _build_cache_put(key, outcome)
        code, n_members, n_blocks, total_insns = outcome
        fn = self.hostcpu.compile_pygen(code) if code is not None else None
        self.compile_seconds += time.perf_counter() - t0
        if code is None:
            return None
        parts = parts[:n_members]
        return Trace(
            head_addr=parts[0].guest_addr,
            members=parts,
            ranges=tuple(r for m in parts[:n_blocks] for r in m.ranges),
            n_blocks=n_blocks,
            total_insns=total_insns,
            compiled_fn=fn,
        )

    def _build_key(self, parts: List[Translation]) -> bytes:
        """Hash everything a build of *parts* depends on (see the module
        docstring): the versions and each member's address and IR digest."""
        h = hashlib.sha1(self._key_base)
        for m in parts:
            digest = m.ir_digest
            if digest is None:
                digest = m.ir_digest = pickle_ir(self._member_ir(m))[1]
                if m.resident is not None:
                    # Later runs' memory-tier hits carry it from here.
                    m.resident.ir_digest = digest
            h.update(m.guest_addr.to_bytes(4, "little"))
            h.update(digest)
        return h.digest()

    def _member_ir(self, m: Translation) -> IRSB:
        """*m*'s flat instrumented IR: kept at translate time, decoded
        from the code cache, or regenerated through the front end."""
        sb = m.flat_ir()
        if sb is None:
            sb = m.irsb = self.translator.front_ir(self.resolve(m.guest_addr))
        return sb

    def _stitch_and_compile(self, members: List[Translation]) -> BuildOutcome:
        """Stitch *members*' IR into one superblock, optimise it across
        the seams and assemble it."""
        self.stitched += 1
        parts = [(m, self._member_ir(m)) for m in members]

        # Validate every seam, truncating at the first unprovable edge.
        plans: List[tuple] = []
        for j, (m, sb) in enumerate(parts):
            if j + 1 == len(parts):
                plans.append(("tail",))
                break
            b = parts[j + 1][0].guest_addr
            jk = sb.jumpkind
            if jk not in _TRACEABLE or sb.next is None:
                plans.append(("tail",))
                break
            nxt = sb.next
            if isinstance(nxt, Const):
                if (nxt.value & _M32) == b:
                    plans.append(("fall", jk))
                    continue
                last = _last_real_stmt(sb.stmts)
                if (
                    isinstance(last, Exit)
                    and last.dst_expr is None
                    and (last.dst & _M32) == b
                    and last.jumpkind in _TRACEABLE
                ):
                    plans.append(("invert", last.jumpkind))
                    continue
                plans.append(("tail",))
                break
            plans.append(("guard", jk))
        parts = parts[: len(plans)]
        if len(parts) < 2:
            return _UNSTITCHABLE

        # Stitch members into one IRSB, renaming temporaries.
        head = parts[0][0]
        trace = IRSB(jumpkind=JumpKind.Boring, guest_addr=head.guest_addr)
        for j, (m, sb) in enumerate(parts):
            delta = (max(trace.tyenv) + 1) if trace.tyenv else 0
            for tmp, ty in sb.tyenv.items():
                trace.tyenv[tmp + delta] = ty
            stmts = [s for s in sb.stmts if not isinstance(s, NoOp)]
            plan = plans[j]
            trace.add(TraceMark(j, m.guest_addr))
            if plan[0] == "invert":
                final_exit = stmts.pop()
                for s in stmts:
                    trace.add(_rename_stmt(s, delta))
                # The branch to the next member was observed taken: invert
                # it into a side exit on the fall-through address.
                ng = trace.new_tmp(Ty.I1)
                trace.add(WrTmp(ng, Unop("Not1",
                                         _rename_expr(final_exit.guard, delta))))
                trace.add(Exit(RdTmp(ng), sb.next.value & _M32, sb.jumpkind))
                self._emit_seam_helper(trace, plan[1],
                                       parts[j + 1][0].guest_addr)
                continue
            for s in stmts:
                trace.add(_rename_stmt(s, delta))
            if plan[0] == "fall":
                self._emit_seam_helper(trace, plan[1],
                                       parts[j + 1][0].guest_addr)
            elif plan[0] == "guard":
                b = parts[j + 1][0].guest_addr
                nxt = _rename_expr(sb.next, delta)
                tg = trace.new_tmp(Ty.I1)
                trace.add(WrTmp(tg, Binop("CmpNE32", nxt, c32(b))))
                # dst_expr: a seam miss leaves for the *computed* target.
                trace.add(Exit(RdTmp(tg), 0, sb.jumpkind, dst_expr=nxt))
                self._emit_seam_helper(trace, plan[1], b)
            else:  # tail
                trace.next = _rename_expr(sb.next, delta)
                trace.jumpkind = sb.jumpkind

        # Cross-block optimisation over the merged IR: the same Phase-2
        # passes, now seeing PUTs, CC thunks and guard computations from
        # *all* members at once.
        trace = forward_pass(trace, vx32_spec_helper)
        trace = cse(trace)
        trace = forward_pass(trace, vx32_spec_helper)
        trace = redundant_put_elim(trace)
        trace = dead_code(trace)
        if self.options.sanity_level >= 1:
            validate(trace, flat=True)

        # Exact post-optimisation accounting: constant folding may have
        # truncated the stitched block at an always-taken seam.
        total_insns = sum(1 for s in trace.stmts if isinstance(s, IMark))
        n_blocks = sum(1 for s in trace.stmts if isinstance(s, TraceMark))
        if not (1 <= n_blocks and 1 <= total_insns < _MAX_TRACE_INSNS):
            return _UNSTITCHABLE

        # Back end: tree building, instruction selection, allocation (over
        # the wide trace register file), assembly.
        tree = build_trees(trace)
        vcode = select(tree)
        hcode, _alloc = allocate(vcode, regfile=TRACE_REGFILE)
        return encode_insns(hcode), len(parts), n_blocks, total_insns

    def _emit_seam_helper(self, trace: IRSB, jk: JumpKind, target: int) -> None:
        """Maintain the shadow call stack across a Call/Ret seam."""
        if jk is JumpKind.Call:
            trace.add(Dirty(VG_TRACE_CALL, (c32(target),)))
        elif jk is JumpKind.Ret:
            trace.add(Dirty(VG_TRACE_RET, (c32(target),)))

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


def _last_real_stmt(stmts: List[Stmt]) -> Optional[Stmt]:
    for s in reversed(stmts):
        if not isinstance(s, NoOp):
            return s
    return None


#: JumpKind *values* (strings) the dispatcher reports — the recorder
#: compares against these, the stitcher against the enum members.
_TRACEABLE_VALUES = tuple(jk.value for jk in _TRACEABLE)
