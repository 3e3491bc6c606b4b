"""The dispatcher (Section 3.9).

Control flows from one translation to the next via the *dispatcher*
(fast) or the *scheduler* (slow).  The dispatcher looks translations up in
a small direct-mapped cache of recently-used translations (the paper
reports a ~98% hit rate and a fourteen-instruction fast path); on a miss
it falls back to the full translation table, and if the translation does
not exist at all, control returns to the scheduler to make one.

The dispatcher also causes control to fall back to the scheduler every
few thousand translation executions so the scheduler can check for thread
switches and pending signals.

Optional *chaining* (linking, ``--chaining=yes``) patches a translation to
jump straight to its successor, avoiding the look-up entirely; the real
Valgrind 3.2.1 did not do this (its old JIT did), so it is off by default
and exists here for the ablation bench.  A translation has one link slot
per exit kind (Boring, Call, Ret), each filled at most once with the
first successor observed after a look-up, and every link is made through
the translation table's :class:`~repro.core.transtab.ChainRegistry`, so
eviction, munmap and SMC invalidation sever it.  With chaining off no
slot is read or written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..guest.regs import GUEST_STATE_SIZE, OFFSET_PC
from ..ir.stmt import JumpKind
from ..kernel.memory import GuestFault
from .options import Options
from .transtab import TranslationTable
from .translate import Translation

_BORING = JumpKind.Boring.value
_CALL = JumpKind.Call.value
_RET = JumpKind.Ret.value
#: The chain slot each chainable exit kind links through.
_CHAIN_SLOT = {_BORING: "chain_next", _CALL: "chain_call", _RET: "chain_ret"}
#: Aligned-slot index of the guest PC in a ThreadState's u32 view.
_PC_IDX = OFFSET_PC // 4


@dataclass
class DispatchStats:
    fast_hits: int = 0
    slow_hits: int = 0
    chained: int = 0
    misses: int = 0
    blocks_executed: int = 0
    quantum_expiries: int = 0
    smc_flushes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.fast_hits + self.slow_hits + self.chained + self.misses
        hits = self.fast_hits + self.chained
        return hits / total if total else 0.0


class Dispatcher:
    """Runs translations back-to-back for one thread until something
    needs the scheduler's attention."""

    def __init__(
        self,
        transtab: TranslationTable,
        hostcpu,
        options: Options,
        smc_recheck: Optional[Callable[[Translation], bool]] = None,
    ):
        self.transtab = transtab
        self.hostcpu = hostcpu
        self.options = options
        self.smc_recheck = smc_recheck
        #: Codegen tiering (set by the scheduler): called with a
        #: translation whose compiled_fn is None on its first execution,
        #: compiles it for its starting tier and returns the runner.
        self.attach_runner: Optional[Callable] = None
        #: Trace tier (set by the scheduler under --codegen=traces):
        #: a TraceManager whose ``on_block`` hook records hot successor
        #: chains.  Compiled traces hang off their head Translation's
        #: ``trace`` attribute, so the per-block probe is free for
        #: untraced blocks.
        self.traces = None
        self._tiered = options.codegen != "closures"
        size = options.dispatch_cache_size
        self._mask = size - 1
        self._cache: list = [None] * size
        #: Precise synchronous faults: snapshot the architected state
        #: before each block so an escaping GuestFault/ZeroDivisionError
        #: can be rolled to the exact faulting instruction boundary.
        self._precise = options.precise_faults
        #: Recovery hook (set by the scheduler): called with
        #: (ts, entry-snapshot, translation, exception), commits the
        #: precise state and returns (SigInfo, completed guest insns).
        self.fault_recover: Optional[Callable] = None
        #: Async-signal latency: polled every ``signal_poll_interval``
        #: blocks so a chained run cannot outrun a pending signal by more
        #: than that many blocks (set by the scheduler).
        self.signals_pending: Optional[Callable[[], bool]] = None
        self._poll = max(1, options.signal_poll_interval)
        #: Record/replay checkpointing: when set, the loop returns
        #: ("insns", n) at the first block boundary where the cumulative
        #: guest instruction count reaches this value (set per dispatch
        #: call by the scheduler; None disables the check entirely).
        self.stop_at_insns: Optional[int] = None
        self.stats = DispatchStats()
        #: Guest instructions executed — exact: each block execution
        #: reports its completed IMark count, side exits included.
        self.guest_insns = 0

    def flush_cache(self) -> None:
        """Invalidate the fast look-up cache (after any translation
        discard)."""
        self._cache = [None] * len(self._cache)

    def run(self, ts, max_blocks: Optional[int] = None) -> Tuple[str, object]:
        """Execute translations for thread state *ts* until an event.

        Returns one of:
          ("translate", pc)   — no translation exists for pc; make one
          ("jumpkind", jk)    — a non-Boring jump kind needs handling
          ("smc", t)          — an SMC hash check failed on translation t
          ("quantum", None)   — the dispatch quantum expired
          ("fault", si)       — a synchronous guest fault; state is
                                committed to the faulting boundary and
                                *si* is the SigInfo describing it
          ("signals", n)      — a pending signal was observed mid-quantum
                                after *n* blocks; deliver it
          ("insns", n)        — the guest-instruction stop point
                                (``stop_at_insns``) was reached after *n*
                                blocks (record/replay checkpointing)
        """
        stats = self.stats
        cache = self._cache
        mask = self._mask
        transtab = self.transtab
        hostcpu = self.hostcpu
        chaining = self.options.chaining
        smc_recheck = self.smc_recheck
        attach = self.attach_runner if self._tiered else None
        quantum = self.options.dispatch_quantum
        if max_blocks is not None:
            quantum = min(quantum, max_blocks)
        precise = self._precise and self.fault_recover is not None
        sig_poll = self.signals_pending
        next_poll = self._poll
        stop = self.stop_at_insns
        tm = self.traces
        # Per-block counters accumulate in locals and are flushed to the
        # instance before every exit and signal poll (timer delivery reads
        # ``guest_insns`` from inside the poll callback).
        n = 0
        gi = 0
        flushed = 0
        u32 = ts.u32
        arch = ts.arch
        # Chaining: (translation, slot) to link once the next translation
        # is resolved through a look-up.  Always None with chaining off.
        pend: Optional[Tuple[Translation, str]] = None
        t: Optional[Translation] = None
        while n < quantum:
            if stop is not None and self.guest_insns + gi >= stop:
                stats.blocks_executed += n - flushed
                self.guest_insns += gi
                return ("insns", n)
            # A chained run can execute an entire quantum without touching
            # the scheduler; poll so an async signal (timer, kill) is
            # observed within ``signal_poll_interval`` blocks.
            if sig_poll is not None and n >= next_poll:
                next_poll = n + self._poll
                stats.blocks_executed += n - flushed
                flushed = n
                self.guest_insns += gi
                gi = 0
                if sig_poll():
                    return ("signals", n)
            if t is None:
                pc = u32[_PC_IDX] if u32 is not None else ts.pc
                idx = (pc >> 1) & mask
                cand = cache[idx]
                if cand is not None and cand.guest_addr == pc and not cand.dead:
                    t = cand
                    stats.fast_hits += 1
                else:
                    # Fast look-up failed: search the full table (this
                    # is the "scheduler" slow path of Section 3.9).
                    t = transtab.lookup(pc)
                    if t is None:
                        stats.misses += 1
                        stats.blocks_executed += n - flushed
                        self.guest_insns += gi
                        return ("translate", pc)
                    cache[idx] = t
                    stats.slow_hits += 1
                if pend is not None:
                    src, slot = pend
                    # Chain-once: an occupied slot is left alone, so a
                    # polymorphic successor (a Ret with many callers)
                    # does not thrash the registry on every dispatch.
                    if not src.dead and getattr(src, slot) is None:
                        transtab.chain(src, slot, t)
                    pend = None
            # Trace tier: a compiled superblock headed at this block runs
            # whole member chains in one call; the probe is one attribute
            # check on the translation already in hand.  Entry is
            # conservative — near a quantum, poll or insn-stop boundary
            # the block tier runs instead, so trace runs never cross an
            # accounting boundary the block tier would have observed.
            if t.trace is not None:
                tr = t.trace
                if (
                    not tr.dead
                    and n + tr.n_blocks <= quantum
                    and (sig_poll is None or n + tr.n_blocks <= next_poll)
                    and (stop is None
                         or self.guest_insns + gi + tr.total_insns <= stop)
                ):
                    if tm.active:
                        tm.flush_recording()
                    fn = tr.compiled_fn
                    hostcpu.trace_blocks = 0
                    if precise:
                        snap = bytes(arch)
                        try:
                            jk, icnt = fn(ts)
                        except (GuestFault, ZeroDivisionError) as exc:
                            stats.blocks_executed += (
                                n + hostcpu.trace_blocks + 1 - flushed)
                            self.guest_insns += gi
                            si, ricnt = self.fault_recover(ts, snap, tr, exc)
                            self.guest_insns += ricnt
                            return ("fault", si)
                    else:
                        jk, icnt = fn(ts)
                    nb = hostcpu.trace_blocks + 1
                    n += nb
                    gi += icnt
                    tm.runs += 1
                    tm.blocks_retired += nb
                    tm.insns_retired += icnt
                    tr.runs += 1
                    tr.blocks += nb
                    if icnt != tr.total_insns:
                        tm.note_side_exit(tr)
                    if jk != _BORING:
                        if jk == _CALL:
                            ts.push_call(hostcpu.mem.load32(ts.sp), ts.pc)
                        elif jk == _RET:
                            ts.pop_ret(u32[_PC_IDX] if u32 is not None
                                       else ts.pc)
                        else:
                            stats.blocks_executed += n - flushed
                            self.guest_insns += gi
                            return ("jumpkind", jk)
                    t = None
                    continue
            if t.smc_checked and smc_recheck is not None and not smc_recheck(t):
                stats.smc_flushes += 1
                stats.blocks_executed += n - flushed
                self.guest_insns += gi
                return ("smc", t)
            # Every tier but the closure tier runs through compiled_fn;
            # closure-tier blocks run their closure list directly, with
            # no runner call wrapped around it.
            fn = t.compiled_fn
            if fn is None:
                if attach is not None:
                    fn = attach(t)
                elif t.compiled is None:
                    t.compiled = hostcpu.compile(t.code)
            if precise:
                snap = bytes(arch)
                try:
                    if fn is not None:
                        jk, icnt = fn(ts)
                    else:
                        jk, icnt = hostcpu.run(t.compiled, ts)
                except (GuestFault, ZeroDivisionError) as exc:
                    stats.blocks_executed += n + 1 - flushed
                    self.guest_insns += gi
                    si, ricnt = self.fault_recover(ts, snap, t, exc)
                    self.guest_insns += ricnt
                    return ("fault", si)
            elif fn is not None:
                jk, icnt = fn(ts)
            else:
                jk, icnt = hostcpu.run(t.compiled, ts)
            n += 1
            gi += icnt
            if tm is not None and tm.active:
                tm.on_block(t, jk)
            if jk != _BORING:
                if jk == _CALL:
                    # Shadow call stack for stack traces: the return
                    # address was just pushed at [sp].
                    ts.push_call(hostcpu.mem.load32(ts.sp), ts.pc)
                elif jk == _RET:
                    ts.pop_ret(u32[_PC_IDX] if u32 is not None else ts.pc)
                else:
                    stats.blocks_executed += n - flushed
                    self.guest_insns += gi
                    return ("jumpkind", jk)
            if chaining:
                # Follow the link for this exit kind, bypassing the
                # look-up; an empty slot is linked to whatever the next
                # look-up resolves.
                slot = _CHAIN_SLOT[jk]
                nxt = getattr(t, slot)
                if nxt is None:
                    pend = (t, slot)
                elif not nxt.dead and nxt.guest_addr == (
                    u32[_PC_IDX] if u32 is not None else ts.pc
                ):
                    stats.chained += 1
                    t = nxt
                    continue
            t = None
        stats.quantum_expiries += 1
        stats.blocks_executed += n - flushed
        self.guest_insns += gi
        return ("quantum", None)
