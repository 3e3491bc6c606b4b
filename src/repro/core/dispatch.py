"""The dispatcher (Section 3.9).

Control flows from one translation to the next via the *dispatcher*
(fast) or the *scheduler* (slow).  The dispatcher looks translations up in
a small direct-mapped cache of recently-used translations (the paper
reports a ~98% hit rate and a fourteen-instruction fast path); on a miss
it falls back to the full translation table, and if the translation does
not exist at all, control returns to the scheduler to make one.

The dispatcher also causes control to fall back to the scheduler every
few thousand translation executions so the scheduler can check for thread
switches and pending signals.  Between those returns it polls for pending
asynchronous signals every :data:`SIGNAL_POLL_BLOCKS` blocks, so a chained
run cannot outrun a timer or a kill by a whole quantum.

Optional *chaining* (linking, ``--chaining=yes``) patches a translation to
jump straight to its successor, avoiding the look-up entirely; the real
Valgrind 3.2.1 did not do this (its old JIT did), so it is off by default
and exists here for the ablation bench.  A translation has one link slot
per exit kind (Boring, Call, Ret), each filled at most once with the
first successor observed after a look-up, and every link is made through
the translation table's :class:`~repro.core.transtab.ChainRegistry`, so
eviction, munmap and SMC invalidation sever it.  With chaining off no
slot is read or written.

Under the trace tier (``--codegen=traces``) the block path also counts
each translation's runs, the way the quantum counts blocks: the run
that brings a block's count to the trace manager's threshold asks it to
record the chain the block heads (:mod:`repro.core.traces`).  Other
engines skip it at the trace-tier check the block path already makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..guest.regs import OFFSET_PC
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
#: Blocks a dispatch run executes between polls for pending asynchronous
#: signals: the bound on how late a timer or kill is observed.
SIGNAL_POLL_BLOCKS = 100


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
        *,
        smc_recheck: Callable[[Translation], bool],
        fault_recover: Callable,
        signals_pending: Callable[[], bool],
        attach_runner: Callable,
        traces=None,
    ):
        self.transtab = transtab
        self.hostcpu = hostcpu
        self.options = options
        self.smc_recheck = smc_recheck
        #: Precise synchronous faults: called with (ts, entry-snapshot,
        #: translation or trace, exception) when a GuestFault or
        #: ZeroDivisionError escapes a runner; rolls the state to the
        #: exact faulting instruction boundary and returns (SigInfo,
        #: completed guest insns).
        self.fault_recover = fault_recover
        #: Async-signal poll: did a signal become pending?
        self.signals_pending = signals_pending
        #: Codegen tiering (CodegenTiers.attach): called with a
        #: translation whose compiled_fn is None on its first execution,
        #: gives it its tier's runner and returns it.
        self.attach_runner = attach_runner
        #: Trace tier (--codegen=traces): a TraceManager whose
        #: ``request`` the block path calls at its threshold and whose
        #: ``on_block`` hook records hot successor chains.  Compiled
        #: traces hang off their head Translation's ``trace`` attribute,
        #: so the per-block probe is free for untraced blocks.
        self.traces = traces
        size = options.dispatch_cache_size
        self._mask = size - 1
        self._cache: list = [None] * size
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

    def refill_cache(self, slots) -> None:
        """Refill the fast look-up cache from checkpointed ``[slot, guest
        address]`` pairs with the table's translations, without counting a
        look-up or touching LRU order (checkpoint restore)."""
        cache = self._cache
        for slot, addr in slots:
            t = self.transtab.peek(addr)
            if t is not None and (addr >> 1) & self._mask == slot:
                cache[slot] = t

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
        attach = self.attach_runner
        quantum = self.options.dispatch_quantum
        if max_blocks is not None:
            quantum = min(quantum, max_blocks)
        # One block budget: the nearer of the quantum's end and the next
        # signal poll, re-armed after each poll.
        limit = min(quantum, SIGNAL_POLL_BLOCKS)
        stop = self.stop_at_insns
        tm = self.traces
        # Blocks, guest insns, fast hits and chain follows accumulate in
        # locals, flushed at each poll (timer delivery reads
        # ``guest_insns`` from inside the poll callback) and at the exit.
        n = gi = fast = chained = flushed = 0
        u32 = ts.u32
        arch = ts.arch
        # Chaining: (translation, slot) to link once the next translation
        # is resolved through a look-up.  Always None with chaining off.
        pend: Optional[Tuple[Translation, str]] = None
        t: Optional[Translation] = None
        while True:
            if n >= limit:
                if n >= quantum:
                    stats.quantum_expiries += 1
                    reason, payload = "quantum", None
                    break
                # A chained run can execute a whole quantum without
                # touching the scheduler; poll so an async signal (timer,
                # kill) is seen within SIGNAL_POLL_BLOCKS blocks.  A
                # checkpoint due at this block is taken first.
                if stop is None or self.guest_insns + gi < stop:
                    stats.blocks_executed += n - flushed
                    flushed = n
                    self.guest_insns += gi
                    stats.fast_hits += fast
                    stats.chained += chained
                    gi = fast = chained = 0
                    if self.signals_pending():
                        reason, payload = "signals", n
                        break
                    limit = min(quantum, n + SIGNAL_POLL_BLOCKS)
            if stop is not None and self.guest_insns + gi >= stop:
                reason, payload = "insns", n
                break
            if t is None:
                pc = u32[_PC_IDX] if u32 is not None else ts.pc
                idx = (pc >> 1) & mask
                t = cache[idx]
                if t is not None and t.guest_addr == pc and not t.dead:
                    fast += 1
                else:
                    # Fast look-up failed: search the full table (this
                    # is the "scheduler" slow path of Section 3.9).
                    t = transtab.lookup(pc)
                    if t is None:
                        stats.misses += 1
                        reason, payload = "translate", pc
                        break
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
            # load on the translation already in hand.  Entry is
            # conservative — a trace that would cross the block budget or
            # the insn stop leaves the block tier to run instead, so
            # trace runs never skip a boundary the block tier observes.
            tr = t.trace
            if tr is not None and (
                tr.dead
                or n + tr.n_blocks > limit
                or (stop is not None
                    and self.guest_insns + gi + tr.total_insns > stop)
            ):
                tr = None
            if tr is not None:
                if tm.active:
                    tm.flush_recording()
                fn = tr.compiled_fn
                hostcpu.trace_blocks = 0
            else:
                if t.smc_checked and not smc_recheck(t):
                    stats.smc_flushes += 1
                    reason, payload = "smc", t
                    break
                fn = t.compiled_fn
                if fn is None:
                    fn = attach(t)
            snap = bytes(arch)
            try:
                jk, icnt = fn(ts)
            except (GuestFault, ZeroDivisionError) as exc:
                n += 1 if tr is None else hostcpu.trace_blocks + 1
                si, ricnt = self.fault_recover(
                    ts, snap, t if tr is None else tr, exc)
                gi += ricnt
                reason, payload = "fault", si
                break
            if tr is not None:
                # The member the run reached (TRACEMARK) counts its
                # blocks exactly, side exits included; the trace tier's
                # totals are summed from these when stats are read.
                nb = hostcpu.trace_blocks + 1
                tr.runs += 1
                tr.blocks += nb
                tr.insns += icnt
                if icnt != tr.total_insns:
                    tm.note_side_exit(tr)
            else:
                nb = 1
                if tm is not None:
                    # Count the run before on_block: a recording it
                    # requests starts at this very block.
                    c = t.exec_count + 1
                    t.exec_count = c
                    if c == tm.threshold and not t.trace_failed:
                        tm.request(t)
                    if tm.active:
                        tm.on_block(t, jk)
            n += nb
            gi += icnt
            if jk != _BORING:
                if jk == _CALL:
                    # Shadow call stack for stack traces: the return
                    # address was just pushed at [sp].
                    ts.push_call(hostcpu.mem.load32(ts.sp), ts.pc)
                elif jk == _RET:
                    ts.pop_ret(u32[_PC_IDX] if u32 is not None else ts.pc)
                else:
                    reason, payload = "jumpkind", jk
                    break
            if chaining and tr is None:
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
                    chained += 1
                    t = nxt
                    continue
            t = None
        stats.blocks_executed += n - flushed
        self.guest_insns += gi
        stats.fast_hits += fast
        stats.chained += chained
        return reason, payload
