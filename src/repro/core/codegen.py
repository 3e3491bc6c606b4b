"""Tiered host code generation (the ``--codegen`` pipeline).

Three executable tiers share one runner signature
(``fn(ts) -> (jump-kind, guest_insns)``) and one storage slot
(``Translation.compiled_fn``), so transtab eviction, SMC flushes and
chain severing work identically whichever tier a block is in:

=========  ==================================================  ============================
tier       what executes                                        compiled by
=========  ==================================================  ============================
closures   per-insn closure list via ``HostCPU.run``            ``compile`` / ``compile_fn``
pygen      specialized function: locals + batched writeback     ``compile_pygen``
interp     IR interpreter (JIT-failure quarantine)              ``translate_interp``
=========  ==================================================  ============================

``--codegen=closures`` (default) is the paper's engine: the dispatcher
compiles each block's closure list itself (``compile``) on first
execution and runs it without a runner wrapped around it; ``compile_fn``
wraps the same list as a runner for pygen blocks demoted to this tier.
``--codegen=pygen`` compiles every block to the pygen tier on its *first
execution*, so blocks that never run never compile (``live_blocks``
counts them as ``pending``).  ``--codegen=traces`` does the same and
additionally splices hot chains of pygen blocks into superblocks
(:mod:`repro.core.traces`).

A pygen compile failure (real or ``--inject=pygen@N``) *demotes* the
block to the closure tier and is counted; it never escapes as a host
traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Tier names (interp is a quarantine, not a target).
TIERS = ("closures", "pygen", "interp")

#: Valid --codegen modes.
CODEGEN_MODES = ("closures", "pygen", "traces")


def _tier_counter() -> Dict[str, int]:
    return {t: 0 for t in TIERS}


def _tier_seconds() -> Dict[str, float]:
    return {t: 0.0 for t in TIERS}


@dataclass
class CodegenStats:
    """Cumulative tier bookkeeping (reported under --stats=json)."""

    #: Blocks that entered each tier.
    tier_attaches: Dict[str, int] = field(default_factory=_tier_counter)
    #: pygen compile failures demoted to the closure tier.
    demotions: int = 0
    #: Cumulative translation (compile) time per tier, seconds.
    compile_seconds: Dict[str, float] = field(default_factory=_tier_seconds)


class CodegenTiers:
    """Chooses and compiles a translation's execution tier."""

    def __init__(
        self,
        hostcpu,
        options,
        injector=None,
        on_demote: Optional[Callable] = None,
    ):
        self.hostcpu = hostcpu
        self.mode = options.codegen
        self.trace_threshold = max(1, options.trace_threshold)
        self.injector = injector
        self.on_demote = on_demote
        #: Trace manager (set by the scheduler under --codegen=traces):
        #: blocks crossing --trace-threshold request a chain recording.
        self.traces = None
        self.stats = CodegenStats()

    # -- first-execution hook (the dispatcher's attach_runner) --------------------

    def attach(self, t):
        """Give *t* a ``compiled_fn`` for its starting tier; returns it."""
        if not self._try_pygen(t):
            self._attach_closures(t)
        elif self.traces is not None:
            self._wrap_trace_counting(t)
        return t.compiled_fn

    def _wrap_trace_counting(self, t) -> None:
        """Count the pygen runner's executions; at --trace-threshold ask
        the trace manager to record the chain starting at this block.

        The wrapper exists only to find the threshold crossing: once it
        fires it puts the raw runner back, so steady-state block
        execution pays no counting frame.  The trace manager re-wraps a
        severed trace's surviving head (via ``rewrap``) to let it prove
        itself hot again.
        """
        inner = t.compiled_fn
        threshold = self.trace_threshold
        mgr = self.traces

        def fn(ts, _inner=inner, _t=t):
            out = _inner(ts)
            n = _t.exec_count + 1
            _t.exec_count = n
            if n >= threshold:
                _t.compiled_fn = _inner
                # Fire once: a failed trace build is not retried.
                if not _t.trace_failed:
                    mgr.request(_t)
            return out

        t.compiled_fn = fn

    def note_interp(self, t) -> None:
        """Record a quarantined (IR-interpreter) translation."""
        t.tier = "interp"
        self.stats.tier_attaches["interp"] += 1

    # -- tiers -------------------------------------------------------------------

    def _try_pygen(self, t) -> bool:
        """Compile *t* to the pygen tier; on any failure (including an
        injected one) demote and return False."""
        try:
            if self.injector is not None:
                self.injector.pygen_failure(t.guest_addr)
            t0 = time.perf_counter()
            fn = self.hostcpu.compile_pygen(t.code)
            self.stats.compile_seconds["pygen"] += time.perf_counter() - t0
        except Exception as exc:
            t.pygen_failed = True
            self.stats.demotions += 1
            if self.on_demote is not None:
                self.on_demote(t, exc)
            return False
        t.tier = "pygen"
        self.stats.tier_attaches["pygen"] += 1
        t.compiled_fn = fn
        return True

    def _attach_closures(self, t) -> None:
        """A demoted block's fallback: the closure tier, as a runner."""
        t0 = time.perf_counter()
        fn = self.hostcpu.compile_fn(t.code)
        self.stats.compile_seconds["closures"] += time.perf_counter() - t0
        t.tier = "closures"
        self.stats.tier_attaches["closures"] += 1
        t.compiled_fn = fn

    # -- reporting ---------------------------------------------------------------

    def stats_dict(self, transtab=None) -> dict:
        # Imported here, not at module top: pygen stays unloaded for
        # closure-tier runs that never compile a pygen block (and never
        # ask for stats), keeping their per-process footprint unchanged.
        from ..backend.pygen import emit_cache_stats, emit_stats

        s = self.stats
        cpu = self.hostcpu
        out = {
            "mode": self.mode,
            "tier_attaches": dict(s.tier_attaches),
            "demotions": s.demotions,
            "compile_seconds": dict(s.compile_seconds),
            "pygen_cache": {
                "hits": cpu.pygen_cache_hits,
                "misses": cpu.pygen_cache_misses,
                "unique_blocks": len(cpu._pygen_cache),
                "compiles": cpu.pygen_compiles,
            },
            "emit_cache": emit_cache_stats(),
            "emit": emit_stats(),
        }
        if transtab is not None:
            live: Dict[str, int] = {}
            for t in transtab.all_translations():
                tier = t.tier or "pending"
                live[tier] = live.get(tier, 0) + 1
            out["live_blocks"] = live
        return out
