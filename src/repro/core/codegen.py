"""Tiered host code generation (the ``--codegen`` pipeline).

Four executable tiers share one runner signature
(``fn(ts) -> (jump-kind, guest_insns)``) and one storage slot
(``Translation.compiled_fn``).  :meth:`CodegenTiers.attach` is the only
place a translation gets its runner, when the dispatcher finds none, and
it records the tier in ``Translation.tier``; so the dispatcher enters
every block the same way, and transtab eviction, SMC flushes and chain
severing work identically whichever tier a block is in.  An installed
``compiled_fn`` is always its tier's own runner; nothing wraps it:

============  ==========================================  ======================
tier          what executes                               runner built by
============  ==========================================  ======================
closures      per-insn closure list, looped by the runner ``compile_fn``
pygen         specialized function: locals + batched      ``compile_pygen``
              writeback
interp_first  IR interpreter over ``Translation.front``'s ``make_interp_runner``
              phase 1-4 IR; runs once, never installed
interp        IR interpreter over ``Translation.irsb``    ``make_interp_runner``
              (JIT-failure quarantine)
============  ==========================================  ======================

``--codegen=closures`` (default) is the paper's engine: every block goes
through all eight phases when it is translated and runs in the closure
tier.  ``--codegen=pygen`` interprets first: a block that misses both
translation tiers gets phases 1-4 only and runs its first execution in
the interp_first tier, whose runner :meth:`CodegenTiers.attach` returns
without installing it.  So its second execution comes back to
``attach``, which *promotes* it — phases 5-8 over the same IR
(:meth:`~repro.core.translate.Translator.promote`), then the pygen tier
on the same Translation — and a block that runs once never pays the
back end or a pygen compile.  The first run is marked on the memory
tier's shared payload, so a later run of the same process that hits the
block promotes it at once, as the block's second execution.  A block
whose host code already exists (a hit on host code in either
translation tier) enters the pygen tier at once.  ``--codegen=traces``
does the same and additionally splices hot chains of pygen blocks into
superblocks (:mod:`repro.core.traces`); the dispatcher counts a block's
runs, the interpreted one included, towards ``traces.TRACE_THRESHOLD``,
and a recording promotes its members when it ends.  In every mode
blocks that never run never compile (``live_blocks`` counts them as
``pending``), and a quarantined block (one ``translate_interp`` made
after a JIT failure, or one whose promotion failed) runs in the interp
tier.

A pygen compile failure (real or ``--inject=pygen@N``) *demotes* the
block to the closure tier and is counted; it never escapes as a host
traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Tier names (interp is a quarantine, not a target).
TIERS = ("closures", "pygen", "interp_first", "interp")

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
    #: Interpreted-first blocks given host code (phases 5-8).
    promotions: int = 0
    #: Cumulative translation (compile) time per tier, seconds.
    compile_seconds: Dict[str, float] = field(default_factory=_tier_seconds)


class CodegenTiers:
    """Chooses and compiles a translation's execution tier."""

    def __init__(
        self,
        hostcpu,
        options,
        translator,
        injector=None,
        on_demote: Optional[Callable] = None,
        on_quarantine: Optional[Callable] = None,
    ):
        self.hostcpu = hostcpu
        self.mode = options.codegen
        self.translator = translator
        self.injector = injector
        self.on_demote = on_demote
        #: Called with (translation, exception) when a promotion fails
        #: and the block is quarantined to the interp tier.
        self.on_quarantine = on_quarantine
        self.stats = CodegenStats()

    # -- first-execution hook (the dispatcher's attach_runner) --------------------

    def attach(self, t):
        """Return the runner of *t*'s tier, installed as its
        ``compiled_fn`` unless it is the interp_first runner of an
        unpromoted block's first execution: that one runs once, so the
        next execution comes back here and promotes the block."""
        front = t.front
        if front is not None:
            if not front.ran:
                front.ran = True
                cpu = self.hostcpu
                return self._runner(t, "interp_first", _interp_runner(),
                                    front.ir, cpu.helpers, cpu.env, cpu.mem)
            if self.promote(t):
                return t.compiled_fn
        if t.irsb is not None:
            cpu = self.hostcpu
            t.compiled_fn = self._runner(t, "interp", _interp_runner(),
                                         t.irsb, cpu.helpers, cpu.env, cpu.mem)
        else:
            self._attach_code(t)
        return t.compiled_fn

    def _attach_code(self, t) -> None:
        """Give *t*, which has host code, its pygen runner (the closure
        tier's under ``--codegen=closures`` or after a demotion)."""
        if self.mode == "closures" or not self._try_pygen(t):
            t.compiled_fn = self._runner(t, "closures",
                                         self.hostcpu.compile_fn, t.code)

    def promote(self, t) -> bool:
        """Give the interpreted-first *t* its host code
        (``Translator.promote``) and its runner, so host code a run
        stores always comes with its pygen payload.  If the back end
        fails, quarantine the block to the interp tier instead (its
        runner comes at its next execution: an unpromoted block has
        none installed) and return False."""
        try:
            self.translator.promote(t)
        except Exception as exc:
            t.irsb, t.front = t.front.ir, None
            if self.on_quarantine is not None:
                self.on_quarantine(t, exc)
            return False
        self.stats.promotions += 1
        self._attach_code(t)
        return True

    # -- tiers -------------------------------------------------------------------

    def _runner(self, t, tier: str, build: Callable, *args):
        """Make *t*'s runner with ``build(*args)`` and enter *t* in
        *tier*; returns the runner."""
        t0 = time.perf_counter()
        fn = build(*args)
        self.stats.compile_seconds[tier] += time.perf_counter() - t0
        t.tier = tier
        self.stats.tier_attaches[tier] += 1
        return fn

    def _try_pygen(self, t) -> bool:
        """Compile *t* to the pygen tier; on any failure (including an
        injected one) count a demotion and return False."""
        try:
            if self.injector is not None:
                self.injector.pygen_failure(t.guest_addr)
            t.compiled_fn = self._runner(t, "pygen",
                                         self.hostcpu.compile_pygen, t.code)
        except Exception as exc:
            self.stats.demotions += 1
            if self.on_demote is not None:
                self.on_demote(t, exc)
            return False
        return True

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
            "promotions": s.promotions,
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


def _interp_runner():
    # Imported here: options imports this module for CODEGEN_MODES, and
    # translate imports options.
    from .translate import make_interp_runner

    return make_interp_runner
