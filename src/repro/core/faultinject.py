"""Deterministic seeded fault injection (the chaos harness back-end).

The robustness claim of the paper's core — "the framework must survive
anything the guest does" — is only testable if the rare failure paths can
be driven on demand.  This module provides *fault plans*: deterministic,
seeded schedules of injected failures that the core consults at well
defined points:

* ``mmap-enomem`` — fail a client mmap/brk/mremap with ENOMEM;
* ``eintr``      — fail a client read/write/open with EINTR;
* ``smc-flush``  — force a spurious self-modifying-code flush of the
  current translation (exercises discard + retranslate);
* ``evict``      — force a translation-table eviction round (exercises
  chain severing and cache invalidation);
* ``segv``       — post a synthetic GuestFault-style SIGSEGV before a
  dispatch step (exercises the precise-fault recovery path);
* ``isel``       — raise an internal error inside the JIT pipeline
  (exercises the quarantine / IR-interp degradation path);
* ``pygen``      — fail a pygen-tier block compilation (exercises the
  codegen demotion path: pygen -> closures).

A plan is parsed from the ``--inject=`` option value::

    --inject=mmap-enomem@3,eintr:0.05,smc-flush:0.01,seed=7

``event@N`` fires on exactly the Nth opportunity (1-based);
``event:P`` fires each opportunity with probability P, drawn from a
``random.Random(seed)`` stream so the whole schedule is a pure function
of the spec string.  Identical specs produce identical runs; omitting
``--inject`` never constructs an injector, so fault-free runs are
bit-identical to builds without this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional


class InjectedJitError(Exception):
    """A deliberately injected internal JIT-pipeline failure."""

    def __init__(self, addr: int):
        super().__init__(f"injected isel failure for block at {addr:#x}")
        self.addr = addr


class InjectedPygenError(Exception):
    """A deliberately injected pygen-tier compilation failure."""

    def __init__(self, addr: int):
        super().__init__(f"injected pygen compile failure for block at {addr:#x}")
        self.addr = addr


class BadInjectSpec(Exception):
    pass


#: Event names a plan may schedule.
EVENTS = ("mmap-enomem", "eintr", "smc-flush", "evict", "segv", "isel",
          "pygen")


@dataclass
class _Rule:
    """One scheduled event kind: fire at a fixed count and/or by chance."""

    at: Optional[int] = None      # fire on exactly the Nth opportunity
    prob: float = 0.0             # else fire with this probability
    seen: int = 0                 # opportunities observed so far
    fired: int = 0                # injections actually performed


class FaultInjector:
    """One parsed fault plan; consulted by the core at injection points.

    Every query advances deterministic state (counters and one seeded RNG
    stream), so a plan replays identically for identical specs.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.seed = 0
        self.rules: Dict[str, _Rule] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    self.seed = int(part[5:], 0)
                except ValueError:
                    raise BadInjectSpec(f"bad seed in --inject: {part!r}")
                continue
            name, n, p = part, None, 0.0
            if "@" in part:
                name, _, num = part.partition("@")
                try:
                    n = int(num, 0)
                except ValueError:
                    raise BadInjectSpec(f"bad count in --inject: {part!r}")
                if n < 1:
                    raise BadInjectSpec(f"--inject counts are 1-based: {part!r}")
            elif ":" in part:
                name, _, prob = part.partition(":")
                try:
                    p = float(prob)
                except ValueError:
                    raise BadInjectSpec(f"bad probability in --inject: {part!r}")
                if not 0.0 <= p <= 1.0:
                    raise BadInjectSpec(f"probability out of range: {part!r}")
            if name not in EVENTS:
                raise BadInjectSpec(
                    f"unknown --inject event {name!r} (known: {', '.join(EVENTS)})"
                )
            rule = self.rules.setdefault(name, _Rule())
            if n is not None:
                rule.at = n
            else:
                rule.prob = p
        self._rng = random.Random(self.seed)

    # -- the generic decision -------------------------------------------------

    def _fires(self, name: str) -> bool:
        rule = self.rules.get(name)
        if rule is None:
            return False
        rule.seen += 1
        hit = False
        if rule.at is not None and rule.seen == rule.at:
            hit = True
        elif rule.prob > 0.0 and self._rng.random() < rule.prob:
            hit = True
        if hit:
            rule.fired += 1
        return hit

    # -- injection points the core consults -----------------------------------

    def mmap_enomem(self) -> bool:
        """Should this client mmap/brk/mremap fail with ENOMEM?"""
        return self._fires("mmap-enomem")

    def eintr(self) -> bool:
        """Should this client read/write/open fail with EINTR?"""
        return self._fires("eintr")

    def dispatch_event(self) -> Optional[str]:
        """Consulted once per scheduler dispatch step.

        Returns "segv", "smc-flush", "evict", or None.  At most one event
        fires per step (priority: segv, then smc-flush, then evict), so a
        single step never performs conflicting invalidations.
        """
        if self._fires("segv"):
            return "segv"
        if self._fires("smc-flush"):
            return "smc-flush"
        if self._fires("evict"):
            return "evict"
        return None

    def jit_failure(self, addr: int) -> None:
        """Consulted inside the translation pipeline, before isel; raises
        :class:`InjectedJitError` when the plan schedules a JIT failure."""
        if self._fires("isel"):
            raise InjectedJitError(addr)

    def pygen_failure(self, addr: int) -> None:
        """Consulted before each pygen-tier block compilation; raises
        :class:`InjectedPygenError` when the plan schedules one (the
        codegen layer catches it and demotes the block to closures)."""
        if self._fires("pygen"):
            raise InjectedPygenError(addr)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-event {seen, fired} counts (for ``--stats=json``)."""
        return {
            name: {"seen": r.seen, "fired": r.fired}
            for name, r in sorted(self.rules.items())
        }


#: Worker-level fault kinds the fleet supervisor's chaos matrix schedules.
FLEET_EVENTS = ("kill", "hang", "pygen-poison", "corrupt")


class FleetInjector:
    """A worker-level fault plan for the fleet supervisor's chaos matrix.

    Same spec grammar as :class:`FaultInjector`, different event names::

        --fleet-inject=kill:0.1,hang@4,pygen-poison:0.05,corrupt:0.2,seed=7

    * ``kill``         — the worker SIGKILLs itself mid-run (crash isolation);
    * ``hang``         — the worker stops heartbeating and sleeps forever
      (exercises the watchdog's heartbeat reaper);
    * ``pygen-poison`` — the worker raises InjectedPygenError from inside
      the run (exercises retry + tier degradation to closures);
    * ``corrupt``      — the job's shipped crash bundle is damaged in
      transit (the supervisor must classify it, not crash).

    Unlike FaultInjector's single sequential RNG stream, every decision
    here is a pure function of ``(seed, job_id, attempt)``: ``kind@N``
    fires on job N's *first* attempt, ``kind:P`` is an independent draw
    per (job, attempt) seeded from those values.  Fault schedules are
    therefore identical across fleet runs no matter how the OS schedules
    workers or which order jobs complete in.
    """

    #: Worker directives fire at this heartbeat tick (1 = job start) so a
    #: fault lands mid-run, after some events have been recorded.
    _MAX_TICK = 4

    def __init__(self, spec: str):
        self.spec = spec
        self.seed = 0
        self.rules: Dict[str, _Rule] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    self.seed = int(part[5:], 0)
                except ValueError:
                    raise BadInjectSpec(f"bad seed in --fleet-inject: {part!r}")
                continue
            name, n, p = part, None, 0.0
            if "@" in part:
                name, _, num = part.partition("@")
                try:
                    n = int(num, 0)
                except ValueError:
                    raise BadInjectSpec(f"bad count in --fleet-inject: {part!r}")
                if n < 1:
                    raise BadInjectSpec(
                        f"--fleet-inject counts are 1-based job ids: {part!r}"
                    )
            elif ":" in part:
                name, _, prob = part.partition(":")
                try:
                    p = float(prob)
                except ValueError:
                    raise BadInjectSpec(
                        f"bad probability in --fleet-inject: {part!r}"
                    )
                if not 0.0 <= p <= 1.0:
                    raise BadInjectSpec(f"probability out of range: {part!r}")
            if name not in FLEET_EVENTS:
                raise BadInjectSpec(
                    f"unknown --fleet-inject event {name!r} "
                    f"(known: {', '.join(FLEET_EVENTS)})"
                )
            rule = self.rules.setdefault(name, _Rule())
            if n is not None:
                rule.at = n
            else:
                rule.prob = p

    def _draw(self, name: str, job_id: int, attempt: int) -> bool:
        """One deterministic decision for (event, job, attempt)."""
        rule = self.rules.get(name)
        if rule is None:
            return False
        rule.seen += 1
        hit = False
        if rule.at is not None and rule.at == job_id + 1 and attempt == 0:
            hit = True
        elif rule.prob > 0.0:
            rng = self._rng(name, job_id, attempt)
            hit = rng.random() < rule.prob
        if hit:
            rule.fired += 1
        return hit

    def _rng(self, name: str, job_id: int, attempt: int) -> random.Random:
        # String seeds hash via SHA-512 in random.seed(), so this is
        # stable across processes and interpreter runs (unlike hash()).
        return random.Random(f"fleet:{self.seed}:{name}:{job_id}:{attempt}")

    def directive(self, job_id: int, attempt: int):
        """The worker-side fault directive for this (job, attempt), if any:
        ``(kind, tick)`` where *tick* is the 1-based heartbeat tick at
        which the fault fires inside the worker.  At most one directive
        per attempt (priority: kill, hang, pygen-poison)."""
        for name in ("kill", "hang", "pygen-poison"):
            if self._draw(name, job_id, attempt):
                tick = self._rng(name + ".tick", job_id, attempt).randint(
                    1, self._MAX_TICK
                )
                return (name, tick)
        return None

    def corrupts(self, job_id: int, attempt: int) -> bool:
        """Should this job's shipped crash bundle be damaged in transit?"""
        return self._draw("corrupt", job_id, attempt)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-event {seen, fired} counts (for the fleet report)."""
        return {
            name: {"seen": r.seen, "fired": r.fired}
            for name, r in sorted(self.rules.items())
        }
