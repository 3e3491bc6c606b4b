"""Translation storage (Section 3.8) and the chaining registry.

Translations are stored in the translation table.  The paper's is a
fixed-size, linear-probe hash table; here it is a dict bounded by the
same capacity, whose order is the eviction order.  If the table gets more
than 80% full, translations are evicted in chunks, 1/8th of the table at
a time, using a FIFO policy — chosen over LRU "because it is simpler and
it still does a fairly good job".  Translations are also evicted when
code is unloaded (munmap) or invalidated by self-modifying code.

Chaining records every translation-to-translation link in a
:class:`ChainRegistry`, so that when a translation dies — FIFO eviction,
munmap discard, or SMC invalidation — every link *into* it is severed
eagerly, and no stale ``chain_next``/``chain_call``/``chain_ret`` pointer
(nor the dead translation's compiled code) can ever be reached again.
The paper's own chaining removal (§3.9) cites exactly this invalidation
complexity as a reason chaining was dropped; the registry is what makes
re-adding it safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from .translate import Translation

#: Eviction threshold (fraction full).
FULL_FRACTION = 0.8
#: Fraction of entries discarded per eviction round.
EVICT_FRACTION = 1 / 8

#: The chainable successor slots on a Translation.
CHAIN_SLOTS = ("chain_next", "chain_call", "chain_ret")


@dataclass
class TransTabStats:
    inserts: int = 0
    evict_rounds: int = 0
    evicted: int = 0
    discarded: int = 0
    lookups: int = 0
    misses: int = 0


class ChainRegistry:
    """Tracks every chain link so dying translations sever them eagerly.

    The dispatcher's per-hop ``dead`` check is a backstop; the registry is
    the primary mechanism: ``sever(t)`` clears every predecessor slot that
    points at *t* (incoming links) and every slot *t* itself holds
    (outgoing links), so a dead translation is unreachable via chains the
    moment it leaves the table.
    """

    def __init__(self) -> None:
        #: id(successor) -> [(predecessor, slot name), ...]
        self._preds: Dict[int, List[Tuple[Translation, str]]] = {}
        self.links_made = 0
        self.links_severed = 0

    def __len__(self) -> int:
        return sum(len(v) for v in self._preds.values())

    def link(self, pred: Translation, slot: str, succ: Translation) -> None:
        """Record ``pred.<slot> = succ`` (unlinking any previous target)."""
        old = getattr(pred, slot)
        if old is succ:
            return
        if old is not None:
            self._drop(pred, slot, old)
        setattr(pred, slot, succ)
        self._preds.setdefault(id(succ), []).append((pred, slot))
        self.links_made += 1

    def _drop(self, pred: Translation, slot: str, succ: Translation) -> None:
        entries = self._preds.get(id(succ))
        if entries is not None:
            for j, (p, s) in enumerate(entries):
                if p is pred and s == slot:  # identity, not dataclass eq
                    del entries[j]
                    break
            if not entries:
                del self._preds[id(succ)]

    def sever(self, t: Translation) -> None:
        """Cut every link into and out of *t* (called when *t* dies)."""
        for pred, slot in self._preds.pop(id(t), ()):
            if getattr(pred, slot) is t:
                setattr(pred, slot, None)
                self.links_severed += 1
        for slot in CHAIN_SLOTS:
            succ = getattr(t, slot)
            if succ is not None:
                self._drop(t, slot, succ)
                setattr(t, slot, None)
                self.links_severed += 1


class TranslationTable:
    """The live translations, keyed by guest address, in one dict bounded
    by ``capacity`` and ordered oldest first, with chunk eviction.

    The dict's order is the eviction order: insertion order under FIFO
    (a replacing insert goes to the newest end), last-look-up order under
    the LRU ablation.
    """

    def __init__(self, entries: int = 32768, policy: str = "fifo"):
        if entries <= 0:
            raise ValueError("table must have at least one entry")
        if policy not in ("fifo", "lru"):
            raise ValueError(f"bad eviction policy {policy!r}")
        self.capacity = entries
        #: Eviction policy: the paper chose FIFO over "the more obvious
        #: LRU... because it is simpler and it still does a fairly good
        #: job"; "lru" exists for the ablation bench.
        self.policy = policy
        #: guest address -> Translation, oldest first.
        self._live: Dict[int, Translation] = {}
        self.stats = TransTabStats()
        #: Chain links into/out of stored translations; severed on death.
        self.chains = ChainRegistry()
        #: Record/replay: called with the number of entries killed at the
        #: end of every eviction round (capacity-pressure or forced).
        self.on_evict: Optional[Callable[[int], None]] = None
        #: Called with every translation as it dies (eviction, discard,
        #: insert-replace) — the trace tier severs superblocks containing
        #: the dead member (core.traces).
        self.on_kill: Optional[Callable[[Translation], None]] = None

    def chain(self, pred: Translation, slot: str, succ: Translation) -> None:
        """Link *pred*'s *slot* to *succ* through the chain registry."""
        self.chains.link(pred, slot, succ)

    def _kill(self, t: Translation) -> None:
        """Mark *t* dead and sever every chain link touching it."""
        t.dead = True
        self.chains.sever(t)
        if self.on_kill is not None:
            self.on_kill(t)

    def __len__(self) -> int:
        return len(self._live)

    @property
    def load(self) -> float:
        return len(self._live) / self.capacity

    def lookup(self, addr: int) -> Optional[Translation]:
        self.stats.lookups += 1
        t = self._live.get(addr)
        if t is None:
            self.stats.misses += 1
        elif self.policy == "lru":
            self._live[addr] = self._live.pop(addr)  # now the newest
        return t

    def peek(self, addr: int) -> Optional[Translation]:
        """The translation at *addr*, without counting a look-up or
        touching LRU order."""
        return self._live.get(addr)

    def insert(self, t: Translation, evict_ok: bool = True) -> None:
        if evict_ok and len(self._live) / self.capacity >= FULL_FRACTION:
            self._evict_chunk()
        old = self._live.pop(t.guest_addr, None)
        if old is not None:
            self._kill(old)  # replaced: no chain may reach it again
        self._live[t.guest_addr] = t
        self.stats.inserts += 1

    def evict_chunk(self) -> None:
        """Force one eviction round (fault injection / stress testing)."""
        if self._live:
            self._evict_chunk()

    def _evict_chunk(self) -> None:
        """Drop the oldest 1/8th of the table: the first entries in FIFO
        insertion order, or in LRU last-use order under the ablation."""
        self.stats.evict_rounds += 1
        n_goal = max(1, int(self.capacity * EVICT_FRACTION))
        victims = list(islice(self._live, n_goal))
        for addr in victims:
            self._kill(self._live.pop(addr))
        self.stats.evicted += len(victims)
        if self.on_evict is not None:
            self.on_evict(len(victims))

    def discard(self, addr: int) -> bool:
        """Remove the translation starting at *addr*, if present."""
        t = self._live.pop(addr, None)
        if t is None:
            return False
        self._kill(t)
        self.stats.discarded += 1
        return True

    def discard_range(self, addr: int, size: int) -> int:
        """Discard every translation covering [addr, addr+size) — used on
        munmap and for self-modifying code invalidation."""
        victims = [a for a, t in self._live.items() if t.covers(addr, size)]
        for a in victims:
            self._kill(self._live.pop(a))
        self.stats.discarded += len(victims)
        return len(victims)

    def all_translations(self) -> List[Translation]:
        """The live translations, oldest (next to be evicted) first."""
        return list(self._live.values())
