"""A cache hierarchy simulator (Cachegrind's substrate).

Models an I1/D1 split first level and a unified L2, each set-associative
with true-LRU replacement, write-allocate and (for miss accounting)
write-back semantics — the model Cachegrind uses.  Accesses that straddle
a line boundary touch both lines (counted as one access, miss if either
line misses, as Cachegrind does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Size/associativity/line-size of one cache level."""

    size: int
    assoc: int
    line_size: int

    def __post_init__(self) -> None:
        if self.size % (self.assoc * self.line_size):
            raise ValueError("size must be a multiple of assoc * line_size")
        for v in (self.size, self.assoc, self.line_size):
            if v <= 0 or (v & (v - 1)) and v != self.assoc:
                # sizes and line sizes must be powers of two; assoc need not.
                if v in (self.size, self.line_size):
                    raise ValueError(f"{v} must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    def describe(self) -> str:
        return f"{self.size} B, {self.assoc}-way, {self.line_size} B lines"


#: Defaults in the ballpark of the paper's test machine (Core 2: 32KB L1s,
#: 4MB L2) scaled down so our scaled workloads still exercise misses.
DEFAULT_I1 = CacheConfig(size=16384, assoc=2, line_size=32)
DEFAULT_D1 = CacheConfig(size=16384, assoc=2, line_size=32)
DEFAULT_L2 = CacheConfig(size=262144, assoc=8, line_size=32)


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self._line_shift = config.line_size.bit_length() - 1
        self.accesses = 0
        self.misses = 0

    def access_line(self, line_tag: int) -> bool:
        """Touch one line (already divided by line size); True on miss."""
        self.accesses += 1
        s = self._sets[line_tag % self.config.n_sets]
        try:
            s.remove(line_tag)
            s.append(line_tag)  # move to MRU
            return False
        except ValueError:
            pass
        self.misses += 1
        if len(s) >= self.config.assoc:
            s.pop(0)  # evict LRU
        s.append(line_tag)
        return True

    def lines_of(self, addr: int, size: int) -> range:
        first = addr >> self._line_shift
        last = (addr + max(size, 1) - 1) >> self._line_shift
        return range(first, last + 1)

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]


@dataclass
class AccessCounts:
    """Cachegrind's nine counters."""

    Ir: int = 0    # instructions read
    I1mr: int = 0  # I1 read misses
    ILmr: int = 0  # L2 instruction read misses
    Dr: int = 0    # data reads
    D1mr: int = 0
    DLmr: int = 0
    Dw: int = 0    # data writes
    D1mw: int = 0
    DLmw: int = 0

    def add(self, other: "AccessCounts") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def row(self) -> Tuple[int, ...]:
        return (self.Ir, self.I1mr, self.ILmr, self.Dr, self.D1mr, self.DLmr,
                self.Dw, self.D1mw, self.DLmw)


HEADER = ("Ir", "I1mr", "ILmr", "Dr", "D1mr", "DLmr", "Dw", "D1mw", "DLmw")


class CacheHierarchy:
    """I1 + D1 backed by a unified L2."""

    def __init__(
        self,
        i1: CacheConfig = DEFAULT_I1,
        d1: CacheConfig = DEFAULT_D1,
        l2: CacheConfig = DEFAULT_L2,
    ):
        if i1.line_size != l2.line_size or d1.line_size != l2.line_size:
            raise ValueError("line sizes must match across levels")
        self.i1 = Cache(i1, "I1")
        self.d1 = Cache(d1, "D1")
        self.l2 = Cache(l2, "L2")

    def insn_fetch(self, addr: int, size: int, counts: AccessCounts) -> None:
        counts.Ir += 1
        for line in self.i1.lines_of(addr, size):
            if self.i1.access_line(line):
                counts.I1mr += 1
                if self.l2.access_line(line):
                    counts.ILmr += 1

    def data_read(self, addr: int, size: int, counts: AccessCounts) -> None:
        counts.Dr += 1
        for line in self.d1.lines_of(addr, size):
            if self.d1.access_line(line):
                counts.D1mr += 1
                if self.l2.access_line(line):
                    counts.DLmr += 1

    def data_write(self, addr: int, size: int, counts: AccessCounts) -> None:
        counts.Dw += 1
        for line in self.d1.lines_of(addr, size):
            if self.d1.access_line(line):
                counts.D1mw += 1
                if self.l2.access_line(line):
                    counts.DLmw += 1
