"""Cachegrind: a cache profiler (2,431 lines of C in Valgrind 3.2.1).

Simulates an I1/D1/L2 hierarchy and attributes hits/misses to guest code
locations.  Instrumentation: one helper call per instruction (I-fetch,
using the IMark's address and length — the reason IMarks exist) and one
per data access.  Per-function counts are aggregated through the core's
debug information at exit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.tool import Tool
from ..ir.block import IRSB
from ..ir.expr import Load, c32
from ..ir.stmt import Dirty, IMark, Store, WrTmp
from .cachesim import (
    AccessCounts,
    CacheConfig,
    CacheHierarchy,
    DEFAULT_D1,
    DEFAULT_I1,
    DEFAULT_L2,
    HEADER,
)


class Cachegrind(Tool):
    """Cache profiler tool plug-in."""

    name = "cachegrind"
    description = "I1/D1/L2 cache profiler"

    H_INSN = "cg_insn_fetch"
    H_READ = "cg_data_read"
    H_WRITE = "cg_data_write"

    def __init__(
        self,
        i1: CacheConfig = DEFAULT_I1,
        d1: CacheConfig = DEFAULT_D1,
        l2: CacheConfig = DEFAULT_L2,
    ):
        super().__init__()
        self.hierarchy = CacheHierarchy(i1, d1, l2)
        #: per-instruction-address counters.
        self.by_addr: Dict[int, AccessCounts] = {}
        self.totals = AccessCounts()
        #: Address of the instruction currently executing (set by the
        #: I-fetch helper, used to attribute the data accesses that follow).
        self._cur = 0

    # -- helpers -----------------------------------------------------------------

    def _counts_for(self, addr: int) -> AccessCounts:
        c = self.by_addr.get(addr)
        if c is None:
            c = AccessCounts()
            self.by_addr[addr] = c
        return c

    def _insn_fetch(self, env, addr: int, size: int) -> int:
        self._cur = addr
        self.hierarchy.insn_fetch(addr, size, self._counts_for(addr))
        return 0

    def _data_read(self, env, addr: int, size: int) -> int:
        self.hierarchy.data_read(addr, size, self._counts_for(self._cur))
        return 0

    def _data_write(self, env, addr: int, size: int) -> int:
        self.hierarchy.data_write(addr, size, self._counts_for(self._cur))
        return 0

    def pre_clo_init(self, core) -> None:
        super().pre_clo_init(core)
        core.helpers.register_dirty(self.H_INSN, self._insn_fetch)
        core.helpers.register_dirty(self.H_READ, self._data_read)
        core.helpers.register_dirty(self.H_WRITE, self._data_write)

    # -- instrumentation --------------------------------------------------------------

    def instrument(self, sb: IRSB) -> IRSB:
        out = sb.copy()
        stmts = []
        for s in out.stmts:
            if isinstance(s, IMark):
                stmts.append(s)
                stmts.append(
                    Dirty(self.H_INSN, (c32(s.addr), c32(s.length)))
                )
                continue
            if isinstance(s, WrTmp) and isinstance(s.data, Load):
                size = s.data.ty.size
                stmts.append(Dirty(self.H_READ, (s.data.addr, c32(size))))
                stmts.append(s)
                continue
            if isinstance(s, Store):
                size = out.type_of(s.data).size
                stmts.append(Dirty(self.H_WRITE, (s.addr, c32(size))))
                stmts.append(s)
                continue
            stmts.append(s)
        out.stmts = stmts
        return out

    # -- reporting --------------------------------------------------------------------

    def per_function(self) -> List[Tuple[str, AccessCounts]]:
        """Aggregate the per-address counters by symbol (debug info)."""
        agg: Dict[str, AccessCounts] = {}
        program = self.core.program
        for addr, counts in self.by_addr.items():
            name = "???"
            if program is not None:
                hit = program.symbol_at(addr)
                if hit is not None:
                    name = hit[0]
            bucket = agg.setdefault(name, AccessCounts())
            bucket.add(counts)
        return sorted(agg.items(), key=lambda kv: -kv[1].Ir)

    def annotate_lines(self, top: int = 15) -> List[Tuple[str, AccessCounts]]:
        """Aggregate the counters by source line (the ``cg_annotate`` view),
        using the debug information the loader read."""
        agg: Dict[str, AccessCounts] = {}
        program = self.core.program
        for addr, counts in self.by_addr.items():
            where = "???"
            if program is not None:
                li = program.line_at(addr)
                if li is not None:
                    where = f"{li.filename}:{li.line}"
            agg.setdefault(where, AccessCounts()).add(counts)
        ordered = sorted(agg.items(), key=lambda kv: -kv[1].Ir)
        return ordered[:top]

    def summary_lines(self) -> List[str]:
        t = AccessCounts()
        for c in self.by_addr.values():
            t.add(c)
        self.totals = t

        def rate(m, a):
            return f"{100.0 * m / a:.2f}%" if a else "-"

        lines = [
            f"I   refs:      {t.Ir}",
            f"I1  misses:    {t.I1mr}  ({rate(t.I1mr, t.Ir)})",
            f"LLi misses:    {t.ILmr}  ({rate(t.ILmr, t.Ir)})",
            f"D   refs:      {t.Dr + t.Dw}  ({t.Dr} rd + {t.Dw} wr)",
            f"D1  misses:    {t.D1mr + t.D1mw}  "
            f"({rate(t.D1mr + t.D1mw, t.Dr + t.Dw)})",
            f"LLd misses:    {t.DLmr + t.DLmw}  "
            f"({rate(t.DLmr + t.DLmw, t.Dr + t.Dw)})",
        ]
        return lines

    def fini(self, exit_code: int) -> None:
        for line in self.summary_lines():
            self.core.log(f"cachegrind: {line}")
        self.core.log("cachegrind: top functions by Ir:")
        header = "  ".join(f"{h:>8}" for h in HEADER)
        self.core.log(f"cachegrind:   {header}  function")
        for name, counts in self.per_function()[:10]:
            row = "  ".join(f"{v:>8}" for v in counts.row())
            self.core.log(f"cachegrind:   {row}  {name}")
