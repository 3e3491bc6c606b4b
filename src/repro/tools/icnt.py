"""Instruction-counting tools (Section 5.4's ICntI and ICntC).

Both count every guest instruction executed.  ``ICntI`` increments a
counter with *inline* IR; ``ICntC`` calls a C-function helper per
instruction.  The gap between them is the paper's measurement of the
advantage of inline analysis code over helper calls (geomeans 8.8x vs
13.5x) — an advantage only a D&R framework gives tools for free.

The counter lives in guest memory allocated from the *core's* arena (so
it never collides with client data), and is a 64-bit value updated with
ordinary IR loads/stores: analysis code is as expressive as client code.
"""

from __future__ import annotations

from ..core.tool import Tool
from ..ir.block import IRSB
from ..ir.expr import Binop, Load, RdTmp, c32, c64
from ..ir.stmt import Dirty, IMark, Store, WrTmp
from ..ir.types import Ty


class ICntI(Tool):
    """Instruction counter using inline analysis code."""

    name = "icnt-inline"
    description = "per-instruction counter, inline IR increments"

    def __init__(self) -> None:
        super().__init__()
        self.counter_addr = 0

    def pre_clo_init(self, core) -> None:
        super().pre_clo_init(core)
        self.counter_addr = core.allocator.alloc(8)

    @property
    def count(self) -> int:
        return int.from_bytes(self.core.memory.read_raw(self.counter_addr, 8),
                              "little")

    def instrument(self, sb: IRSB) -> IRSB:
        out = sb.copy()
        stmts = []
        addr = c32(self.counter_addr)
        for s in out.stmts:
            stmts.append(s)
            if isinstance(s, IMark):
                # counter += 1, entirely inline.
                t_old = out.new_tmp(Ty.I64)
                t_new = out.new_tmp(Ty.I64)
                stmts.append(WrTmp(t_old, Load(Ty.I64, addr)))
                stmts.append(WrTmp(t_new, Binop("Add64", RdTmp(t_old), c64(1))))
                stmts.append(Store(addr, RdTmp(t_new)))
        out.stmts = stmts
        return out

    def fini(self, exit_code: int) -> None:
        self.core.log(f"icnt-inline: executed {self.count} instructions")


class ICntC(Tool):
    """Instruction counter using a helper-call per instruction."""

    name = "icnt-call"
    description = "per-instruction counter, helper call increments"

    HELPER = "icnt_increment"

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def pre_clo_init(self, core) -> None:
        super().pre_clo_init(core)
        core.helpers.register_dirty(self.HELPER, self._increment)

    def _increment(self, env) -> int:
        self.count += 1
        return 0

    def instrument(self, sb: IRSB) -> IRSB:
        out = sb.copy()
        stmts = []
        for s in out.stmts:
            stmts.append(s)
            if isinstance(s, IMark):
                stmts.append(Dirty(self.HELPER, ()))
        out.stmts = stmts
        return out

    def fini(self, exit_code: int) -> None:
        self.core.log(f"icnt-call: executed {self.count} instructions")
