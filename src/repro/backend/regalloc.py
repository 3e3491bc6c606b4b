"""Phase 7: linear-scan register allocation.

Replaces virtual registers with host registers, inserting spills as
necessary (Traub/Holloway/Smith-style linear scan [26]).  The allocator is
platform-independent: it discovers which registers each instruction reads
and writes through the ``regs_read``/``regs_written`` callbacks on the
instructions, exactly as the paper describes.

Move coalescing: when an interval dies at a register-to-register move that
defines another interval, the new interval is given the dying interval's
register when possible; identity moves are then deleted.  Figure 3 of the
paper shows the effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..guest.regs import NUM_SPILL_SLOTS
from ..ir.types import Ty
from .hostisa import (
    ALLOCATABLE,
    CALL,
    CSEL,
    BIN,
    HInsn,
    ImmArg,
    LDG,
    LDM,
    LI,
    LIF,
    MOVR,
    RC,
    RELOAD,
    RET,
    Reg,
    SCRATCH,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    SPILL,
    STG,
    STM,
    Slot,
    UN,
)


class RegAllocError(Exception):
    pass


@dataclass
class Interval:
    vreg: Reg
    start: int
    end: int
    reg: Optional[int] = None  # assigned real register number
    slot: Optional[int] = None  # assigned spill slot
    ty: Ty = Ty.I64  # storage type for spill code
    #: Constant value to rematerialise instead of reloading, when the
    #: interval's definition is an immediate load (cheaper than memory).
    remat: Optional[object] = None


@dataclass
class AllocStats:
    """Figures the benches report: moves removed, spills inserted."""

    moves_before: int = 0
    moves_removed: int = 0
    spilled_vregs: int = 0
    spill_code: int = 0


def _vreg_ty(r: Reg) -> Ty:
    return {RC.INT: Ty.I64, RC.FLT: Ty.F64, RC.VEC: Ty.V128}[r.rc]


def _build_intervals(insns: Sequence[HInsn]) -> Dict[Tuple[RC, int], Interval]:
    intervals: Dict[Tuple[RC, int], Interval] = {}
    for i, insn in enumerate(insns):
        for r in insn.regs_written():
            if not r.virtual:
                continue
            key = (r.rc, r.n)
            iv = intervals.get(key)
            if iv is None:
                intervals[key] = Interval(r, i, i, ty=_vreg_ty(r))
            else:
                iv.end = max(iv.end, i)
        for r in insn.regs_read():
            if not r.virtual:
                continue
            key = (r.rc, r.n)
            iv = intervals.get(key)
            if iv is None:
                # Read of a never-written vreg: treat as live from 0 (it
                # holds an undefined value; give it storage anyway).
                intervals[key] = Interval(r, 0, i, ty=_vreg_ty(r))
            else:
                iv.end = max(iv.end, i)
    return intervals


def allocate(insns: Sequence[HInsn]) -> Tuple[List[HInsn], AllocStats]:
    """Run linear-scan allocation and return (rewritten insns, stats)."""
    stats = AllocStats()
    intervals = _build_intervals(insns)
    if not intervals:
        return list(insns), stats

    # All host registers are caller-saved: any value live *across* a helper
    # call must live in memory instead — the classic reason helper calls
    # are expensive for JITed analysis code.
    import bisect

    call_positions = [i for i, insn in enumerate(insns) if isinstance(insn, CALL)]

    def crosses_call(iv: Interval) -> bool:
        j = bisect.bisect_right(call_positions, iv.start)
        return j < len(call_positions) and call_positions[j] < iv.end

    # Mark constant-defined intervals as rematerialisable: spilling them
    # needs no slot, and "reloads" become immediate loads.
    for i, insn in enumerate(insns):
        if isinstance(insn, (LI, LIF)) and insn.dst.virtual:
            iv = intervals[(insn.dst.rc, insn.dst.n)]
            if iv.start == i:
                iv.remat = insn.imm

    # Coalescing hints: vreg defined by "MOVR dst, src" gets src as a hint.
    hints: Dict[Tuple[RC, int], Tuple[RC, int]] = {}
    for insn in insns:
        if isinstance(insn, MOVR) and insn.dst.virtual and insn.src.virtual:
            stats.moves_before += 1
            hints[(insn.dst.rc, insn.dst.n)] = (insn.src.rc, insn.src.n)

    by_start = sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))
    active: Dict[RC, List[Interval]] = {rc: [] for rc in RC}
    free: Dict[RC, List[int]] = {
        rc: list(range(ALLOCATABLE[rc])) for rc in RC
    }
    next_slot = 0

    def expire(rc: RC, now: int) -> None:
        still = []
        for iv in active[rc]:
            if iv.end < now:
                free[rc].append(iv.reg)
            else:
                still.append(iv)
        active[rc] = still

    def spill_interval(iv: Interval) -> None:
        nonlocal next_slot
        if iv.remat is None:
            iv.slot = next_slot
            next_slot += 1
        else:
            iv.slot = -1  # spilled, but rematerialised rather than stored
        stats.spilled_vregs += 1

    for iv in by_start:
        rc = iv.vreg.rc
        expire(rc, iv.start)
        if crosses_call(iv):
            spill_interval(iv)
            continue
        # Coalescing: if this interval is defined by a move whose source
        # dies at the move, inherit the source's register (this is what
        # deletes the moves in Figure 3).
        hint = hints.get((rc, iv.vreg.n))
        reg = None
        if hint is not None:
            src_iv = intervals.get(hint)
            if src_iv is not None and src_iv.reg is not None:
                if src_iv in active[rc] and src_iv.end <= iv.start:
                    # Transfer ownership directly: the source's last use is
                    # the move itself.
                    active[rc].remove(src_iv)
                    reg = src_iv.reg
                elif src_iv.reg in free[rc]:
                    free[rc].remove(src_iv.reg)
                    reg = src_iv.reg
        if reg is not None:
            iv.reg = reg
            active[rc].append(iv)
        elif free[rc]:
            reg = min(free[rc])
            free[rc].remove(reg)
            iv.reg = reg
            active[rc].append(iv)
        else:
            # Spill whichever conflicting interval ends last.
            victim = max(active[rc], key=lambda a: a.end)
            if victim.end > iv.end:
                iv.reg = victim.reg
                victim.reg = None
                active[rc].remove(victim)
                active[rc].append(iv)
                spill_interval(victim)
            else:
                spill_interval(iv)
    if next_slot > NUM_SPILL_SLOTS:
        raise RegAllocError(f"out of spill slots ({next_slot} needed)")

    # -- rewrite pass ---------------------------------------------------------

    out: List[HInsn] = []

    def rewrite(insn: HInsn) -> None:
        """Replace vregs with real regs, adding spill code around *insn*."""
        scratch_idx = {rc: 0 for rc in RC}
        pre: List[HInsn] = []
        post: List[HInsn] = []
        mapping: Dict[Tuple[RC, int], Reg] = {}

        def map_use(r: Reg) -> Reg:
            if not r.virtual:
                return r
            key = (r.rc, r.n)
            if key in mapping:
                return mapping[key]
            iv = intervals[key]
            if iv.slot is None:
                m = Reg(r.rc, iv.reg)
            else:
                s = SCRATCH[r.rc][scratch_idx[r.rc]]
                scratch_idx[r.rc] += 1
                m = Reg(r.rc, s)
                if iv.remat is not None:
                    remat = LIF(m, iv.remat) if r.rc == RC.FLT else LI(m, iv.remat)
                    pre.append(remat)
                else:
                    pre.append(RELOAD(m, iv.slot, iv.ty))
                stats.spill_code += 1
            mapping[key] = m
            return m

        def map_def(r: Reg) -> Reg:
            if not r.virtual:
                return r
            key = (r.rc, r.n)
            iv = intervals[key]
            if iv.slot is None:
                return Reg(r.rc, iv.reg)
            # Reuse a scratch for the def, then spill it.
            if key in mapping:
                m = mapping[key]
            else:
                idx = scratch_idx[r.rc]
                if idx >= len(SCRATCH[r.rc]):
                    # All scratches hold sources; the destination may alias
                    # one, since each host instruction reads all its sources
                    # before writing its destination.
                    idx = 0
                else:
                    scratch_idx[r.rc] += 1
                s = SCRATCH[r.rc][idx]
                m = Reg(r.rc, s)
            if iv.remat is None:
                post.append(SPILL(iv.slot, m, iv.ty))
                stats.spill_code += 1
            return m

        def map_arg(a):
            if isinstance(a, Reg) and a.virtual:
                iv = intervals[(a.rc, a.n)]
                if iv.slot is not None:
                    if iv.remat is not None:
                        # Constants are passed as immediates.
                        return ImmArg(iv.remat, iv.ty)
                    # Spilled call arguments are passed as slots directly.
                    return Slot(iv.slot, iv.ty)
                return Reg(a.rc, iv.reg)
            return a

        if isinstance(insn, LI):
            new: HInsn = LI(map_def(insn.dst), insn.imm)
        elif isinstance(insn, LIF):
            new = LIF(map_def(insn.dst), insn.imm)
        elif isinstance(insn, MOVR):
            src = map_use(insn.src)
            dst = map_def(insn.dst)  # uses first: defs may fall back to
            # a scratch that aliases a consumed source
            if src == dst and not pre and not post:
                stats.moves_removed += 1
                return
            new = MOVR(dst, src)
        elif isinstance(insn, BIN):
            s1 = map_use(insn.src1)
            s2 = map_use(insn.src2)
            new = BIN(insn.op, map_def(insn.dst), s1, s2)
        elif isinstance(insn, UN):
            src = map_use(insn.src)
            new = UN(insn.op, map_def(insn.dst), src)
        elif isinstance(insn, LDG):
            new = LDG(insn.ty, map_def(insn.dst), insn.off)
        elif isinstance(insn, STG):
            new = STG(insn.ty, insn.off, map_use(insn.src))
        elif isinstance(insn, LDM):
            addr = map_use(insn.addr)
            new = LDM(insn.ty, map_def(insn.dst), addr)
        elif isinstance(insn, STM):
            new = STM(insn.ty, map_use(insn.addr), map_use(insn.src))
        elif isinstance(insn, CSEL):
            cond = map_use(insn.cond)
            a = map_use(insn.a)
            b = map_use(insn.b)
            new = CSEL(map_def(insn.dst), cond, a, b)
        elif isinstance(insn, CALL):
            args = tuple(map_arg(a) for a in insn.args)
            guard = map_use(insn.guard) if insn.guard is not None else None
            dst = map_def(insn.dst) if insn.dst is not None else None
            new = CALL(insn.helper, args, dst=dst, retty=insn.retty,
                       dirty=insn.dirty, guard=guard)
        elif isinstance(insn, SIDEEXIT):
            new = SIDEEXIT(map_use(insn.cond), insn.dst, insn.jk, insn.icnt)
        elif isinstance(insn, SETPCR):
            new = SETPCR(map_use(insn.src))
        elif isinstance(insn, (SETPCI, RET)):
            new = insn
        else:
            raise RegAllocError(f"cannot rewrite {insn!r}")
        out.extend(pre)
        out.append(new)
        out.extend(post)

    for insn in insns:
        rewrite(insn)
    return out, stats
