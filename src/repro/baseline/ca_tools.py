"""Tools for the C&A baseline framework.

The lightweight ones are tiny — that is the paper's point (Section 5.1:
"a tool that traces memory accesses would be about 30 lines of code in
Pin").  The heavyweight one (:class:`CATaint`) shows the other side: with
copy-and-annotate the tool must re-implement instruction semantics in its
callbacks, mnemonic by mnemonic, and — like the real TaintTrace and LIFT —
it does not handle FP or SIMD code at all.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..guest.isa import Reg
from ..tools.memcheck.shadow import ShadowMemory
from .framework import CATool, InsInfo, TraceControl


class CANull(CATool):
    """No instrumentation: the framework's base overhead."""

    name = "ca-null"


class CABBCount(CATool):
    """Basic-block counter (the lightweight tool of the Pin comparison)."""

    name = "ca-bbcount"

    def __init__(self) -> None:
        self.count = 0

    def instrument_trace(self, inss, ctl) -> None:
        def bump(cpu) -> None:
            self.count += 1

        ctl.insert_at_entry(bump)


class CAICount(CATool):
    """Instruction counter: one callback per instruction."""

    name = "ca-icount"

    def __init__(self) -> None:
        self.count = 0

    def instrument_trace(self, inss, ctl) -> None:
        def bump(cpu) -> None:
            self.count += 1

        for i in range(len(inss)):
            ctl.insert_before(i, bump)


class CATracer(CATool):
    """Memory-access tracer — the paper's "about 30 lines" Pin tool."""

    name = "ca-tracer"
    MAX_EVENTS = 1_000_000

    def __init__(self) -> None:
        self.events: List[Tuple[str, int, int]] = []

    def instrument_trace(self, inss, ctl) -> None:
        for i, ins in enumerate(inss):
            addr, size = ins.addr, ins.size
            refs = ins.mem_refs
            ev = self.events

            def trace(cpu, addr=addr, size=size, refs=refs) -> None:
                if len(ev) >= self.MAX_EVENTS:
                    return
                ev.append(("I", addr, size))
                for ref in refs:
                    ev.append(("S" if ref.is_write else "L",
                               ref.ea(cpu.regs), ref.size))

            ctl.insert_before(i, trace)


class CATaint(CATool):
    """A shadow-value (taint) tool on copy-and-annotate — the hard way.

    Everything the D&R instrumenter gets for free has to be hand-built
    here: shadow registers are a plain array the tool multiplexes itself,
    every mnemonic needs an explicit per-callback transfer function, and
    effective addresses are recomputed in the callback (the annotation
    only tells us *how* to compute them).  Faithfully to its real-world
    counterparts (TaintTrace, LIFT), it handles neither FP nor SIMD
    instructions — their results simply become untainted, and we count
    how often that (unsoundly) happens.
    """

    name = "ca-taint"

    def __init__(self) -> None:
        self.shadow_mem = ShadowMemory(default="defined")
        self.shadow_regs = [0] * 8  # taint mask per GPR
        self.tainted_jumps = 0
        self.unhandled_fp_simd = 0
        self.bytes_tainted = 0

    # -- taint sources -----------------------------------------------------------

    def taint_range(self, addr: int, size: int) -> None:
        self.shadow_mem.make_undefined(addr, size)
        self.bytes_tainted += size

    # -- per-mnemonic transfer callbacks ----------------------------------------------

    def instrument_trace(self, inss: Sequence[InsInfo], ctl: TraceControl) -> None:
        for i, ins in enumerate(inss):
            cb = self._transfer_for(ins)
            if cb is not None:
                ctl.insert_before(i, cb)

    def _transfer_for(self, ins: InsInfo):
        m = ins.mnemonic
        ops = ins.insn.operands
        sregs = self.shadow_regs
        smem = self.shadow_mem

        if ins.is_fp_or_simd:
            # TaintTrace/LIFT-style: FP/SIMD instructions are simply not
            # modelled; any integer destination is assumed clean.  This is
            # where the C&A tool (unsoundly) loses taint that the D&R tool
            # tracks (Section 5.4's robustness comparison).
            writes = ins.regs_written

            def unhandled(cpu) -> None:
                self.unhandled_fp_simd += 1
                for r in writes:
                    sregs[r] = 0

            return unhandled

        if m in ("ld", "ldb", "ldbs", "ldw", "ldws"):
            rd = ops[0].index
            ea = ins.mem_refs[0].ea
            size = ins.mem_refs[0].size

            def load(cpu) -> None:
                sregs[rd] = smem.load_vbits(ea(cpu.regs), size)

            return load
        if m in ("st", "stb", "stw"):
            rs = ops[1].index
            ea = ins.mem_refs[0].ea
            size = ins.mem_refs[0].size

            def store(cpu) -> None:
                smem.store_vbits(ea(cpu.regs), size, sregs[rs])

            return store
        if m == "sti":
            ea = ins.mem_refs[0].ea

            def store_imm(cpu) -> None:
                smem.store_vbits(ea(cpu.regs), 4, 0)

            return store_imm
        if m in ("mov",):
            rd, rs = ops[0].index, ops[1].index

            def mov(cpu) -> None:
                sregs[rd] = sregs[rs]

            return mov
        if m in ("movi", "lea", "setcc", "machid", "cycles"):
            writes = ins.regs_written

            def clear(cpu) -> None:
                for r in writes:
                    sregs[r] = 0

            return clear
        if m in ("add", "sub", "and", "or", "xor", "mul", "divu", "divs",
                 "modu", "mods", "mulhu", "mulhs", "shl", "shr", "sar",
                 "xchg"):
            rd, rs = ops[0].index, ops[1].index

            def alu_rr(cpu) -> None:
                t = sregs[rd] | sregs[rs]
                sregs[rd] = 0xFFFFFFFF if t else 0

            return alu_rr
        if m in ("addi", "subi", "andi", "ori", "xori", "muli", "shli",
                 "shri", "sari", "roli", "rori", "inc", "dec", "neg", "not",
                 "sxb", "sxw"):
            rd = ops[0].index

            def alu_ri(cpu) -> None:
                sregs[rd] = 0xFFFFFFFF if sregs[rd] else 0

            return alu_ri
        if m.endswith("m_"):  # ALU reg, [mem]
            rd = ops[0].index
            ea = ins.mem_refs[0].ea

            def alu_rm(cpu) -> None:
                t = sregs[rd] | smem.load_vbits(ea(cpu.regs), 4)
                sregs[rd] = 0xFFFFFFFF if t else 0

            return alu_rm
        if m in ("addm", "subm"):
            rs = ops[1].index
            ea = ins.mem_refs[0].ea

            def alu_mr(cpu) -> None:
                a = ea(cpu.regs)
                t = sregs[rs] | smem.load_vbits(a, 4)
                smem.store_vbits(a, 4, 0xFFFFFFFF if t else 0)

            return alu_mr
        if m in ("push", "call"):
            src = ops[0].index if m == "push" and isinstance(ops[0], Reg) else None

            def push(cpu) -> None:
                sp = (cpu.regs[4] - 4) & 0xFFFFFFFF
                smem.store_vbits(sp, 4, sregs[src] if src is not None else 0)

            return push
        if m == "pushi":
            def pushi(cpu) -> None:
                sp = (cpu.regs[4] - 4) & 0xFFFFFFFF
                smem.store_vbits(sp, 4, 0)

            return pushi
        if m == "pop":
            rd = ops[0].index

            def pop(cpu) -> None:
                sregs[rd] = smem.load_vbits(cpu.regs[4], 4)

            return pop
        if m in ("jmpr", "callr"):
            rs = ops[0].index

            def check_target(cpu) -> None:
                if sregs[rs]:
                    self.tainted_jumps += 1

            return check_target
        if m == "ret":
            def check_ret(cpu) -> None:
                if smem.load_vbits(cpu.regs[4], 4):
                    self.tainted_jumps += 1

            return check_ret
        # cmp/test/jcc/nop/syscall/...: no taint transfer.
        return None

    def fini(self, runner) -> None:
        pass
