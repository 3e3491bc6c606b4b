"""The vx32 reference CPU.

A direct interpreter for vx32 machine code.  It plays two roles:

* it is the **"native execution"** baseline for all performance
  experiments — slow-down factors in the Table 2 reproduction are measured
  against it, the way the paper measures against real hardware; and
* it is the **semantic oracle** for the translation pipeline — differential
  tests run the same program on this CPU and through the full
  disassemble→instrument→optimise→JIT→host-emulate path and require the
  architected state to match.

For speed, each decoded instruction is compiled once into a Python closure
and cached by address; the dispatch loop then just calls closures.  The
condition-code state is kept in the same lazy-thunk form the translated
code uses (CC_OP/CC_DEP1/CC_DEP2/CC_NDEP), so ThreadState comparisons in
differential tests can compare the thunk words directly.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from ..kernel.memory import GuestMemory
from .encoding import DecodeError, decode
from .isa import Imm, Insn, Mem, Reg
from .regs import (
    CC_OP_ADD,
    CC_OP_COPY,
    CC_OP_LOGIC,
    CC_OP_MUL,
    CC_OP_SHL,
    CC_OP_SHR,
    CC_OP_SUB,
    FLAG_C,
    FLAG_O,
    FLAG_Z,
    SP,
    calculate_flags,
    evaluate_cond,
)

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
M128 = (1 << 128) - 1

#: The values our `machid` (cpuid analogue) instruction reports.
MACHID_VALUES = (
    0x32335856,  # "VX32"
    0x00010002,  # version
    0x0000BEEF,
    0x00000000,
)


class TrapKind(enum.Enum):
    """Why the CPU stopped running."""

    HALT = "halt"
    SYSCALL = "syscall"
    LCALL = "lcall"
    CLREQ = "clreq"
    BUDGET = "budget"       # max_insns reached
    YIELD = "yield"


class CPUError(Exception):
    """An architectural error (bad instruction, division by zero)."""

    def __init__(self, message: str, pc: int):
        super().__init__(f"{message} at pc={pc:#x}")
        self.pc = pc


class RefCPU:
    """A directly-interpreting vx32 CPU over a :class:`GuestMemory`."""

    def __init__(self, memory: GuestMemory):
        self.mem = memory
        self.regs: List[int] = [0] * 8
        self.fregs: List[float] = [0.0] * 8
        self.vregs: List[int] = [0] * 8
        self.pc = 0
        self.cc_op = CC_OP_COPY
        self.cc_dep1 = 0
        self.cc_dep2 = 0
        self.cc_ndep = 0
        self.insn_count = 0
        #: Operand of the most recent lcall trap.
        self.trap_arg = 0
        # Decoded-and-compiled instruction cache: addr -> (fn, length).
        self._icache: Dict[int, tuple] = {}
        # Icache coherence: writes into pages holding cached instructions
        # flush those entries, as a hardware snooping icache would.
        memory.code_write_hooks.append(self._on_code_write)

    def _on_code_write(self, addr: int, size: int) -> None:
        start = (addr & ~0xFFF) - 16
        end = addr + size
        for a in [a for a in self._icache if start <= a < end]:
            del self._icache[a]

    # -- flags -----------------------------------------------------------------

    def flags(self) -> int:
        """Materialise the current C/Z/S/O flags word."""
        return calculate_flags(self.cc_op, self.cc_dep1, self.cc_dep2, self.cc_ndep)

    def cond(self, cc: int) -> int:
        return evaluate_cond(cc, self.flags())

    def set_flags_thunk(self, op: int, dep1: int, dep2: int, ndep: int = 0) -> None:
        self.cc_op = op
        self.cc_dep1 = dep1 & M32
        self.cc_dep2 = dep2 & M32
        self.cc_ndep = ndep & M32

    # -- cache management --------------------------------------------------------

    def flush_icache(self, addr: Optional[int] = None, size: Optional[int] = None) -> None:
        """Discard compiled instructions (all, or an address range)."""
        if addr is None:
            self._icache.clear()
            return
        end = addr + (size or 1)
        for a in [a for a in self._icache if addr - 16 < a < end]:
            del self._icache[a]

    # -- execution -----------------------------------------------------------------

    def run(self, max_insns: Optional[int] = None) -> TrapKind:
        """Run until a trap occurs or *max_insns* have executed."""
        icache = self._icache
        budget = max_insns if max_insns is not None else float("inf")
        executed = 0
        count = self.insn_count
        while executed < budget:
            entry = icache.get(self.pc)
            if entry is None:
                entry = self._compile(self.pc)
                icache[self.pc] = entry
            fn = entry[0]
            executed += 1
            count += 1
            self.insn_count = count  # kept exact so `cycles` can read it
            trap = fn(self)
            if trap is not None:
                return trap
        return TrapKind.BUDGET

    def step(self) -> Optional[TrapKind]:
        """Execute exactly one instruction."""
        entry = self._icache.get(self.pc)
        if entry is None:
            entry = self._compile(self.pc)
            self._icache[self.pc] = entry
        self.insn_count += 1
        return entry[0](self)

    # -- compilation of one instruction into a closure --------------------------------

    def _compile(self, addr: int) -> tuple:
        raw = self.mem.fetch(addr, 1)
        # Longest instruction is 11 bytes; fetch conservatively.
        chunk = raw + self._fetch_rest(addr + 1, 11)
        try:
            insn = decode(chunk, 0, addr)
        except DecodeError as exc:
            raise CPUError(f"cannot decode instruction ({exc})", addr) from exc
        fn = _FACTORIES[insn.mnemonic](insn, addr + insn.length)
        # Mark the covered pages so stores into them flush the icache.
        self.mem.code_pages.add(addr >> 12)
        self.mem.code_pages.add((addr + insn.length - 1) >> 12)
        return (fn, insn.length)

    def _fetch_rest(self, addr: int, n: int) -> bytes:
        out = bytearray()
        for i in range(n):
            try:
                out += self.mem.fetch(addr + i, 1)
            except Exception:
                break
        return bytes(out)


# ---------------------------------------------------------------------------
# Closure factories, one per mnemonic.  Each takes (insn, next_pc) and
# returns a function(cpu) -> Optional[TrapKind].
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[Insn, int], Callable]] = {}


def _factory(*names: str):
    def deco(fn):
        for name in names:
            _FACTORIES[name] = fn
        return fn

    return deco


def _ea(mem_op: Mem) -> Callable[[List[int]], int]:
    """Compile a memory operand into an effective-address closure."""
    b, x, s, d = mem_op.base, mem_op.index, mem_op.scale, mem_op.disp
    if b is not None and x is not None:
        return lambda r: (r[b] + r[x] * s + d) & M32
    if b is not None:
        return lambda r: (r[b] + d) & M32
    if x is not None:
        return lambda r: (r[x] * s + d) & M32
    return lambda r: d & M32


# -- misc -------------------------------------------------------------------


@_factory("nop")
def _nop(insn: Insn, nxt: int):
    def run(cpu):
        cpu.pc = nxt

    return run


@_factory("halt")
def _halt(insn: Insn, nxt: int):
    def run(cpu):
        cpu.pc = nxt
        return TrapKind.HALT

    return run


@_factory("syscall")
def _syscall(insn: Insn, nxt: int):
    def run(cpu):
        cpu.pc = nxt
        return TrapKind.SYSCALL

    return run


@_factory("lcall")
def _lcall(insn: Insn, nxt: int):
    idx = insn.operands[0].value

    def run(cpu):
        cpu.pc = nxt
        cpu.trap_arg = idx
        return TrapKind.LCALL

    return run


@_factory("clreq")
def _clreq(insn: Insn, nxt: int):
    def run(cpu):
        cpu.pc = nxt
        return TrapKind.CLREQ

    return run


@_factory("machid")
def _machid(insn: Insn, nxt: int):
    def run(cpu):
        cpu.regs[0], cpu.regs[1], cpu.regs[2], cpu.regs[3] = MACHID_VALUES
        cpu.pc = nxt

    return run


@_factory("cycles")
def _cycles(insn: Insn, nxt: int):
    def run(cpu):
        cpu.regs[0] = cpu.insn_count & M32
        cpu.pc = nxt

    return run


# -- data movement -------------------------------------------------------------


@_factory("mov")
def _mov(insn: Insn, nxt: int):
    rd, rs = insn.operands[0].index, insn.operands[1].index

    def run(cpu):
        cpu.regs[rd] = cpu.regs[rs]
        cpu.pc = nxt

    return run


@_factory("movi")
def _movi(insn: Insn, nxt: int):
    rd, imm = insn.operands[0].index, insn.operands[1].value & M32

    def run(cpu):
        cpu.regs[rd] = imm
        cpu.pc = nxt

    return run


@_factory("xchg")
def _xchg(insn: Insn, nxt: int):
    rd, rs = insn.operands[0].index, insn.operands[1].index

    def run(cpu):
        cpu.regs[rd], cpu.regs[rs] = cpu.regs[rs], cpu.regs[rd]
        cpu.pc = nxt

    return run


def _mk_load(size: int, signed: bool):
    def factory(insn: Insn, nxt: int):
        rd = insn.operands[0].index
        ea = _ea(insn.operands[1])

        def run(cpu):
            data = cpu.mem.read(ea(cpu.regs), size)
            v = int.from_bytes(data, "little")
            if signed and v & (1 << (size * 8 - 1)):
                v = (v - (1 << (size * 8))) & M32
            cpu.regs[rd] = v
            cpu.pc = nxt

        return run

    return factory


_FACTORIES["ld"] = _mk_load(4, False)
_FACTORIES["ldb"] = _mk_load(1, False)
_FACTORIES["ldbs"] = _mk_load(1, True)
_FACTORIES["ldw"] = _mk_load(2, False)
_FACTORIES["ldws"] = _mk_load(2, True)


def _mk_store(size: int):
    def factory(insn: Insn, nxt: int):
        ea = _ea(insn.operands[0])
        rs = insn.operands[1].index
        m = (1 << (size * 8)) - 1

        def run(cpu):
            cpu.mem.write(ea(cpu.regs), (cpu.regs[rs] & m).to_bytes(size, "little"))
            cpu.pc = nxt

        return run

    return factory


_FACTORIES["st"] = _mk_store(4)
_FACTORIES["stb"] = _mk_store(1)
_FACTORIES["stw"] = _mk_store(2)


@_factory("sti")
def _sti(insn: Insn, nxt: int):
    ea = _ea(insn.operands[0])
    data = (insn.operands[1].value & M32).to_bytes(4, "little")

    def run(cpu):
        cpu.mem.write(ea(cpu.regs), data)
        cpu.pc = nxt

    return run


@_factory("lea")
def _lea(insn: Insn, nxt: int):
    rd = insn.operands[0].index
    ea = _ea(insn.operands[1])

    def run(cpu):
        cpu.regs[rd] = ea(cpu.regs)
        cpu.pc = nxt

    return run


@_factory("sxb")
def _sxb(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        v = cpu.regs[rd] & 0xFF
        cpu.regs[rd] = (v - 0x100) & M32 if v & 0x80 else v
        cpu.pc = nxt

    return run


@_factory("sxw")
def _sxw(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        v = cpu.regs[rd] & 0xFFFF
        cpu.regs[rd] = (v - 0x10000) & M32 if v & 0x8000 else v
        cpu.pc = nxt

    return run


# -- flag-setting ALU ------------------------------------------------------------

# Each op: (cc_op kind, result fn).  Thunk conventions (shared with the
# disassembler in repro.frontend.disasm — keep in sync!):
#   add:  (ADD, a, b)        sub/cmp: (SUB, a, b)
#   logic/test: (LOGIC, result, 0)
#   mul:  (MUL, a, b)
#   shifts by n>0: (SHL/SHR, result, last bit shifted out); n==0 keeps flags
#   inc:  (ADD, old, 1)      dec: (SUB, old, 1)
#   neg:  (SUB, 0, old)


def _mk_alu_rr(kind: str):
    def factory(insn: Insn, nxt: int):
        rd, rs = insn.operands[0].index, insn.operands[1].index
        return _alu_run(kind, rd, lambda cpu: cpu.regs[rs], nxt)

    return factory


def _mk_alu_ri(kind: str):
    def factory(insn: Insn, nxt: int):
        rd, imm = insn.operands[0].index, insn.operands[1].value & M32
        return _alu_run(kind, rd, lambda cpu: imm, nxt)

    return factory


def _mk_alu_rm(kind: str):
    def factory(insn: Insn, nxt: int):
        rd = insn.operands[0].index
        ea = _ea(insn.operands[1])
        return _alu_run(
            kind, rd, lambda cpu: int.from_bytes(cpu.mem.read(ea(cpu.regs), 4), "little"), nxt
        )

    return factory


def _alu_run(kind: str, rd: int, src: Callable, nxt: int) -> Callable:
    if kind == "add":
        def run(cpu):
            a = cpu.regs[rd]
            b = src(cpu)
            cpu.regs[rd] = (a + b) & M32
            cpu.set_flags_thunk(CC_OP_ADD, a, b)
            cpu.pc = nxt
    elif kind == "sub":
        def run(cpu):
            a = cpu.regs[rd]
            b = src(cpu)
            cpu.regs[rd] = (a - b) & M32
            cpu.set_flags_thunk(CC_OP_SUB, a, b)
            cpu.pc = nxt
    elif kind == "cmp":
        def run(cpu):
            a = cpu.regs[rd]
            b = src(cpu)
            cpu.set_flags_thunk(CC_OP_SUB, a, b)
            cpu.pc = nxt
    elif kind in ("and", "or", "xor"):
        import operator

        opf = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}[kind]

        def run(cpu):
            res = opf(cpu.regs[rd], src(cpu)) & M32
            cpu.regs[rd] = res
            cpu.set_flags_thunk(CC_OP_LOGIC, res, 0)
            cpu.pc = nxt
    elif kind == "test":
        def run(cpu):
            res = (cpu.regs[rd] & src(cpu)) & M32
            cpu.set_flags_thunk(CC_OP_LOGIC, res, 0)
            cpu.pc = nxt
    elif kind == "mul":
        def run(cpu):
            a = cpu.regs[rd]
            b = src(cpu)
            cpu.regs[rd] = (a * b) & M32
            cpu.set_flags_thunk(CC_OP_MUL, a, b)
            cpu.pc = nxt
    else:  # pragma: no cover - exhaustive
        raise AssertionError(kind)
    return run


for _k in ("add", "sub", "and", "or", "xor", "cmp", "test", "mul"):
    _FACTORIES[_k] = _mk_alu_rr(_k)
    _FACTORIES[_k + "i"] = _mk_alu_ri(_k)
for _k in ("add", "sub", "and", "or", "xor", "cmp"):
    _FACTORIES[_k + "m_"] = _mk_alu_rm(_k)


@_factory("addm", "subm")
def _alu_mem_dest(insn: Insn, nxt: int):
    ea = _ea(insn.operands[0])
    rs = insn.operands[1].index
    is_add = insn.mnemonic == "addm"

    def run(cpu):
        addr = ea(cpu.regs)
        a = int.from_bytes(cpu.mem.read(addr, 4), "little")
        b = cpu.regs[rs]
        res = (a + b) & M32 if is_add else (a - b) & M32
        cpu.mem.write(addr, res.to_bytes(4, "little"))
        cpu.set_flags_thunk(CC_OP_ADD if is_add else CC_OP_SUB, a, b)
        cpu.pc = nxt

    return run


def _sdiv_trunc(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


@_factory("divu", "divs", "modu", "mods")
def _divmod(insn: Insn, nxt: int):
    rd, rs = insn.operands[0].index, insn.operands[1].index
    mnem = insn.mnemonic

    def run(cpu):
        a, b = cpu.regs[rd], cpu.regs[rs]
        if b == 0:
            raise ZeroDivisionError(f"guest division by zero at pc={cpu.pc:#x}")
        if mnem == "divu":
            r = a // b
        elif mnem == "modu":
            r = a % b
        else:
            sa = a - (1 << 32) if a & 0x80000000 else a
            sb = b - (1 << 32) if b & 0x80000000 else b
            q = _sdiv_trunc(sa, sb)
            r = q if mnem == "divs" else sa - q * sb
        cpu.regs[rd] = r & M32
        cpu.pc = nxt

    return run


@_factory("mulhu", "mulhs")
def _mulh(insn: Insn, nxt: int):
    rd, rs = insn.operands[0].index, insn.operands[1].index
    signed = insn.mnemonic == "mulhs"

    def run(cpu):
        a, b = cpu.regs[rd], cpu.regs[rs]
        if signed:
            if a & 0x80000000:
                a -= 1 << 32
            if b & 0x80000000:
                b -= 1 << 32
        cpu.regs[rd] = ((a * b) >> 32) & M32
        cpu.pc = nxt

    return run


# -- shifts and unary --------------------------------------------------------------


def _mk_shift(mnem: str, arith: bool, left: bool, rotate: bool = False):
    def factory(insn: Insn, nxt: int):
        rd = insn.operands[0].index
        op2 = insn.operands[1]
        imm = op2.value & 0xFF if isinstance(op2, Imm) else None
        rs = op2.index if isinstance(op2, Reg) else None

        def run(cpu):
            n = imm if imm is not None else (cpu.regs[rs] & 0xFF)
            a = cpu.regs[rd]
            if n == 0:
                cpu.pc = nxt
                return  # flags unchanged, value unchanged
            if rotate:
                k = n % 32
                res = ((a << k) | (a >> (32 - k))) & M32 if left else \
                      ((a >> k) | (a << (32 - k))) & M32
                cpu.regs[rd] = res
                cpu.set_flags_thunk(CC_OP_LOGIC, res, 0)
            elif left:
                res = (a << n) & M32 if n < 32 else 0
                last = (a >> (32 - n)) & 1 if n <= 32 else 0
                cpu.regs[rd] = res
                cpu.set_flags_thunk(CC_OP_SHL, res, last)
            else:
                if arith:
                    sa = a - (1 << 32) if a & 0x80000000 else a
                    res = (sa >> min(n, 31)) & M32
                else:
                    res = a >> n if n < 32 else 0
                last = (a >> (n - 1)) & 1 if n <= 32 else (
                    (a >> 31) & 1 if arith else 0
                )
                cpu.regs[rd] = res
                cpu.set_flags_thunk(CC_OP_SHR, res, last)
            cpu.pc = nxt

        return run

    return factory


_FACTORIES["shli"] = _mk_shift("shli", False, True)
_FACTORIES["shl"] = _mk_shift("shl", False, True)
_FACTORIES["shri"] = _mk_shift("shri", False, False)
_FACTORIES["shr"] = _mk_shift("shr", False, False)
_FACTORIES["sari"] = _mk_shift("sari", True, False)
_FACTORIES["sar"] = _mk_shift("sar", True, False)
_FACTORIES["roli"] = _mk_shift("roli", False, True, rotate=True)
_FACTORIES["rori"] = _mk_shift("rori", False, False, rotate=True)


@_factory("inc")
def _inc(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        a = cpu.regs[rd]
        cpu.regs[rd] = (a + 1) & M32
        cpu.set_flags_thunk(CC_OP_ADD, a, 1)
        cpu.pc = nxt

    return run


@_factory("dec")
def _dec(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        a = cpu.regs[rd]
        cpu.regs[rd] = (a - 1) & M32
        cpu.set_flags_thunk(CC_OP_SUB, a, 1)
        cpu.pc = nxt

    return run


@_factory("neg")
def _neg(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        a = cpu.regs[rd]
        cpu.regs[rd] = (-a) & M32
        cpu.set_flags_thunk(CC_OP_SUB, 0, a)
        cpu.pc = nxt

    return run


@_factory("not")
def _not(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        cpu.regs[rd] = (~cpu.regs[rd]) & M32
        cpu.pc = nxt

    return run


# -- stack and control flow ------------------------------------------------------------


@_factory("push")
def _push(insn: Insn, nxt: int):
    rs = insn.operands[0].index

    def run(cpu):
        sp = (cpu.regs[SP] - 4) & M32
        cpu.mem.write(sp, cpu.regs[rs].to_bytes(4, "little"))
        cpu.regs[SP] = sp
        cpu.pc = nxt

    return run


@_factory("pushi")
def _pushi(insn: Insn, nxt: int):
    data = (insn.operands[0].value & M32).to_bytes(4, "little")

    def run(cpu):
        sp = (cpu.regs[SP] - 4) & M32
        cpu.mem.write(sp, data)
        cpu.regs[SP] = sp
        cpu.pc = nxt

    return run


@_factory("pop")
def _pop(insn: Insn, nxt: int):
    rd = insn.operands[0].index

    def run(cpu):
        sp = cpu.regs[SP]
        cpu.regs[rd] = int.from_bytes(cpu.mem.read(sp, 4), "little")
        cpu.regs[SP] = (sp + 4) & M32
        cpu.pc = nxt

    return run


@_factory("call")
def _call(insn: Insn, nxt: int):
    target = insn.operands[0].value & M32
    ret = (nxt & M32).to_bytes(4, "little")

    def run(cpu):
        sp = (cpu.regs[SP] - 4) & M32
        cpu.mem.write(sp, ret)
        cpu.regs[SP] = sp
        cpu.pc = target

    return run


@_factory("callr")
def _callr(insn: Insn, nxt: int):
    rs = insn.operands[0].index
    ret = (nxt & M32).to_bytes(4, "little")

    def run(cpu):
        sp = (cpu.regs[SP] - 4) & M32
        cpu.mem.write(sp, ret)
        cpu.regs[SP] = sp
        cpu.pc = cpu.regs[rs]

    return run


@_factory("ret")
def _ret(insn: Insn, nxt: int):
    def run(cpu):
        sp = cpu.regs[SP]
        cpu.pc = int.from_bytes(cpu.mem.read(sp, 4), "little")
        cpu.regs[SP] = (sp + 4) & M32

    return run


@_factory("jmp")
def _jmp(insn: Insn, nxt: int):
    target = insn.operands[0].value & M32

    def run(cpu):
        cpu.pc = target

    return run


@_factory("jmpr")
def _jmpr(insn: Insn, nxt: int):
    rs = insn.operands[0].index

    def run(cpu):
        cpu.pc = cpu.regs[rs]

    return run


@_factory("jcc")
def _jcc(insn: Insn, nxt: int):
    cc = insn.operands[0].code
    target = insn.operands[1].value & M32

    def run(cpu):
        cpu.pc = target if cpu.cond(cc) else nxt

    return run


@_factory("setcc")
def _setcc(insn: Insn, nxt: int):
    rd = insn.operands[0].index
    cc = insn.operands[1].code

    def run(cpu):
        cpu.regs[rd] = cpu.cond(cc)
        cpu.pc = nxt

    return run


# -- floating point ------------------------------------------------------------------

import math
import struct


@_factory("fmov", "fneg", "fabs", "fsqrt")
def _funop(insn: Insn, nxt: int):
    fd, fs = insn.operands[0].index, insn.operands[1].index
    mnem = insn.mnemonic

    def run(cpu):
        v = cpu.fregs[fs]
        if mnem == "fneg":
            v = -v
        elif mnem == "fabs":
            v = abs(v)
        elif mnem == "fsqrt":
            v = math.sqrt(v) if v >= 0 else math.nan
        cpu.fregs[fd] = v
        cpu.pc = nxt

    return run


@_factory("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax")
def _fbinop(insn: Insn, nxt: int):
    fd, fs = insn.operands[0].index, insn.operands[1].index
    mnem = insn.mnemonic

    def run(cpu):
        a, b = cpu.fregs[fd], cpu.fregs[fs]
        if mnem == "fadd":
            v = a + b
        elif mnem == "fsub":
            v = a - b
        elif mnem == "fmul":
            v = a * b
        elif mnem == "fmin":
            v = min(a, b)
        elif mnem == "fmax":
            v = max(a, b)
        else:  # fdiv
            if b == 0.0:
                if a == 0.0 or math.isnan(a):
                    v = math.nan
                else:
                    same = (a > 0) == (math.copysign(1.0, b) > 0)
                    v = math.inf if same else -math.inf
            else:
                v = a / b
        cpu.fregs[fd] = v
        cpu.pc = nxt

    return run


@_factory("fcmp")
def _fcmp(insn: Insn, nxt: int):
    fd, fs = insn.operands[0].index, insn.operands[1].index

    def run(cpu):
        a, b = cpu.fregs[fd], cpu.fregs[fs]
        if math.isnan(a) or math.isnan(b):
            fl = FLAG_C | FLAG_Z | FLAG_O
        elif a < b:
            fl = FLAG_C
        elif a == b:
            fl = FLAG_Z
        else:
            fl = 0
        cpu.set_flags_thunk(CC_OP_COPY, fl, 0)
        cpu.pc = nxt

    return run


@_factory("fld")
def _fld(insn: Insn, nxt: int):
    fd = insn.operands[0].index
    ea = _ea(insn.operands[1])

    def run(cpu):
        cpu.fregs[fd] = struct.unpack("<d", cpu.mem.read(ea(cpu.regs), 8))[0]
        cpu.pc = nxt

    return run


@_factory("fst")
def _fst(insn: Insn, nxt: int):
    ea = _ea(insn.operands[0])
    fs = insn.operands[1].index

    def run(cpu):
        cpu.mem.write(ea(cpu.regs), struct.pack("<d", cpu.fregs[fs]))
        cpu.pc = nxt

    return run


@_factory("flds")
def _flds(insn: Insn, nxt: int):
    fd = insn.operands[0].index
    ea = _ea(insn.operands[1])

    def run(cpu):
        cpu.fregs[fd] = struct.unpack("<f", cpu.mem.read(ea(cpu.regs), 4))[0]
        cpu.pc = nxt

    return run


@_factory("fsts")
def _fsts(insn: Insn, nxt: int):
    ea = _ea(insn.operands[0])
    fs = insn.operands[1].index

    def run(cpu):
        v = cpu.fregs[fs]
        try:
            data = struct.pack("<f", v)
        except OverflowError:
            data = struct.pack("<f", math.inf if v > 0 else -math.inf)
        cpu.mem.write(ea(cpu.regs), data)
        cpu.pc = nxt

    return run


@_factory("fcvti")
def _fcvti(insn: Insn, nxt: int):
    rd = insn.operands[0].index
    fs = insn.operands[1].index

    def run(cpu):
        v = cpu.fregs[fs]
        if math.isnan(v):
            r = 0x80000000
        elif math.isinf(v):
            r = 0x7FFFFFFF if v > 0 else 0x80000000
        else:
            r = max(-(1 << 31), min((1 << 31) - 1, math.trunc(v))) & M32
        cpu.regs[rd] = r
        cpu.pc = nxt

    return run


@_factory("ficvt")
def _ficvt(insn: Insn, nxt: int):
    fd = insn.operands[0].index
    rs = insn.operands[1].index

    def run(cpu):
        v = cpu.regs[rs]
        if v & 0x80000000:
            v -= 1 << 32
        cpu.fregs[fd] = float(v)
        cpu.pc = nxt

    return run


@_factory("fldi")
def _fldi(insn: Insn, nxt: int):
    fd = insn.operands[0].index
    v = insn.operands[1].value & M32
    value = float(v - (1 << 32)) if v & 0x80000000 else float(v)

    def run(cpu):
        cpu.fregs[fd] = value
        cpu.pc = nxt

    return run


# -- SIMD ---------------------------------------------------------------------------

from ..ir.ops import get_op as _get_ir_op

_V_BINOPS = {
    "vaddb": "Add8x16",
    "vaddw": "Add16x8",
    "vaddd": "Add32x4",
    "vsubb": "Sub8x16",
    "vsubw": "Sub16x8",
    "vsubd": "Sub32x4",
    "vand": "AndV128",
    "vor": "OrV128",
    "vxor": "XorV128",
    "vcmpeqb": "CmpEQ8x16",
    "vmaxub": "MaxU8x16",
    "vminub": "MinU8x16",
    "vavgub": "Avg8x16",
    "vmulw": "Mul16x8",
}


@_factory(*_V_BINOPS)
def _vbinop(insn: Insn, nxt: int):
    vd, vs = insn.operands[0].index, insn.operands[1].index
    fn = _get_ir_op(_V_BINOPS[insn.mnemonic]).fn

    def run(cpu):
        cpu.vregs[vd] = fn(cpu.vregs[vd], cpu.vregs[vs])
        cpu.pc = nxt

    return run


@_factory("vmov")
def _vmov(insn: Insn, nxt: int):
    vd, vs = insn.operands[0].index, insn.operands[1].index

    def run(cpu):
        cpu.vregs[vd] = cpu.vregs[vs]
        cpu.pc = nxt

    return run


@_factory("vld")
def _vld(insn: Insn, nxt: int):
    vd = insn.operands[0].index
    ea = _ea(insn.operands[1])

    def run(cpu):
        cpu.vregs[vd] = int.from_bytes(cpu.mem.read(ea(cpu.regs), 16), "little")
        cpu.pc = nxt

    return run


@_factory("vst")
def _vst(insn: Insn, nxt: int):
    ea = _ea(insn.operands[0])
    vs = insn.operands[1].index

    def run(cpu):
        cpu.mem.write(ea(cpu.regs), cpu.vregs[vs].to_bytes(16, "little"))
        cpu.pc = nxt

    return run


@_factory("vshlw", "vshrw")
def _vshift(insn: Insn, nxt: int):
    vd = insn.operands[0].index
    n = insn.operands[1].value & 0xFF
    op = _get_ir_op("ShlN16x8" if insn.mnemonic == "vshlw" else "ShrN16x8").fn

    def run(cpu):
        cpu.vregs[vd] = op(cpu.vregs[vd], n)
        cpu.pc = nxt

    return run


@_factory("vsplatb")
def _vsplatb(insn: Insn, nxt: int):
    vd = insn.operands[0].index
    rs = insn.operands[1].index
    dup = _get_ir_op("Dup8x16").fn

    def run(cpu):
        cpu.vregs[vd] = dup(cpu.regs[rs] & 0xFF)
        cpu.pc = nxt

    return run
