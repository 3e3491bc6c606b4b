"""The vx32 guest instruction set.

vx32 is the synthetic 32-bit CISC guest architecture this reproduction
uses in place of x86 (see DESIGN.md).  It has the properties the paper's
arguments rest on:

* condition codes set as a side-effect of most ALU instructions (modelled
  with Valgrind's lazy condition-code thunk),
* memory operands with ``[base + index*scale + disp]`` addressing, so a
  single instruction decomposes into several IR operations (Figure 1),
* read-modify-write memory-destination instructions (``addm``/``subm``),
* a variable-length byte encoding (so self-modifying-code hashing and
  IMark lengths are meaningful),
* FP and 128-bit SIMD register files that tools must be able to shadow,
* an architecture-specific oddball (``machid``, our ``cpuid``) handled via
  an annotated dirty helper rather than explicit IR, and
* ``syscall`` / client-request / host-library-call traps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .regs import COND_NAMES, FREG_NAMES, GPR_NAMES, VREG_NAMES


class OpKind(enum.Enum):
    """Operand slot kinds, which fully determine the encoding layout."""

    GPR = "gpr"      # 1 byte: integer register index
    FREG = "freg"    # 1 byte: FP register index
    VREG = "vreg"    # 1 byte: SIMD register index
    COND = "cond"    # 1 byte: condition code
    IMM8 = "imm8"    # 1 byte immediate
    IMM32 = "imm32"  # 4 byte immediate (little-endian)
    REL32 = "rel32"  # 4 byte branch displacement, relative to insn end
    MEM = "mem"      # mode byte [+ scale byte] + disp32


# -- operand values ----------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    index: int

    def __str__(self) -> str:
        return GPR_NAMES[self.index]


@dataclass(frozen=True)
class FReg:
    index: int

    def __str__(self) -> str:
        return FREG_NAMES[self.index]


@dataclass(frozen=True)
class VReg:
    index: int

    def __str__(self) -> str:
        return VREG_NAMES[self.index]


@dataclass(frozen=True)
class Imm:
    value: int

    def __str__(self) -> str:
        return str(self.value) if -4096 < self.value < 4096 else hex(self.value)


@dataclass(frozen=True)
class Cond:
    code: int

    def __str__(self) -> str:
        return COND_NAMES[self.code]


@dataclass(frozen=True)
class Mem:
    """A memory operand ``[base + index*scale + disp]``; any part optional."""

    base: Optional[int] = None
    index: Optional[int] = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"bad scale {self.scale}")

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(GPR_NAMES[self.base])
        if self.index is not None:
            part = GPR_NAMES[self.index]
            if self.scale != 1:
                part += f"*{self.scale}"
            parts.append(part)
        if self.disp or not parts:
            parts.append(hex(self.disp))
        return "[" + "+".join(parts) + "]"


Operand = Union[Reg, FReg, VReg, Imm, Cond, Mem]


# -- instruction definitions -------------------------------------------------


@dataclass(frozen=True)
class InsnDef:
    """Static definition of one instruction: mnemonic, opcode, operand kinds."""

    mnemonic: str
    opcode: int
    operands: Tuple[OpKind, ...] = ()
    #: True for instructions that write the condition-code thunk.
    sets_flags: bool = False
    #: True for control-flow instructions that end a basic block.
    is_branch: bool = False


_DEFS: Dict[str, InsnDef] = {}
_BY_OPCODE: Dict[int, InsnDef] = {}


def _d(
    mnemonic: str,
    opcode: int,
    *operands: OpKind,
    sets_flags: bool = False,
    is_branch: bool = False,
) -> None:
    d = InsnDef(mnemonic, opcode, tuple(operands), sets_flags, is_branch)
    if mnemonic in _DEFS:
        raise ValueError(f"duplicate mnemonic {mnemonic}")
    if opcode in _BY_OPCODE:
        raise ValueError(f"duplicate opcode {opcode:#x}")
    _DEFS[mnemonic] = d
    _BY_OPCODE[opcode] = d


G, F, V, C = OpKind.GPR, OpKind.FREG, OpKind.VREG, OpKind.COND
I8, I32, REL, M = OpKind.IMM8, OpKind.IMM32, OpKind.REL32, OpKind.MEM

# System / misc.
_d("nop", 0x00)
_d("halt", 0x01, is_branch=True)
_d("syscall", 0x02, is_branch=True)
_d("ret", 0x03, is_branch=True)
_d("machid", 0x04)              # cpuid analogue: fills r0..r3 (dirty helper)
_d("cycles", 0x05)              # rdtsc analogue: r0 = cycle count
_d("lcall", 0x06, I32, is_branch=True)  # host library call (libc functions)
_d("clreq", 0x07, is_branch=True)       # client request trap-door

# Data movement.
_d("mov", 0x10, G, G)
_d("movi", 0x11, G, I32)
_d("ld", 0x12, G, M)
_d("st", 0x13, M, G)
_d("ldb", 0x14, G, M)
_d("ldbs", 0x15, G, M)
_d("ldw", 0x16, G, M)
_d("ldws", 0x17, G, M)
_d("stb", 0x18, M, G)
_d("stw", 0x19, M, G)
_d("lea", 0x1A, G, M)
_d("xchg", 0x1B, G, G)
_d("sxb", 0x1C, G)
_d("sxw", 0x1D, G)
_d("sti", 0x1F, M, I32)

# Integer ALU (flag-setting).
_d("add", 0x20, G, G, sets_flags=True)
_d("addi", 0x21, G, I32, sets_flags=True)
_d("addm_", 0x22, G, M, sets_flags=True)   # rd += [mem]
_d("sub", 0x23, G, G, sets_flags=True)
_d("subi", 0x24, G, I32, sets_flags=True)
_d("subm_", 0x25, G, M, sets_flags=True)
_d("and", 0x26, G, G, sets_flags=True)
_d("andi", 0x27, G, I32, sets_flags=True)
_d("andm_", 0x28, G, M, sets_flags=True)
_d("or", 0x29, G, G, sets_flags=True)
_d("ori", 0x2A, G, I32, sets_flags=True)
_d("orm_", 0x2B, G, M, sets_flags=True)
_d("xor", 0x2C, G, G, sets_flags=True)
_d("xori", 0x2D, G, I32, sets_flags=True)
_d("xorm_", 0x2E, G, M, sets_flags=True)
_d("cmp", 0x2F, G, G, sets_flags=True)
_d("cmpi", 0x30, G, I32, sets_flags=True)
_d("cmpm_", 0x31, G, M, sets_flags=True)
_d("test", 0x32, G, G, sets_flags=True)
_d("testi", 0x33, G, I32, sets_flags=True)
_d("mul", 0x34, G, G, sets_flags=True)
_d("muli", 0x35, G, I32, sets_flags=True)
_d("divu", 0x36, G, G)
_d("divs", 0x37, G, G)
_d("modu", 0x38, G, G)
_d("mods", 0x39, G, G)
_d("mulhu", 0x3A, G, G)
_d("addm", 0x3B, M, G, sets_flags=True)   # [mem] += rs (read-modify-write)
_d("subm", 0x3C, M, G, sets_flags=True)
_d("mulhs", 0x3E, G, G)

# Shifts and unary ALU.
_d("shli", 0x40, G, I8, sets_flags=True)
_d("shl", 0x41, G, G, sets_flags=True)
_d("shri", 0x42, G, I8, sets_flags=True)
_d("shr", 0x43, G, G, sets_flags=True)
_d("sari", 0x44, G, I8, sets_flags=True)
_d("sar", 0x45, G, G, sets_flags=True)
_d("roli", 0x46, G, I8, sets_flags=True)
_d("rori", 0x47, G, I8, sets_flags=True)
_d("inc", 0x48, G, sets_flags=True)
_d("dec", 0x49, G, sets_flags=True)
_d("neg", 0x4A, G, sets_flags=True)
_d("not", 0x4B, G)

# Stack and control flow.
_d("push", 0x50, G)
_d("pushi", 0x51, I32)
_d("pop", 0x52, G)
_d("call", 0x53, REL, is_branch=True)
_d("callr", 0x54, G, is_branch=True)
_d("jmp", 0x55, REL, is_branch=True)
_d("jmpr", 0x56, G, is_branch=True)
_d("jcc", 0x57, C, REL, is_branch=True)
_d("setcc", 0x58, G, C)

# Floating point (F64 register file).
_d("fmov", 0x60, F, F)
_d("fld", 0x61, F, M)
_d("fst", 0x62, M, F)
_d("flds", 0x63, F, M)
_d("fsts", 0x64, M, F)
_d("fadd", 0x65, F, F)
_d("fsub", 0x66, F, F)
_d("fmul", 0x67, F, F)
_d("fdiv", 0x68, F, F)
_d("fsqrt", 0x69, F, F)
_d("fneg", 0x6A, F, F)
_d("fabs", 0x6B, F, F)
_d("fcmp", 0x6C, F, F, sets_flags=True)
_d("fcvti", 0x6D, G, F)
_d("ficvt", 0x6E, F, G)
_d("fldi", 0x6F, F, I32)
_d("fmin", 0x70, F, F)
_d("fmax", 0x71, F, F)

# SIMD (128-bit register file).
_d("vmov", 0x80, V, V)
_d("vld", 0x81, V, M)
_d("vst", 0x82, M, V)
_d("vaddb", 0x83, V, V)
_d("vaddw", 0x84, V, V)
_d("vaddd", 0x85, V, V)
_d("vsubb", 0x86, V, V)
_d("vsubw", 0x87, V, V)
_d("vsubd", 0x88, V, V)
_d("vand", 0x89, V, V)
_d("vor", 0x8A, V, V)
_d("vxor", 0x8B, V, V)
_d("vcmpeqb", 0x8C, V, V)
_d("vshlw", 0x8D, V, I8)
_d("vshrw", 0x8E, V, I8)
_d("vsplatb", 0x8F, V, G)
_d("vmaxub", 0x90, V, V)
_d("vminub", 0x91, V, V)
_d("vavgub", 0x92, V, V)
_d("vmulw", 0x93, V, V)


def insn_def(mnemonic: str) -> InsnDef:
    try:
        return _DEFS[mnemonic]
    except KeyError:
        raise KeyError(f"unknown vx32 instruction {mnemonic!r}") from None


def insn_def_by_opcode(opcode: int) -> Optional[InsnDef]:
    return _BY_OPCODE.get(opcode)


def all_mnemonics():
    return tuple(_DEFS.keys())


# -- concrete instructions ---------------------------------------------------


@dataclass
class Insn:
    """A decoded (or about-to-be-encoded) vx32 instruction."""

    mnemonic: str
    operands: Tuple[Operand, ...] = ()
    #: Address the instruction was decoded from / will be placed at.
    addr: int = 0
    #: Encoded length in bytes (filled in by encode/decode).
    length: int = 0

    @property
    def idef(self) -> InsnDef:
        return insn_def(self.mnemonic)

    def __str__(self) -> str:
        name = self.mnemonic
        ops = list(self.operands)
        # jcc/setcc print their condition as part of the mnemonic, x86-style.
        if name == "jcc":
            name = "j" + COND_NAMES[ops[0].code]
            ops = ops[1:]
        elif name == "setcc":
            name = "set" + COND_NAMES[ops[1].code]
            ops = ops[:1]
        if not ops:
            return name
        return f"{name} " + ", ".join(str(o) for o in ops)
