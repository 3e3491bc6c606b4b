"""vx32 machine-code encoding and decoding.

The encoding is variable-length and deliberately CISC-flavoured:

* 1 opcode byte, then operand bytes in definition order;
* register/condition operands take 1 byte each;
* 8-bit immediates take 1 byte, 32-bit immediates and branch displacements
  take 4 little-endian bytes;
* memory operands take a mode byte (base/index presence and numbers), an
  optional scale byte, and a 4-byte displacement.

Instruction lengths therefore range from 1 byte (``nop``, ``ret``) to
11 bytes (ALU reg, [base+index*scale+disp]); a plain 32-bit load
``ld r0, [r3+disp]`` is 7 bytes, like the 7-byte ``movl`` in Figure 1.
"""

from __future__ import annotations

from typing import List, Tuple

from .isa import (
    Cond,
    FReg,
    Imm,
    Insn,
    Mem,
    OpKind,
    Operand,
    Reg,
    VReg,
    insn_def,
    insn_def_by_opcode,
)


class DecodeError(Exception):
    """Raised when bytes do not form a valid vx32 instruction."""


_SCALE_LOG = {1: 0, 2: 1, 4: 2, 8: 3}
_LOG_SCALE = {v: k for k, v in _SCALE_LOG.items()}


def _mem_length(m: Mem) -> int:
    return (2 if m.index is not None else 1) + 4


def insn_length(mnemonic: str, operands: Tuple[Operand, ...]) -> int:
    """Encoded length of an instruction, without encoding it."""
    d = insn_def(mnemonic)
    n = 1
    for kind, op in zip(d.operands, operands):
        if kind in (OpKind.GPR, OpKind.FREG, OpKind.VREG, OpKind.COND, OpKind.IMM8):
            n += 1
        elif kind in (OpKind.IMM32, OpKind.REL32):
            n += 4
        elif kind is OpKind.MEM:
            n += _mem_length(op)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(kind)
    return n


def encode(insn: Insn) -> bytes:
    """Encode *insn* to bytes.  ``insn.addr`` must be set for REL32 operands
    (the displacement is relative to the end of the instruction)."""
    d = insn.idef
    if len(insn.operands) != len(d.operands):
        raise ValueError(
            f"{insn.mnemonic}: expected {len(d.operands)} operands, "
            f"got {len(insn.operands)}"
        )
    length = insn_length(insn.mnemonic, insn.operands)
    out = bytearray([d.opcode])
    for kind, op in zip(d.operands, insn.operands):
        if kind is OpKind.GPR:
            assert isinstance(op, Reg), op
            out.append(op.index)
        elif kind is OpKind.FREG:
            assert isinstance(op, FReg), op
            out.append(op.index)
        elif kind is OpKind.VREG:
            assert isinstance(op, VReg), op
            out.append(op.index)
        elif kind is OpKind.COND:
            assert isinstance(op, Cond), op
            out.append(op.code)
        elif kind is OpKind.IMM8:
            assert isinstance(op, Imm), op
            out.append(op.value & 0xFF)
        elif kind is OpKind.IMM32:
            assert isinstance(op, Imm), op
            out += (op.value & 0xFFFFFFFF).to_bytes(4, "little")
        elif kind is OpKind.REL32:
            assert isinstance(op, Imm), op
            rel = (op.value - (insn.addr + length)) & 0xFFFFFFFF
            out += rel.to_bytes(4, "little")
        elif kind is OpKind.MEM:
            assert isinstance(op, Mem), op
            mode = 0
            if op.base is not None:
                mode |= 0x08 | op.base
            if op.index is not None:
                mode |= 0x80 | (op.index << 4)
            out.append(mode)
            if op.index is not None:
                out.append(_SCALE_LOG[op.scale])
            out += (op.disp & 0xFFFFFFFF).to_bytes(4, "little")
        else:  # pragma: no cover - exhaustive
            raise AssertionError(kind)
    assert len(out) == length
    insn.length = length
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("truncated instruction")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def u32(self) -> int:
        if self.pos + 4 > len(self.data):
            raise DecodeError("truncated instruction")
        v = int.from_bytes(self.data[self.pos : self.pos + 4], "little")
        self.pos += 4
        return v


def decode(data: bytes, offset: int = 0, addr: int = 0) -> Insn:
    """Decode one instruction from ``data[offset:]``.

    *addr* is the guest address of the instruction, used to materialise
    absolute targets from REL32 displacements.
    """
    cur = _Cursor(data, offset)
    opcode = cur.u8()
    d = insn_def_by_opcode(opcode)
    if d is None:
        raise DecodeError(f"bad opcode {opcode:#04x} at address {addr:#x}")
    operands: List[Operand] = []
    rel_fixups: List[int] = []
    for kind in d.operands:
        if kind is OpKind.GPR:
            r = cur.u8()
            if r >= 8:
                raise DecodeError(f"bad register {r} at {addr:#x}")
            operands.append(Reg(r))
        elif kind is OpKind.FREG:
            r = cur.u8()
            if r >= 8:
                raise DecodeError(f"bad FP register {r} at {addr:#x}")
            operands.append(FReg(r))
        elif kind is OpKind.VREG:
            r = cur.u8()
            if r >= 8:
                raise DecodeError(f"bad SIMD register {r} at {addr:#x}")
            operands.append(VReg(r))
        elif kind is OpKind.COND:
            c = cur.u8()
            if c >= 14:
                raise DecodeError(f"bad condition {c} at {addr:#x}")
            operands.append(Cond(c))
        elif kind is OpKind.IMM8:
            operands.append(Imm(cur.u8()))
        elif kind is OpKind.IMM32:
            operands.append(Imm(cur.u32()))
        elif kind is OpKind.REL32:
            rel_fixups.append(len(operands))
            operands.append(Imm(cur.u32()))
        elif kind is OpKind.MEM:
            mode = cur.u8()
            base = (mode & 0x07) if mode & 0x08 else None
            index = ((mode >> 4) & 0x07) if mode & 0x80 else None
            scale = 1
            if index is not None:
                s = cur.u8()
                if s not in _LOG_SCALE:
                    raise DecodeError(f"bad scale {s} at {addr:#x}")
                scale = _LOG_SCALE[s]
            disp = cur.u32()
            operands.append(Mem(base, index, scale, disp))
        else:  # pragma: no cover - exhaustive
            raise AssertionError(kind)
    length = cur.pos - offset
    # Resolve REL32 displacements into absolute targets.
    for i in rel_fixups:
        rel = operands[i].value
        operands[i] = Imm((addr + length + rel) & 0xFFFFFFFF)
    return Insn(d.mnemonic, tuple(operands), addr=addr, length=length)
