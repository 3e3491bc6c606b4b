"""The hx synthetic host instruction set.

The JIT back-end's target: a small register machine with

* 8 integer registers (``h0``–``h7``; ``h6``/``h7`` are reserved as spill
  scratch, and a ninth, unallocatable register always points at the
  ThreadState — "one general-purpose host register is always reserved to
  point to the ThreadState", Section 3.7 Phase 7),
* 4 FP registers (``hf0``–``hf3``, ``hf3`` scratch),
* 4 vector registers (``hv0``–``hv3``, ``hv3`` scratch),
* three-address ALU instructions whose operation field indexes the IR's
  primitive-op table,
* guest-state (ThreadState-relative) and guest-memory load/store,
* clean/dirty helper calls, and
* side-exit / set-PC / return-to-dispatcher control instructions.

Instructions carry *virtual* registers out of instruction selection; the
linear-scan allocator replaces them with real ones.  The assembler
(Phase 8) encodes the final list to bytes, which is what the translation
table stores and the host CPU emulator executes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.ops import OPS

#: Encoding format version, part of the persistent code cache's context
#: key (core.codecache): bump on any change to the byte encoding, the
#: opcode table, or the pre-registered jump-kind order.
HOSTISA_FORMAT_VERSION = 1
from ..ir.types import Ty

# Stable numbering of IR primitive ops for the ALU-op field.
OP_INDEX: Dict[str, int] = {name: i for i, name in enumerate(sorted(OPS))}
OP_BY_INDEX: Dict[int, str] = {i: name for name, i in OP_INDEX.items()}

_TY_INDEX = {t: i for i, t in enumerate(Ty)}
_TY_BY_INDEX = {i: t for t, i in _TY_INDEX.items()}


class RC(enum.IntEnum):
    """Host register classes."""

    INT = 0
    FLT = 1
    VEC = 2


#: Registers available to the allocator, per class.
ALLOCATABLE = {RC.INT: 5, RC.FLT: 2, RC.VEC: 2}
#: Total real registers per class (the rest are spill scratch).
NUM_REGS = {RC.INT: 8, RC.FLT: 4, RC.VEC: 4}
#: Scratch registers reserved for spill-code rewriting (CSEL can need
#: three reloaded integer sources at once).
SCRATCH = {RC.INT: (5, 6, 7), RC.FLT: (2, 3), RC.VEC: (2, 3)}

_RC_PREFIX = {RC.INT: "h", RC.FLT: "hf", RC.VEC: "hv"}


@dataclass(frozen=True)
class Reg:
    """A host register: virtual (from isel) or real (after regalloc)."""

    rc: RC
    n: int
    virtual: bool = False

    def __str__(self) -> str:
        if self.virtual:
            return f"%%vr{self.n}"
        return f"%{_RC_PREFIX[self.rc]}{self.n}"


@dataclass(frozen=True)
class Slot:
    """A spill slot, usable directly as a call argument (CISC-style)."""

    n: int
    ty: Ty

    def __str__(self) -> str:
        return f"slot{self.n}"


@dataclass(frozen=True)
class ImmArg:
    """An immediate call argument (real call sequences push immediates)."""

    value: object
    ty: Ty

    def __str__(self) -> str:
        return f"#{self.value}"


Arg = Union[Reg, Slot, ImmArg]


def rc_of_ty(ty: Ty) -> RC:
    if ty.is_float:
        return RC.FLT
    if ty is Ty.V128:
        return RC.VEC
    return RC.INT


# -- instruction classes ------------------------------------------------------


class HInsn:
    """Base class of host instructions."""

    __slots__ = ()

    def regs_read(self) -> Tuple[Reg, ...]:
        return ()

    def regs_written(self) -> Tuple[Reg, ...]:
        return ()


@dataclass(frozen=True)
class LI(HInsn):
    """Load an integer immediate (up to 128 bits, for V128 constants)."""

    dst: Reg
    imm: int

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"li {self.dst}, {self.imm:#x}"


@dataclass(frozen=True)
class LIF(HInsn):
    """Load an FP immediate."""

    dst: Reg
    imm: float

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"lif {self.dst}, {self.imm!r}"


@dataclass(frozen=True)
class MOVR(HInsn):
    """Register-to-register move (same class)."""

    dst: Reg
    src: Reg

    def regs_read(self):
        return (self.src,)

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"mov {self.dst}, {self.src}"


@dataclass(frozen=True)
class BIN(HInsn):
    """Three-address ALU: dst = op(src1, src2), op from the IR op table."""

    op: str
    dst: Reg
    src1: Reg
    src2: Reg

    def regs_read(self):
        return (self.src1, self.src2)

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"{self.op.lower()} {self.dst}, {self.src1}, {self.src2}"


@dataclass(frozen=True)
class UN(HInsn):
    """Two-address ALU: dst = op(src)."""

    op: str
    dst: Reg
    src: Reg

    def regs_read(self):
        return (self.src,)

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"{self.op.lower()} {self.dst}, {self.src}"


@dataclass(frozen=True)
class LDG(HInsn):
    """Load from the ThreadState: dst = TS[off .. off+size(ty))."""

    ty: Ty
    dst: Reg
    off: int

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"ldg.{self.ty.value.lower()} {self.dst}, ts[{self.off}]"


@dataclass(frozen=True)
class STG(HInsn):
    """Store to the ThreadState."""

    ty: Ty
    off: int
    src: Reg

    def regs_read(self):
        return (self.src,)

    def __str__(self) -> str:
        return f"stg.{self.ty.value.lower()} ts[{self.off}], {self.src}"


@dataclass(frozen=True)
class LDM(HInsn):
    """Guest-memory load: dst = mem[addr]; may fault."""

    ty: Ty
    dst: Reg
    addr: Reg

    def regs_read(self):
        return (self.addr,)

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"ldm.{self.ty.value.lower()} {self.dst}, [{self.addr}]"


@dataclass(frozen=True)
class STM(HInsn):
    """Guest-memory store: mem[addr] = src; may fault."""

    ty: Ty
    addr: Reg
    src: Reg

    def regs_read(self):
        return (self.addr, self.src)

    def __str__(self) -> str:
        return f"stm.{self.ty.value.lower()} [{self.addr}], {self.src}"


@dataclass(frozen=True)
class CSEL(HInsn):
    """Conditional select: dst = cond ? a : b (cond is an INT reg)."""

    dst: Reg
    cond: Reg
    a: Reg
    b: Reg

    def regs_read(self):
        return (self.cond, self.a, self.b)

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"csel {self.dst}, {self.cond} ? {self.a} : {self.b}"


@dataclass(frozen=True)
class CALL(HInsn):
    """Helper call.  ``dirty`` distinguishes clean (pure) from dirty calls;
    dirty calls receive the execution environment.  ``guard`` (INT reg, may
    be None) makes the call conditional — Memcheck's conditional
    error-reporting calls compile to this."""

    helper: str
    args: Tuple[Arg, ...]
    dst: Optional[Reg] = None
    retty: Optional[Ty] = None
    dirty: bool = False
    guard: Optional[Reg] = None

    def regs_read(self):
        rs = tuple(a for a in self.args if isinstance(a, Reg))
        if self.guard is not None:
            rs += (self.guard,)
        return rs

    def regs_written(self):
        return (self.dst,) if self.dst is not None else ()

    def __str__(self) -> str:
        kind = "calld" if self.dirty else "callc"
        args = ", ".join(str(a) for a in self.args)
        pre = f"{self.dst} = " if self.dst is not None else ""
        g = f" if {self.guard}" if self.guard is not None else ""
        return f"{pre}{kind}{g} {self.helper}({args})"


@dataclass(frozen=True)
class SIDEEXIT(HInsn):
    """If cond != 0: TS.pc = dst; return to the dispatcher with *jk*.

    ``icnt`` is the number of guest instructions (IMarks) completed when
    this exit is taken — it lets the dispatcher keep an *exact* guest
    instruction count even on side exits.
    """

    cond: Reg
    dst: int
    jk: str  # JumpKind value
    icnt: int = 0

    def regs_read(self):
        return (self.cond,)

    def __str__(self) -> str:
        return f"exit-if {self.cond} -> {self.dst:#x} {{{self.jk}}} [{self.icnt}]"


@dataclass(frozen=True)
class SIDEEXITR(HInsn):
    """If cond != 0: TS.pc = src (register); return to the dispatcher.

    The register-target twin of SIDEEXIT, used by trace seams whose
    recorded successor is a computed target (Ret / indirect Call /
    computed Boring): when the run-time target differs from the recorded
    one, the trace bails out to wherever the guest actually went.
    """

    cond: Reg
    src: Reg
    jk: str  # JumpKind value
    icnt: int = 0

    def regs_read(self):
        return (self.cond, self.src)

    def __str__(self) -> str:
        return f"exit-if {self.cond} -> {self.src} {{{self.jk}}} [{self.icnt}]"


@dataclass(frozen=True)
class TRACEMARK(HInsn):
    """Record that member block *index* of the containing trace started.

    A trace-progress no-op: the executor stores *index* into the host
    CPU's ``trace_blocks`` so the dispatcher can account completed blocks
    exactly when a trace faults or side-exits early.
    """

    index: int

    def __str__(self) -> str:
        return f"tracemark {self.index}"


@dataclass(frozen=True)
class SETPCI(HInsn):
    """TS.pc = immediate."""

    dst: int

    def __str__(self) -> str:
        return f"setpc {self.dst:#x}"


@dataclass(frozen=True)
class SETPCR(HInsn):
    """TS.pc = register."""

    src: Reg

    def regs_read(self):
        return (self.src,)

    def __str__(self) -> str:
        return f"setpc {self.src}"


@dataclass(frozen=True)
class RET(HInsn):
    """Return to the dispatcher with a jump-kind code.

    ``icnt`` is the block's total guest instruction (IMark) count.
    """

    jk: str
    icnt: int = 0

    def __str__(self) -> str:
        return f"ret {{{self.jk}}} [{self.icnt}]"


# -- spill pseudo-instructions (inserted by the allocator) ---------------------


@dataclass(frozen=True)
class SPILL(HInsn):
    """Store a real register to a spill slot."""

    slot: int
    src: Reg
    ty: Ty

    def regs_read(self):
        return (self.src,)

    def __str__(self) -> str:
        return f"spill slot{self.slot}, {self.src}"


@dataclass(frozen=True)
class RELOAD(HInsn):
    """Load a real register from a spill slot."""

    dst: Reg
    slot: int
    ty: Ty

    def regs_written(self):
        return (self.dst,)

    def __str__(self) -> str:
        return f"reload {self.dst}, slot{self.slot}"


# ---------------------------------------------------------------------------
# Encoding (Phase 8 writes these bytes; the host CPU decodes them).
# ---------------------------------------------------------------------------

_OPC = {
    LI: 0x01,
    LIF: 0x02,
    MOVR: 0x03,
    BIN: 0x04,
    UN: 0x05,
    LDG: 0x06,
    STG: 0x07,
    LDM: 0x08,
    STM: 0x09,
    CSEL: 0x0A,
    CALL: 0x0B,
    SIDEEXIT: 0x0C,
    SETPCI: 0x0D,
    SETPCR: 0x0E,
    RET: 0x0F,
    SPILL: 0x10,
    RELOAD: 0x11,
    SIDEEXITR: 0x12,
    TRACEMARK: 0x13,
}
_CLS_BY_OPC = {v: k for k, v in _OPC.items()}

_JK_CODES: Dict[str, int] = {}
_JK_BY_CODE: Dict[int, str] = {}


def _jk_code(jk: str) -> int:
    if jk not in _JK_CODES:
        code = len(_JK_CODES)
        _JK_CODES[jk] = code
        _JK_BY_CODE[code] = jk
    return _JK_CODES[jk]


# Pre-register the jump kinds in a stable order.
from ..ir.stmt import JumpKind as _JK

for _k in _JK:
    _jk_code(_k.value)


class HostEncodeError(Exception):
    pass


def _enc_reg(r: Reg, out: bytearray) -> None:
    if r.virtual:
        raise HostEncodeError(f"cannot encode virtual register {r}")
    out.append((int(r.rc) << 4) | r.n)


def _dec_reg(b: int) -> Reg:
    return Reg(RC(b >> 4), b & 0x0F)


def _enc_arg(a: Arg, out: bytearray) -> None:
    if isinstance(a, Reg):
        out.append(0)
        _enc_reg(a, out)
    elif isinstance(a, Slot):
        out.append(1)
        out += a.n.to_bytes(2, "little")
        out.append(_TY_INDEX[a.ty])
    else:
        out.append(2)
        out.append(_TY_INDEX[a.ty])
        if a.ty is Ty.F64 or a.ty is Ty.F32:
            out += struct.pack("<d", a.value)
        else:
            out += (int(a.value) & ((1 << 128) - 1)).to_bytes(16, "little")


class _HelperNames:
    """Per-translation string table for helper names."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}

    def index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]


def encode_insns(insns: Sequence[HInsn]) -> bytes:
    """Phase 8: encode a host instruction list to bytes.

    Layout: a little header with the helper-name string table, then the
    instruction stream.
    """
    helpers = _HelperNames()
    body = bytearray()
    for insn in insns:
        body.append(_OPC[type(insn)])
        if isinstance(insn, LI):
            _enc_reg(insn.dst, body)
            body += (insn.imm & ((1 << 128) - 1)).to_bytes(16, "little")
        elif isinstance(insn, LIF):
            _enc_reg(insn.dst, body)
            body += struct.pack("<d", insn.imm)
        elif isinstance(insn, MOVR):
            _enc_reg(insn.dst, body)
            _enc_reg(insn.src, body)
        elif isinstance(insn, BIN):
            body += OP_INDEX[insn.op].to_bytes(2, "little")
            _enc_reg(insn.dst, body)
            _enc_reg(insn.src1, body)
            _enc_reg(insn.src2, body)
        elif isinstance(insn, UN):
            body += OP_INDEX[insn.op].to_bytes(2, "little")
            _enc_reg(insn.dst, body)
            _enc_reg(insn.src, body)
        elif isinstance(insn, LDG):
            body.append(_TY_INDEX[insn.ty])
            _enc_reg(insn.dst, body)
            body += insn.off.to_bytes(2, "little")
        elif isinstance(insn, STG):
            body.append(_TY_INDEX[insn.ty])
            body += insn.off.to_bytes(2, "little")
            _enc_reg(insn.src, body)
        elif isinstance(insn, LDM):
            body.append(_TY_INDEX[insn.ty])
            _enc_reg(insn.dst, body)
            _enc_reg(insn.addr, body)
        elif isinstance(insn, STM):
            body.append(_TY_INDEX[insn.ty])
            _enc_reg(insn.addr, body)
            _enc_reg(insn.src, body)
        elif isinstance(insn, CSEL):
            _enc_reg(insn.dst, body)
            _enc_reg(insn.cond, body)
            _enc_reg(insn.a, body)
            _enc_reg(insn.b, body)
        elif isinstance(insn, CALL):
            body += helpers.index(insn.helper).to_bytes(2, "little")
            flags = (1 if insn.dirty else 0) | (2 if insn.guard is not None else 0) | (
                4 if insn.dst is not None else 0
            )
            body.append(flags)
            if insn.guard is not None:
                _enc_reg(insn.guard, body)
            if insn.dst is not None:
                _enc_reg(insn.dst, body)
                body.append(_TY_INDEX[insn.retty])
            body.append(len(insn.args))
            for a in insn.args:
                _enc_arg(a, body)
        elif isinstance(insn, SIDEEXIT):
            _enc_reg(insn.cond, body)
            body += insn.dst.to_bytes(4, "little")
            body.append(_jk_code(insn.jk))
            body += insn.icnt.to_bytes(2, "little")
        elif isinstance(insn, SIDEEXITR):
            _enc_reg(insn.cond, body)
            _enc_reg(insn.src, body)
            body.append(_jk_code(insn.jk))
            body += insn.icnt.to_bytes(2, "little")
        elif isinstance(insn, TRACEMARK):
            body += insn.index.to_bytes(2, "little")
        elif isinstance(insn, SETPCI):
            body += insn.dst.to_bytes(4, "little")
        elif isinstance(insn, SETPCR):
            _enc_reg(insn.src, body)
        elif isinstance(insn, RET):
            body.append(_jk_code(insn.jk))
            body += insn.icnt.to_bytes(2, "little")
        elif isinstance(insn, SPILL):
            body += insn.slot.to_bytes(2, "little")
            _enc_reg(insn.src, body)
            body.append(_TY_INDEX[insn.ty])
        elif isinstance(insn, RELOAD):
            _enc_reg(insn.dst, body)
            body += insn.slot.to_bytes(2, "little")
            body.append(_TY_INDEX[insn.ty])
        else:  # pragma: no cover - exhaustive
            raise HostEncodeError(f"cannot encode {insn!r}")
    header = bytearray()
    header.append(len(helpers.names))
    for name in helpers.names:
        raw = name.encode()
        header.append(len(raw))
        header += raw
    return bytes(header) + bytes(body)


def decode_insns(data: bytes) -> List[HInsn]:
    """Decode an assembled translation back into an instruction list."""
    pos = 0
    nhelpers = data[pos]
    pos += 1
    names: List[str] = []
    for _ in range(nhelpers):
        ln = data[pos]
        pos += 1
        names.append(data[pos : pos + ln].decode())
        pos += ln

    def u8() -> int:
        nonlocal pos
        v = data[pos]
        pos += 1
        return v

    def u16() -> int:
        nonlocal pos
        v = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
        return v

    def u32() -> int:
        nonlocal pos
        v = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
        return v

    def reg() -> Reg:
        return _dec_reg(u8())

    def ty() -> Ty:
        return _TY_BY_INDEX[u8()]

    out: List[HInsn] = []
    while pos < len(data):
        opc = u8()
        cls = _CLS_BY_OPC.get(opc)
        if cls is LI:
            d = reg()
            imm = int.from_bytes(data[pos : pos + 16], "little")
            pos += 16
            out.append(LI(d, imm))
        elif cls is LIF:
            d = reg()
            v = struct.unpack("<d", data[pos : pos + 8])[0]
            pos += 8
            out.append(LIF(d, v))
        elif cls is MOVR:
            out.append(MOVR(reg(), reg()))
        elif cls is BIN:
            op = OP_BY_INDEX[u16()]
            out.append(BIN(op, reg(), reg(), reg()))
        elif cls is UN:
            op = OP_BY_INDEX[u16()]
            out.append(UN(op, reg(), reg()))
        elif cls is LDG:
            t = ty()
            out.append(LDG(t, reg(), u16()))
        elif cls is STG:
            t = ty()
            off = u16()
            out.append(STG(t, off, reg()))
        elif cls is LDM:
            t = ty()
            out.append(LDM(t, reg(), reg()))
        elif cls is STM:
            t = ty()
            out.append(STM(t, reg(), reg()))
        elif cls is CSEL:
            out.append(CSEL(reg(), reg(), reg(), reg()))
        elif cls is CALL:
            helper = names[u16()]
            flags = u8()
            guard = reg() if flags & 2 else None
            dst = retty = None
            if flags & 4:
                dst = reg()
                retty = ty()
            nargs = u8()
            args: List[Arg] = []
            for _ in range(nargs):
                kind = u8()
                if kind == 0:
                    args.append(reg())
                elif kind == 1:
                    n = u16()
                    args.append(Slot(n, ty()))
                else:
                    t = ty()
                    if t is Ty.F64 or t is Ty.F32:
                        v = struct.unpack("<d", data[pos : pos + 8])[0]
                        pos += 8
                    else:
                        v = int.from_bytes(data[pos : pos + 16], "little")
                        pos += 16
                    args.append(ImmArg(v, t))
            out.append(
                CALL(helper, tuple(args), dst=dst, retty=retty,
                     dirty=bool(flags & 1), guard=guard)
            )
        elif cls is SIDEEXIT:
            c = reg()
            dst = u32()
            jk = _JK_BY_CODE[u8()]
            out.append(SIDEEXIT(c, dst, jk, u16()))
        elif cls is SIDEEXITR:
            c = reg()
            src = reg()
            jk = _JK_BY_CODE[u8()]
            out.append(SIDEEXITR(c, src, jk, u16()))
        elif cls is TRACEMARK:
            out.append(TRACEMARK(u16()))
        elif cls is SETPCI:
            out.append(SETPCI(u32()))
        elif cls is SETPCR:
            out.append(SETPCR(reg()))
        elif cls is RET:
            jk = _JK_BY_CODE[u8()]
            out.append(RET(jk, u16()))
        elif cls is SPILL:
            slot = u16()
            src = reg()
            out.append(SPILL(slot, src, ty()))
        elif cls is RELOAD:
            d = reg()
            slot = u16()
            out.append(RELOAD(d, slot, ty()))
        else:
            raise HostEncodeError(f"bad host opcode {opc:#x} at {pos - 1}")
    return out


def fmt_insns(insns: Sequence[HInsn]) -> str:
    """Pretty-print a host instruction list (Figure 3 style)."""
    return "\n".join(f"  {i}" for i in insns)
