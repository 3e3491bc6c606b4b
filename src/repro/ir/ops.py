"""The primitive operations of the IR.

Valgrind's IR supports "more than 200 primitive arithmetic/logical
operations" covering the standard integer, FP and SIMD operations at
different sizes.  This module defines our equivalent table.  Every op has

* a name (``Add32``, ``CmpLT32S``, ``Shl64``, ``Add8x16``, ...),
* a result type and argument types, and
* an executable semantic function, used by the IR interpreter (the oracle
  the rest of the system is tested against) and by the constant folder.

Integer values are unsigned Python ints masked to their width; signedness
lives in the op, not the value.  V128 values are 128-bit unsigned ints
carved into lanes by the SIMD ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .types import Ty, mask, sign_extend


@dataclass(frozen=True)
class IROp:
    """A primitive IR operation."""

    name: str
    ret: Ty
    args: Tuple[Ty, ...]
    fn: Callable[..., object]

    @property
    def arity(self) -> int:
        return len(self.args)

    def apply(self, *vals: object) -> object:
        """Evaluate the op on concrete values (used by interp/constfold)."""
        if len(vals) != self.arity:
            raise TypeError(f"{self.name} expects {self.arity} args, got {len(vals)}")
        return self.fn(*vals)

    def __repr__(self) -> str:
        return f"<IROp {self.name}>"


#: Registry of all primitive ops, keyed by name.
OPS: Dict[str, IROp] = {}


def _register(name: str, ret: Ty, args: Tuple[Ty, ...], fn: Callable[..., object]) -> None:
    if name in OPS:
        raise ValueError(f"duplicate op {name}")
    OPS[name] = IROp(name, ret, args, fn)


def get_op(name: str) -> IROp:
    """Look up an op by name, raising KeyError with a helpful message."""
    try:
        return OPS[name]
    except KeyError:
        raise KeyError(f"unknown IR op: {name!r}") from None


# ---------------------------------------------------------------------------
# Integer ALU ops, one per width.
# ---------------------------------------------------------------------------

_INT_WIDTHS = (8, 16, 32, 64)
_ITY = {1: Ty.I1, 8: Ty.I8, 16: Ty.I16, 32: Ty.I32, 64: Ty.I64}


def _mk_binop(name: str, w: int, fn: Callable[[int, int], int]) -> None:
    t = _ITY[w]
    _register(f"{name}{w}", t, (t, t), lambda a, b, w=w, fn=fn: mask(w, fn(a, b)))


def _mk_shift(name: str, w: int, fn: Callable[[int, int, int], int]) -> None:
    # Shift amounts are I8, as in Valgrind.  Amounts >= width give 0 for
    # logical shifts and the sign-fill for arithmetic shifts (the semantics
    # are fully defined, unlike real x86).
    t = _ITY[w]
    _register(f"{name}{w}", t, (t, Ty.I8), lambda a, s, w=w, fn=fn: mask(w, fn(a, s, w)))


def _shl(a: int, s: int, w: int) -> int:
    return a << s if s < w else 0


def _shr(a: int, s: int, w: int) -> int:
    return a >> s if s < w else 0


def _sar(a: int, s: int, w: int) -> int:
    sa = sign_extend(w, a)
    return sa >> min(s, w - 1)


for _w in _INT_WIDTHS:
    _mk_binop("Add", _w, lambda a, b: a + b)
    _mk_binop("Sub", _w, lambda a, b: a - b)
    _mk_binop("Mul", _w, lambda a, b: a * b)
    _mk_binop("And", _w, lambda a, b: a & b)
    _mk_binop("Or", _w, lambda a, b: a | b)
    _mk_binop("Xor", _w, lambda a, b: a ^ b)
    _mk_shift("Shl", _w, _shl)
    _mk_shift("Shr", _w, _shr)
    _mk_shift("Sar", _w, _sar)

# And1/Or1/Xor1 on flags.
_register("And1", Ty.I1, (Ty.I1, Ty.I1), lambda a, b: a & b)
_register("Or1", Ty.I1, (Ty.I1, Ty.I1), lambda a, b: a | b)
_register("Xor1", Ty.I1, (Ty.I1, Ty.I1), lambda a, b: a ^ b)
_register("Not1", Ty.I1, (Ty.I1,), lambda a: a ^ 1)


def _mk_unop(name: str, w: int, fn: Callable[[int], int]) -> None:
    t = _ITY[w]
    _register(f"{name}{w}", t, (t,), lambda a, w=w, fn=fn: mask(w, fn(a)))


for _w in _INT_WIDTHS:
    _mk_unop("Not", _w, lambda a: ~a)
    _mk_unop("Neg", _w, lambda a: -a)

# Count-leading/trailing-zeros and popcount (defined at 0: Clz(0) == width).
for _w in (32, 64):
    _mk_unop("Clz", _w, lambda a, w=_w: w - a.bit_length())
    _mk_unop("Ctz", _w, lambda a, w=_w: (a & -a).bit_length() - 1 if a else w)
    _mk_unop("Popcnt", _w, lambda a: bin(a).count("1"))


# ---------------------------------------------------------------------------
# Integer comparisons (result I1).
# ---------------------------------------------------------------------------


def _mk_cmp(name: str, w: int, fn: Callable[[int, int], bool]) -> None:
    t = _ITY[w]
    _register(f"{name}{w}", Ty.I1, (t, t), lambda a, b, fn=fn: int(fn(a, b)))


def _mk_scmp(name: str, w: int, fn: Callable[[int, int], bool]) -> None:
    t = _ITY[w]
    _register(
        f"{name}{w}S",
        Ty.I1,
        (t, t),
        lambda a, b, w=w, fn=fn: int(fn(sign_extend(w, a), sign_extend(w, b))),
    )


for _w in _INT_WIDTHS:
    _mk_cmp("CmpEQ", _w, lambda a, b: a == b)
    _mk_cmp("CmpNE", _w, lambda a, b: a != b)
    t = _ITY[_w]
    _register(f"CmpLT{_w}U", Ty.I1, (t, t), lambda a, b: int(a < b))
    _register(f"CmpLE{_w}U", Ty.I1, (t, t), lambda a, b: int(a <= b))
    _mk_scmp("CmpLT", _w, lambda a, b: a < b)
    _mk_scmp("CmpLE", _w, lambda a, b: a <= b)
    _register(f"CmpNEZ{_w}", Ty.I1, (t,), lambda a: int(a != 0))
    _register(f"CmpEQZ{_w}", Ty.I1, (t,), lambda a: int(a == 0))


# ---------------------------------------------------------------------------
# Widening, narrowing and half-combining conversions.
# ---------------------------------------------------------------------------

_register("1Uto8", Ty.I8, (Ty.I1,), lambda a: a)
_register("1Uto32", Ty.I32, (Ty.I1,), lambda a: a)
_register("1Uto64", Ty.I64, (Ty.I1,), lambda a: a)
_register("1Sto8", Ty.I8, (Ty.I1,), lambda a: 0xFF if a else 0)
_register("1Sto16", Ty.I16, (Ty.I1,), lambda a: 0xFFFF if a else 0)
_register("1Sto32", Ty.I32, (Ty.I1,), lambda a: 0xFFFFFFFF if a else 0)
_register("1Sto64", Ty.I64, (Ty.I1,), lambda a: 0xFFFFFFFFFFFFFFFF if a else 0)

for _src in (8, 16, 32):
    for _dst in (16, 32, 64):
        if _dst <= _src:
            continue
        st, dt = _ITY[_src], _ITY[_dst]
        _register(f"{_src}Uto{_dst}", dt, (st,), lambda a: a)
        _register(
            f"{_src}Sto{_dst}",
            dt,
            (st,),
            lambda a, s=_src, d=_dst: mask(d, sign_extend(s, a)),
        )

for _src in (16, 32, 64):
    for _dst in (1, 8, 16, 32):
        if _dst >= _src:
            continue
        st, dt = _ITY[_src], _ITY[_dst]
        _register(f"{_src}to{_dst}", dt, (st,), lambda a, d=_dst: mask(d, a))

_register("64HIto32", Ty.I32, (Ty.I64,), lambda a: (a >> 32) & 0xFFFFFFFF)
_register("32HIto16", Ty.I16, (Ty.I32,), lambda a: (a >> 16) & 0xFFFF)
_register("16HIto8", Ty.I8, (Ty.I16,), lambda a: (a >> 8) & 0xFF)
_register("32HLto64", Ty.I64, (Ty.I32, Ty.I32), lambda hi, lo: (hi << 32) | lo)
_register("16HLto32", Ty.I32, (Ty.I16, Ty.I16), lambda hi, lo: (hi << 16) | lo)
_register("8HLto16", Ty.I16, (Ty.I8, Ty.I8), lambda hi, lo: (hi << 8) | lo)


# ---------------------------------------------------------------------------
# Widening multiplies, division and modulus.
# ---------------------------------------------------------------------------


def _sdiv(a: int, b: int) -> int:
    # Round towards zero, as virtually all hardware does.
    if b == 0:
        raise ZeroDivisionError("IR signed division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _smod(a: int, b: int) -> int:
    return a - _sdiv(a, b) * b


for _w in (8, 16, 32):
    _dw = _w * 2
    st, dt = _ITY[_w], _ITY[_dw]
    _register(f"MullU{_w}", dt, (st, st), lambda a, b: a * b)
    _register(
        f"MullS{_w}",
        dt,
        (st, st),
        lambda a, b, w=_w, d=_dw: mask(d, sign_extend(w, a) * sign_extend(w, b)),
    )

for _w in (32, 64):
    t = _ITY[_w]
    _register(f"DivU{_w}", t, (t, t), lambda a, b: a // b if b else _div0())
    _register(
        f"DivS{_w}",
        t,
        (t, t),
        lambda a, b, w=_w: mask(w, _sdiv(sign_extend(w, a), sign_extend(w, b))),
    )
    _register(f"ModU{_w}", t, (t, t), lambda a, b: a % b if b else _div0())
    _register(
        f"ModS{_w}",
        t,
        (t, t),
        lambda a, b, w=_w: mask(w, _smod(sign_extend(w, a), sign_extend(w, b))),
    )


def _div0() -> int:
    raise ZeroDivisionError("IR division by zero")


# ---------------------------------------------------------------------------
# Floating point.  F32/F64 values are Python floats; reinterpret ops move
# their IEEE-754 bit patterns into the integer domain.
# ---------------------------------------------------------------------------

import struct


def _f64_bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _bits_f64(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b & 0xFFFFFFFFFFFFFFFF))[0]


def _f32_bits(v: float) -> int:
    return struct.unpack("<I", struct.pack("<f", v))[0]


def _bits_f32(b: int) -> float:
    return struct.unpack("<f", struct.pack("<I", b & 0xFFFFFFFF))[0]


def _round_f32(v: float) -> float:
    """Round a Python float to F32 precision."""
    try:
        return _bits_f32(_f32_bits(v))
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _fp_add(a: float, b: float) -> float:
    return a + b


def _fp_sub(a: float, b: float) -> float:
    return a - b


def _fp_mul(a: float, b: float) -> float:
    return a * b


def _fp_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf
    return a / b


for _name, _fn in (("Add", _fp_add), ("Sub", _fp_sub), ("Mul", _fp_mul), ("Div", _fp_div)):
    _register(f"{_name}F64", Ty.F64, (Ty.F64, Ty.F64), _fn)
    _register(
        f"{_name}F32", Ty.F32, (Ty.F32, Ty.F32), lambda a, b, fn=_fn: _round_f32(fn(a, b))
    )

_register("NegF64", Ty.F64, (Ty.F64,), lambda a: -a)
_register("NegF32", Ty.F32, (Ty.F32,), lambda a: -a)
_register("AbsF64", Ty.F64, (Ty.F64,), abs)
_register("AbsF32", Ty.F32, (Ty.F32,), abs)
_register("SqrtF64", Ty.F64, (Ty.F64,), lambda a: math.sqrt(a) if a >= 0 else math.nan)
_register(
    "SqrtF32", Ty.F32, (Ty.F32,), lambda a: _round_f32(math.sqrt(a)) if a >= 0 else math.nan
)

# CmpF64 uses Valgrind's IRCmpF64Result encoding: LT=0x01, GT=0x00 is *not*
# the real encoding; Valgrind uses LT=0x01, GT=0x00... we follow the real
# one: 0x00 -> LT, 0x01 -> GT is wrong either way round, so be explicit:
# UN=0x45, EQ=0x40, LT=0x01, GT=0x00.
F64CMP_LT = 0x01
F64CMP_GT = 0x00
F64CMP_EQ = 0x40
F64CMP_UN = 0x45


def _cmp_f64(a: float, b: float) -> int:
    if math.isnan(a) or math.isnan(b):
        return F64CMP_UN
    if a < b:
        return F64CMP_LT
    if a > b:
        return F64CMP_GT
    return F64CMP_EQ


_register("CmpF64", Ty.I32, (Ty.F64, Ty.F64), _cmp_f64)
_register("CmpF32", Ty.I32, (Ty.F32, Ty.F32), _cmp_f64)


def _f_to_i(v: float, w: int, signed: bool) -> int:
    """Convert float to integer with truncation and x86-style saturation."""
    if math.isnan(v):
        return mask(w, 1 << (w - 1)) if signed else 0
    if math.isinf(v):
        if signed:
            return mask(w, (1 << (w - 1)) - 1 if v > 0 else 1 << (w - 1))
        return mask(w, (1 << w) - 1 if v > 0 else 0)
    v = math.trunc(v)
    if signed:
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
    else:
        lo, hi = 0, (1 << w) - 1
    v = max(lo, min(hi, v))
    return mask(w, int(v))


_register("I32StoF64", Ty.F64, (Ty.I32,), lambda a: float(sign_extend(32, a)))
_register("I32UtoF64", Ty.F64, (Ty.I32,), float)
_register("I64StoF64", Ty.F64, (Ty.I64,), lambda a: float(sign_extend(64, a)))
_register("I32StoF32", Ty.F32, (Ty.I32,), lambda a: _round_f32(float(sign_extend(32, a))))
_register("F64toI32S", Ty.I32, (Ty.F64,), lambda a: _f_to_i(a, 32, True))
_register("F64toI32U", Ty.I32, (Ty.F64,), lambda a: _f_to_i(a, 32, False))
_register("F64toI64S", Ty.I64, (Ty.F64,), lambda a: _f_to_i(a, 64, True))
_register("F32toI32S", Ty.I32, (Ty.F32,), lambda a: _f_to_i(a, 32, True))
_register("F32toF64", Ty.F64, (Ty.F32,), lambda a: a)
_register("F64toF32", Ty.F32, (Ty.F64,), _round_f32)
_register("ReinterpF64asI64", Ty.I64, (Ty.F64,), _f64_bits)
_register("ReinterpI64asF64", Ty.F64, (Ty.I64,), _bits_f64)
_register("ReinterpF32asI32", Ty.I32, (Ty.F32,), _f32_bits)
_register("ReinterpI32asF32", Ty.F32, (Ty.I32,), _bits_f32)
_register("MinF64", Ty.F64, (Ty.F64, Ty.F64), min)
_register("MaxF64", Ty.F64, (Ty.F64, Ty.F64), max)


# ---------------------------------------------------------------------------
# 128-bit SIMD.  V128 values are 128-bit unsigned ints; xNxM ops treat them
# as M lanes of N bits each.
# ---------------------------------------------------------------------------


def _lanes(v: int, lane_bits: int) -> list:
    n = 128 // lane_bits
    m = (1 << lane_bits) - 1
    return [(v >> (i * lane_bits)) & m for i in range(n)]


def _from_lanes(lanes: list, lane_bits: int) -> int:
    v = 0
    for i, lane in enumerate(lanes):
        v |= (lane & ((1 << lane_bits) - 1)) << (i * lane_bits)
    return v


def _mk_simd_binop(name: str, lane_bits: int, fn: Callable[[int, int], int]) -> None:
    n = 128 // lane_bits
    _register(
        f"{name}{lane_bits}x{n}",
        Ty.V128,
        (Ty.V128, Ty.V128),
        lambda a, b, lb=lane_bits, fn=fn: _from_lanes(
            [mask(lb, fn(x, y)) for x, y in zip(_lanes(a, lb), _lanes(b, lb))], lb
        ),
    )


def _sat_u(lb: int, v: int) -> int:
    return max(0, min((1 << lb) - 1, v))


def _sat_s(lb: int, v: int) -> int:
    return mask(lb, max(-(1 << (lb - 1)), min((1 << (lb - 1)) - 1, v)))


for _lb in (8, 16, 32, 64):
    _mk_simd_binop("Add", _lb, lambda a, b: a + b)
    _mk_simd_binop("Sub", _lb, lambda a, b: a - b)
    _mk_simd_binop("CmpEQ", _lb, lambda a, b, lb=_lb: (1 << lb) - 1 if a == b else 0)
    n = 128 // _lb
    _register(
        f"CmpGT{_lb}Sx{n}",
        Ty.V128,
        (Ty.V128, Ty.V128),
        lambda a, b, lb=_lb: _from_lanes(
            [
                ((1 << lb) - 1) if sign_extend(lb, x) > sign_extend(lb, y) else 0
                for x, y in zip(_lanes(a, lb), _lanes(b, lb))
            ],
            lb,
        ),
    )

for _lb in (8, 16):
    n = 128 // _lb
    _register(
        f"QAddU{_lb}x{n}",
        Ty.V128,
        (Ty.V128, Ty.V128),
        lambda a, b, lb=_lb: _from_lanes(
            [_sat_u(lb, x + y) for x, y in zip(_lanes(a, lb), _lanes(b, lb))], lb
        ),
    )
    _register(
        f"QSubU{_lb}x{n}",
        Ty.V128,
        (Ty.V128, Ty.V128),
        lambda a, b, lb=_lb: _from_lanes(
            [_sat_u(lb, x - y) for x, y in zip(_lanes(a, lb), _lanes(b, lb))], lb
        ),
    )
    _register(
        f"QAddS{_lb}x{n}",
        Ty.V128,
        (Ty.V128, Ty.V128),
        lambda a, b, lb=_lb: _from_lanes(
            [
                _sat_s(lb, sign_extend(lb, x) + sign_extend(lb, y))
                for x, y in zip(_lanes(a, lb), _lanes(b, lb))
            ],
            lb,
        ),
    )

_mk_simd_binop("Mul", 16, lambda a, b: a * b)
_mk_simd_binop("Mul", 32, lambda a, b: a * b)
_mk_simd_binop("MinU", 8, min)
_mk_simd_binop("MaxU", 8, max)
_mk_simd_binop("Avg", 8, lambda a, b: (a + b + 1) >> 1)

_V128_MASK = (1 << 128) - 1
_register("AndV128", Ty.V128, (Ty.V128, Ty.V128), lambda a, b: a & b)
_register("OrV128", Ty.V128, (Ty.V128, Ty.V128), lambda a, b: a | b)
_register("XorV128", Ty.V128, (Ty.V128, Ty.V128), lambda a, b: a ^ b)
_register("NotV128", Ty.V128, (Ty.V128,), lambda a: (~a) & _V128_MASK)
_register("CmpNEZV128", Ty.I1, (Ty.V128,), lambda a: int(a != 0))

for _lb in (16, 32, 64):
    n = 128 // _lb
    _register(
        f"ShlN{_lb}x{n}",
        Ty.V128,
        (Ty.V128, Ty.I8),
        lambda a, s, lb=_lb: _from_lanes(
            [_shl(x, s, lb) for x in _lanes(a, lb)], lb
        ),
    )
    _register(
        f"ShrN{_lb}x{n}",
        Ty.V128,
        (Ty.V128, Ty.I8),
        lambda a, s, lb=_lb: _from_lanes(
            [_shr(x, s, lb) for x in _lanes(a, lb)], lb
        ),
    )

# Lane broadcast (splat) ops: replicate a scalar into every lane.
_register("Dup8x16", Ty.V128, (Ty.I8,), lambda a: _from_lanes([a] * 16, 8))
_register("Dup16x8", Ty.V128, (Ty.I16,), lambda a: _from_lanes([a] * 8, 16))
_register("Dup32x4", Ty.V128, (Ty.I32,), lambda a: _from_lanes([a] * 4, 32))

_register("64HLtoV128", Ty.V128, (Ty.I64, Ty.I64), lambda hi, lo: (hi << 64) | lo)
_register("V128HIto64", Ty.I64, (Ty.V128,), lambda a: (a >> 64) & 0xFFFFFFFFFFFFFFFF)
_register("V128to64", Ty.I64, (Ty.V128,), lambda a: a & 0xFFFFFFFFFFFFFFFF)
_register("32UtoV128", Ty.V128, (Ty.I32,), lambda a: a)
_register("64UtoV128", Ty.V128, (Ty.I64,), lambda a: a)
_register("V128to32", Ty.I32, (Ty.V128,), lambda a: a & 0xFFFFFFFF)
_register(
    "InterleaveLO8x16",
    Ty.V128,
    (Ty.V128, Ty.V128),
    lambda a, b: _from_lanes(
        [x for pair in zip(_lanes(b, 8)[:8], _lanes(a, 8)[:8]) for x in pair], 8
    ),
)
_register(
    "InterleaveHI8x16",
    Ty.V128,
    (Ty.V128, Ty.V128),
    lambda a, b: _from_lanes(
        [x for pair in zip(_lanes(b, 8)[8:], _lanes(a, 8)[8:]) for x in pair], 8
    ),
)

# Rotates, occasionally useful for crypto-ish workloads.
for _w in (32, 64):
    t = _ITY[_w]
    _register(
        f"Rol{_w}",
        t,
        (t, Ty.I8),
        lambda a, s, w=_w: mask(w, (a << (s % w)) | (a >> (w - s % w))) if s % w else a,
    )
    _register(
        f"Ror{_w}",
        t,
        (t, Ty.I8),
        lambda a, s, w=_w: mask(w, (a >> (s % w)) | (a << (w - s % w))) if s % w else a,
    )


#: Number of primitive ops — the paper notes "more than 200" are needed.
NUM_OPS = len(OPS)
