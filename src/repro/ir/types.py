"""IR value types.

The IR is typed: every temporary, expression and operation has a type drawn
from a small fixed set, mirroring Valgrind's ``IRType``.  Integer values are
represented as non-negative Python ints masked to their width, floats as
Python floats, and V128 values as 128-bit non-negative Python ints.
"""

from __future__ import annotations

import enum


#: Width in bits of each type, by member value.
_BITS = {"I1": 1, "I8": 8, "I16": 16, "I32": 32, "I64": 64,
         "F32": 32, "F64": 64, "V128": 128}


class Ty(enum.Enum):
    """An IR value type.

    ``bits``, ``size``, ``is_int`` and ``is_float`` are plain member
    attributes, set once per member: the pipeline reads them on every
    expression, and a property would look the member up through the
    Python-level ``Enum.__hash__`` each time.
    """

    I1 = "I1"
    I8 = "I8"
    I16 = "I16"
    I32 = "I32"
    I64 = "I64"
    F32 = "F32"
    F64 = "F64"
    V128 = "V128"

    def __init__(self, value: str) -> None:
        #: Width of the type in bits.
        self.bits: int = _BITS[value]
        #: Size of the type in bytes (I1 occupies one byte when stored).
        self.size: int = max(1, self.bits // 8)
        self.is_float: bool = value in ("F32", "F64")
        self.is_int: bool = not self.is_float

    def __repr__(self) -> str:
        return f"Ty.{self.name}"

    @property
    def mask(self) -> int:
        """All-ones bitmask for integer/vector types."""
        if self.is_float:
            raise ValueError(f"{self} has no integer mask")
        return (1 << self.bits) - 1


#: Integer types ordered by width, handy for tests and generators.
INT_TYPES = (Ty.I1, Ty.I8, Ty.I16, Ty.I32, Ty.I64)

#: All IR types.
ALL_TYPES = tuple(Ty)


def mask(bits: int, value: int) -> int:
    """Truncate *value* to an unsigned *bits*-wide integer."""
    return value & ((1 << bits) - 1)


def sign_extend(bits: int, value: int) -> int:
    """Interpret the low *bits* of *value* as a signed two's-complement int."""
    value = mask(bits, value)
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def fits(ty: Ty, value: object) -> bool:
    """Return True if *value* is a well-formed constant of type *ty*."""
    if ty.is_float:
        return isinstance(value, float)
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    return 0 <= value <= ty.mask
