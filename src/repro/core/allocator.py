"""The core's own internal memory allocator (Section 3.3).

One of the first subsystems initialised at start-up.  The core must never
use the client's allocator (that would perturb the client and deadlock
tools that wrap malloc), so it manages its own arena inside the reserved
core address region at 0x38000000 — the same region the core executable
notionally loads at.  Tools use it for guest-visible scratch storage.
"""

from __future__ import annotations

from typing import Dict, List

from ..kernel.memory import GuestMemory, PAGE_SIZE, PROT_RW

#: The core's reserved region (the non-standard load address of Section
#: 3.3; client mmap/brk are pre-checked against it).
CORE_REGION_BASE = 0x3800_0000
CORE_REGION_SIZE = 0x0100_0000
CORE_REGION_END = CORE_REGION_BASE + CORE_REGION_SIZE

_ALIGN = 16


class CoreArenaError(Exception):
    pass


class CoreAllocator:
    """A simple segregated free-list arena over the reserved core region."""

    def __init__(self, memory: GuestMemory, base: int = CORE_REGION_BASE + 0x10000,
                 limit: int = CORE_REGION_END):
        self._mem = memory
        self._base = base
        self._limit = limit
        self._mapped_to = base
        self._cursor = base
        self._free: Dict[int, List[int]] = {}
        self._sizes: Dict[int, int] = {}
        self.bytes_allocated = 0

    def _ensure_mapped(self, upto: int) -> None:
        if upto <= self._mapped_to:
            return
        new_top = (upto + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        if new_top > self._limit:
            raise CoreArenaError("core arena exhausted")
        self._mem.map(self._mapped_to, new_top - self._mapped_to, PROT_RW)
        self._mapped_to = new_top

    def alloc(self, size: int) -> int:
        """Allocate *size* bytes of zeroed guest memory; returns the address."""
        if size <= 0:
            raise CoreArenaError(f"bad allocation size {size}")
        rs = (size + _ALIGN - 1) & ~(_ALIGN - 1)
        bucket = self._free.get(rs)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self._cursor
            self._ensure_mapped(addr + rs)
            self._cursor += rs
        self._sizes[addr] = rs
        self.bytes_allocated += rs
        self._mem.write_raw(addr, b"\0" * rs)
        return addr

    def free(self, addr: int) -> None:
        rs = self._sizes.pop(addr, None)
        if rs is None:
            raise CoreArenaError(f"core free of unallocated address {addr:#x}")
        self.bytes_allocated -= rs
        self._free.setdefault(rs, []).append(addr)

    def alloc_bytes(self, data: bytes) -> int:
        """Allocate and initialise a buffer; handy for strings."""
        addr = self.alloc(max(1, len(data)))
        self._mem.write_raw(addr, data)
        return addr
