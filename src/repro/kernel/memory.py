"""Paged guest memory with permissions.

This is the simulated user-mode address space: a sparse collection of 4KB
pages, each with read/write/execute permission bits.  Accesses that touch
unmapped pages or violate permissions raise :class:`GuestFault`, which the
execution machinery turns into a guest SIGSEGV.

All multi-byte accesses are little-endian, matching the IR's LDle/STle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.types import Ty
from ..ir.values import from_bytes, to_bytes

PAGE_SIZE = 4096
PAGE_SHIFT = 12

PROT_READ = 4
PROT_WRITE = 2
PROT_EXEC = 1
PROT_NONE = 0
PROT_RW = PROT_READ | PROT_WRITE
PROT_RX = PROT_READ | PROT_EXEC
PROT_RWX = PROT_READ | PROT_WRITE | PROT_EXEC


def prot_from_str(perms: str) -> int:
    prot = 0
    if "r" in perms:
        prot |= PROT_READ
    if "w" in perms:
        prot |= PROT_WRITE
    if "x" in perms:
        prot |= PROT_EXEC
    return prot


class GuestFault(Exception):
    """A memory access fault (unmapped address or permission violation)."""

    def __init__(self, addr: int, size: int, access: str, reason: str):
        super().__init__(f"{access} of {size} byte(s) at {addr:#x}: {reason}")
        self.addr = addr
        self.size = size
        self.access = access  # "read" | "write" | "exec"
        self.reason = reason


class GuestMemory:
    """The sparse, paged guest address space."""

    def __init__(self) -> None:
        # page number -> (bytearray, prot)
        self._pages: Dict[int, Tuple[bytearray, int]] = {}
        #: Pages known to contain decoded/cached instructions.  Guest
        #: stores into these pages invoke the coherence hooks, so CPUs can
        #: flush their instruction caches (x86-style icache coherence).
        self.code_pages: set = set()
        self.code_write_hooks: List = []

    def _note_code_write(self, addr: int, size: int) -> None:
        for hook in self.code_write_hooks:
            hook(addr, size)

    # -- mapping management ----------------------------------------------------

    def map(self, addr: int, size: int, prot: int) -> None:
        """Map (and zero) pages covering [addr, addr+size)."""
        if size <= 0:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for pn in range(first, last + 1):
            if pn in self._pages:
                # Remapping an existing page resets permissions but, like
                # MAP_FIXED over an existing mapping, zeroes its contents.
                self._pages[pn] = (bytearray(PAGE_SIZE), prot)
            else:
                self._pages[pn] = (bytearray(PAGE_SIZE), prot)

    def unmap(self, addr: int, size: int) -> None:
        if size <= 0:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for pn in range(first, last + 1):
            self._pages.pop(pn, None)

    def protect(self, addr: int, size: int, prot: int) -> None:
        if size <= 0:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for pn in range(first, last + 1):
            page = self._pages.get(pn)
            if page is None:
                raise GuestFault(pn << PAGE_SHIFT, PAGE_SIZE, "protect", "unmapped")
            self._pages[pn] = (page[0], prot)

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        if size <= 0:
            return True
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        return all(pn in self._pages for pn in range(first, last + 1))

    def prot_at(self, addr: int) -> Optional[int]:
        page = self._pages.get(addr >> PAGE_SHIFT)
        return None if page is None else page[1]

    def mapped_ranges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (start, size, prot) for maximal mapped runs."""
        pns = sorted(self._pages)
        i = 0
        while i < len(pns):
            start = pns[i]
            prot = self._pages[start][1]
            j = i
            while (
                j + 1 < len(pns)
                and pns[j + 1] == pns[j] + 1
                and self._pages[pns[j + 1]][1] == prot
            ):
                j += 1
            yield start << PAGE_SHIFT, (j - i + 1) << PAGE_SHIFT, prot
            i = j + 1

    def pages(self) -> Iterator[Tuple[int, bytearray, int]]:
        """Yield ``(page number, contents, prot)`` for every mapped page,
        in address order.  *contents* is the live page buffer, handed out
        without a permission check (like :meth:`read_raw`) for whole-page
        scans; callers must not write through it."""
        pages = self._pages
        for pn in sorted(pages):
            data, prot = pages[pn]
            yield pn, data, prot

    # -- raw access (no permission checks; used by the loader and kernel) ------

    def write_raw(self, addr: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            pn = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            page = self._pages.get(pn)
            if page is None:
                raise GuestFault(addr + pos, len(data) - pos, "write", "unmapped")
            n = min(PAGE_SIZE - off, len(data) - pos)
            page[0][off : off + n] = data[pos : pos + n]
            pos += n

    def read_raw(self, addr: int, size: int) -> bytes:
        out = bytearray()
        pos = 0
        while pos < size:
            pn = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            page = self._pages.get(pn)
            if page is None:
                raise GuestFault(addr + pos, size - pos, "read", "unmapped")
            n = min(PAGE_SIZE - off, size - pos)
            out += page[0][off : off + n]
            pos += n
        return bytes(out)

    # -- checked access ----------------------------------------------------------

    def _page_for(self, addr: int, size: int, need: int, access: str):
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            raise GuestFault(addr, size, access, "unmapped")
        if (page[1] & need) != need:
            raise GuestFault(addr, size, access, "permission denied")
        return page[0]

    def read(self, addr: int, size: int) -> bytes:
        """Permission-checked read of *size* bytes."""
        addr &= 0xFFFFFFFF
        off = addr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            page = self._page_for(addr, size, PROT_READ, "read")
            return bytes(page[off : off + size])
        # Slow path: crosses pages.
        out = bytearray()
        pos = 0
        while pos < size:
            a = addr + pos
            o = a & (PAGE_SIZE - 1)
            page = self._page_for(a, size - pos, PROT_READ, "read")
            n = min(PAGE_SIZE - o, size - pos)
            out += page[o : o + n]
            pos += n
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Permission-checked write."""
        addr &= 0xFFFFFFFF
        size = len(data)
        off = addr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            page = self._page_for(addr, size, PROT_WRITE, "write")
            page[off : off + size] = data
            if self.code_pages and (addr >> PAGE_SHIFT) in self.code_pages:
                self._note_code_write(addr, size)
            return
        pos = 0
        while pos < size:
            a = addr + pos
            o = a & (PAGE_SIZE - 1)
            page = self._page_for(a, size - pos, PROT_WRITE, "write")
            n = min(PAGE_SIZE - o, size - pos)
            page[o : o + n] = data[pos : pos + n]
            if self.code_pages and (a >> PAGE_SHIFT) in self.code_pages:
                self._note_code_write(a, n)
            pos += n

    def fetch(self, addr: int, size: int) -> bytes:
        """Execute-permission-checked read (instruction fetch)."""
        addr &= 0xFFFFFFFF
        off = addr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            page = self._page_for(addr, size, PROT_EXEC, "exec")
            return bytes(page[off : off + size])
        out = bytearray()
        pos = 0
        while pos < size:
            a = addr + pos
            o = a & (PAGE_SIZE - 1)
            page = self._page_for(a, size - pos, PROT_EXEC, "exec")
            n = min(PAGE_SIZE - o, size - pos)
            out += page[o : o + n]
            pos += n
        return bytes(out)

    # -- typed access, for the IR execution paths ---------------------------------

    def load(self, addr: int, ty: Ty) -> object:
        return from_bytes(ty, self.read(addr, ty.size))

    def store(self, addr: int, ty: Ty, value: object) -> None:
        self.write(addr, to_bytes(ty, value))

    def load32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def store32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (used by syscalls and wrappers)."""
        out = bytearray()
        while len(out) < limit:
            b = self.read(addr + len(out), 1)[0]
            if b == 0:
                return bytes(out)
            out.append(b)
        raise GuestFault(addr, limit, "read", "unterminated string")
