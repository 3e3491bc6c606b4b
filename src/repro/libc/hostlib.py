"""Host-implemented libc functions (the `lcall` targets).

These run outside guest code — like the allocator Valgrind's own
``replacemalloc`` machinery provides — but operate entirely on *guest*
memory and registers through a small machine interface, and obtain memory
with real ``brk`` syscalls routed through the engine (so, under the DBI
core, the R6 allocation events fire exactly as the paper describes).

Tools intercept these functions with the core's function-replacement
mechanism (R8): Memcheck, for example, wraps ``malloc``/``free`` to add
red zones and shadow-state updates.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Protocol

from ..kernel.kernel import SYS_BRK
from .stubs import LIBC_HOST_FUNCS

M32 = 0xFFFFFFFF

#: Heap block header: payload size (4 bytes) then a magic word.
HDR_SIZE = 8
MAGIC_INUSE = 0xA110C8ED
MAGIC_FREE = 0xF4EEB10C
#: Payload alignment and size granularity.
ALIGN = 16
#: How much the allocator grows the arena by at a time.
ARENA_CHUNK = 64 * 1024

#: A guest page the loader maps for host-libc bounce buffers (I/O
#: formatting); announced as startup memory so shadow-value tools treat it
#: as initialised.
SCRATCH_ADDR = 0x0000_E000
SCRATCH_SIZE = 0x1000


class Machine(Protocol):
    """What a host libc function may touch."""

    @property
    def mem(self): ...

    def reg(self, i: int) -> int: ...

    def set_reg(self, i: int, value: int) -> None: ...

    def syscall(self, num: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int: ...

    @property
    def tid(self) -> int: ...


def _arg(m: Machine, i: int) -> int:
    """Read the i-th (0-based) stack argument; sp points at the return
    address when an lcall stub body runs."""
    sp = m.reg(4)
    return int.from_bytes(m.mem.read(sp + 4 + 4 * i, 4), "little")


class HeapAllocator:
    """A first-fit, size-class free-list allocator over the guest brk heap.

    Headers live in guest memory ("book-keeping data attached... which the
    client program should not access" — requirement R8); the free lists
    are host-side for simplicity.  Blocks are not coalesced.
    """

    def __init__(self) -> None:
        self.arena_cur = 0
        self.arena_end = 0
        self.free_lists: Dict[int, List[int]] = {}
        # statistics (Massif and the tests use these)
        self.n_mallocs = 0
        self.n_frees = 0
        self.bytes_live = 0

    @staticmethod
    def _round(n: int) -> int:
        return max(ALIGN, (n + ALIGN - 1) & ~(ALIGN - 1))

    def _grow(self, m: Machine, need: int) -> bool:
        want = max(ARENA_CHUNK, need + HDR_SIZE)
        if self.arena_end == 0:
            self.arena_cur = self.arena_end = m.syscall(SYS_BRK, 0)
        new_end = m.syscall(SYS_BRK, self.arena_end + want)
        if new_end < self.arena_end + need + HDR_SIZE:
            return False
        self.arena_end = new_end
        return True

    def malloc(self, m: Machine, size: int) -> int:
        if size == 0 or size > 0x10000000:
            return 0
        rs = self._round(size)
        bucket = self.free_lists.get(rs)
        if bucket:
            block = bucket.pop()
        else:
            if self.arena_end - self.arena_cur < rs + HDR_SIZE:
                if not self._grow(m, rs):
                    return 0
            block = self.arena_cur
            self.arena_cur += HDR_SIZE + rs
        m.mem.write_raw(block, struct.pack("<II", rs, MAGIC_INUSE))
        self.n_mallocs += 1
        self.bytes_live += rs
        return block + HDR_SIZE

    def free(self, m: Machine, payload: int) -> bool:
        """Returns False on an invalid free (tools report these)."""
        if payload == 0:
            return True
        block = (payload - HDR_SIZE) & M32
        try:
            rs, magic = struct.unpack("<II", m.mem.read_raw(block, HDR_SIZE))
        except Exception:
            return False
        if magic != MAGIC_INUSE:
            return False
        m.mem.write_raw(block + 4, struct.pack("<I", MAGIC_FREE))
        self.free_lists.setdefault(rs, []).append(block)
        self.n_frees += 1
        self.bytes_live -= rs
        return True

    def usable_size(self, m: Machine, payload: int) -> Optional[int]:
        if payload == 0:
            return None
        try:
            rs, magic = struct.unpack(
                "<II", m.mem.read_raw((payload - HDR_SIZE) & M32, HDR_SIZE)
            )
        except Exception:
            return None
        return rs if magic == MAGIC_INUSE else None


class LibC:
    """The host half of the guest's C library."""

    def __init__(self) -> None:
        self.heap = HeapAllocator()
        self._rand_state = 0x1234_5678
        self._table: List[Callable[[Machine], Optional[int]]] = [
            getattr(self, f"_do_{name}") for name in LIBC_HOST_FUNCS
        ]

    # -- dispatch -----------------------------------------------------------------

    def call(self, index: int, m: Machine) -> None:
        """Invoke host function *index*; stores the result in r0."""
        try:
            fn = self._table[index]
        except IndexError:
            raise ValueError(f"bad lcall index {index}") from None
        ret = fn(m)
        if ret is not None:
            m.set_reg(0, ret & M32)

    # -- allocator entry points (the functions tools wrap) ---------------------------

    def _do_malloc(self, m: Machine) -> int:
        return self.heap.malloc(m, _arg(m, 0))

    def _do_free(self, m: Machine) -> int:
        self.heap.free(m, _arg(m, 0))
        return 0

    def _do_calloc(self, m: Machine) -> int:
        n, sz = _arg(m, 0), _arg(m, 1)
        total = n * sz
        p = self.heap.malloc(m, total)
        if p:
            m.mem.write_raw(p, b"\0" * total)
        return p

    def _do_realloc(self, m: Machine) -> int:
        p, size = _arg(m, 0), _arg(m, 1)
        if p == 0:
            return self.heap.malloc(m, size)
        if size == 0:
            self.heap.free(m, p)
            return 0
        old = self.heap.usable_size(m, p)
        if old is None:
            return 0
        if size <= old:
            return p
        newp = self.heap.malloc(m, size)
        if newp:
            m.mem.write_raw(newp, m.mem.read_raw(p, old))
            self.heap.free(m, p)
        return newp

    # -- I/O ---------------------------------------------------------------------------

    def _write_bytes(self, m: Machine, data: bytes) -> None:
        """Write to stdout via the guest scratch page + write syscall, so
        the bytes flow through the normal syscall (and event) path."""
        from ..kernel.kernel import SYS_WRITE

        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + SCRATCH_SIZE]
            m.mem.write_raw(SCRATCH_ADDR, chunk)
            m.syscall(SYS_WRITE, 1, SCRATCH_ADDR, len(chunk))
            pos += len(chunk)

    def _do_puts(self, m: Machine) -> int:
        s = m.mem.read_cstring(_arg(m, 0))
        self._write_bytes(m, s + b"\n")
        return len(s) + 1

    def _do_putint(self, m: Machine) -> int:
        v = _arg(m, 0)
        if v & 0x8000_0000:
            v -= 1 << 32
        self._write_bytes(m, str(v).encode() + b"\n")
        return 0

    def _do_putuint(self, m: Machine) -> int:
        self._write_bytes(m, str(_arg(m, 0)).encode() + b"\n")
        return 0

    def _do_putfloat(self, m: Machine) -> int:
        raw = m.mem.read(_arg(m, 0), 8)
        (v,) = struct.unpack("<d", raw)
        self._write_bytes(m, f"{v:.6g}\n".encode())
        return 0

    def _do_printf(self, m: Machine) -> int:
        """A printf subset: %d %u %x %s %c %% with up to five varargs."""
        fmt = m.mem.read_cstring(_arg(m, 0)).decode(errors="replace")
        out = []
        argi = 1
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            i += 1
            spec = fmt[i] if i < len(fmt) else "%"
            i += 1
            if spec == "%":
                out.append("%")
                continue
            v = _arg(m, argi)
            argi += 1
            if spec == "d":
                out.append(str(v - (1 << 32) if v & 0x8000_0000 else v))
            elif spec == "u":
                out.append(str(v))
            elif spec == "x":
                out.append(f"{v:x}")
            elif spec == "c":
                out.append(chr(v & 0xFF))
            elif spec == "s":
                out.append(m.mem.read_cstring(v).decode(errors="replace"))
            else:
                out.append("%" + spec)
        data = "".join(out).encode()
        self._write_bytes(m, data)
        return len(data)

    # -- process ------------------------------------------------------------------------

    def _do_exit(self, m: Machine) -> Optional[int]:
        from ..kernel.kernel import SYS_EXIT

        m.syscall(SYS_EXIT, _arg(m, 0))
        return None  # unreachable

    def _do_abort(self, m: Machine) -> Optional[int]:
        from ..kernel.kernel import SIGILL, SYS_KILL

        m.syscall(SYS_KILL, m.tid, SIGILL)
        return 0

    # -- misc ---------------------------------------------------------------------------

    def _do_rand(self, m: Machine) -> int:
        # Numerical Recipes LCG; deterministic across runs and engines.
        self._rand_state = (self._rand_state * 1664525 + 1013904223) & M32
        return self._rand_state >> 1

    def _do_srand(self, m: Machine) -> int:
        self._rand_state = _arg(m, 0) or 1
        return 0

    def _do_atoi(self, m: Machine) -> int:
        s = m.mem.read_cstring(_arg(m, 0)).decode(errors="replace").strip()
        neg = s.startswith("-")
        if neg or s.startswith("+"):
            s = s[1:]
        v = 0
        for ch in s:
            if not ch.isdigit():
                break
            v = v * 10 + ord(ch) - 48
        return (-v if neg else v) & M32
