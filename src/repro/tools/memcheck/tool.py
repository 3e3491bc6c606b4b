"""The Memcheck tool plug-in.

Tracks, for every bit in the system, whether it holds a defined value
(V bits), and for every byte of memory, whether it may be accessed at all
(A bits).  Reports:

* reads/writes of unaddressable memory (``InvalidRead``/``InvalidWrite``),
* dangerous *uses* of undefined values — as branch conditions, memory
  addresses, jump targets (``UninitCondition``/``UninitValue``),
* undefined or unaddressable system-call parameters (``SyscallParam``),
* invalid and double frees (``InvalidFree``),
* memory leaks at exit (``Leak``), via a reachability scan.

Heap blocks get red zones and freed blocks are quarantined, both by
replacing the allocator through the core's function-replacement
mechanism (requirement R8).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ...core.tool import Tool
from ...guest.regs import SHADOW_OFFSET
from ...ir.block import IRSB
from ...kernel.memory import PROT_READ, GuestFault
from .instrument import LOADV, MemcheckInstrumenter, STOREV, VALUE_CHECK
from .shadow import PAGE_SHIFT, PAGE_SIZE, ShadowMemory

_PMASK = PAGE_SIZE - 1
M32 = 0xFFFFFFFF

#: Leak-scan page helpers: an all-zero page holds no heap pointer, and
#: the byte offsets of a page's aligned words.
_ZERO_PAGE = bytes(PAGE_SIZE)
_WORD_OFFSETS = range(0, PAGE_SIZE, 4)
_BIG_ENDIAN = sys.byteorder == "big"


def _words(buf) -> array:
    """Decode *buf* (bytes or bytearray) as little-endian u32 words."""
    words = array("I", buf)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


#: Memcheck's client-request range ('MC' << 16).
MC_BASE = 0x4D43_0000
MC_MAKE_MEM_NOACCESS = MC_BASE + 0
MC_MAKE_MEM_UNDEFINED = MC_BASE + 1
MC_MAKE_MEM_DEFINED = MC_BASE + 2
MC_CHECK_MEM_IS_ADDRESSABLE = MC_BASE + 3
MC_CHECK_MEM_IS_DEFINED = MC_BASE + 4
MC_DO_LEAK_CHECK = MC_BASE + 5
MC_COUNT_ERRORS = MC_BASE + 6

#: Red-zone size around heap blocks.
REDZONE = 16
#: How many freed blocks stay quarantined (unaddressable) to catch
#: use-after-free.
FREED_QUEUE_LEN = 64


@dataclass
class HeapBlock:
    payload: int
    size: int
    alloc_stack: Tuple[int, ...]


class Memcheck(Tool):
    """A memory error detector (the paper's flagship heavyweight tool)."""

    name = "memcheck"
    description = "detects undefined-value and memory-addressability errors"

    def __init__(self) -> None:
        super().__init__()
        self.shadow = ShadowMemory()
        self.blocks: Dict[int, HeapBlock] = {}
        self.freed: List[Tuple[int, int, Tuple[int, ...]]] = []
        self.leak_check_at_exit = "summary"  # no | summary | full
        self.instrumenter = MemcheckInstrumenter()
        self.total_allocated = 0
        self.n_allocs = 0
        self.n_frees = 0
        self._leak_result: Optional[dict] = None

    # -- lifecycle --------------------------------------------------------------------

    def pre_clo_init(self, core) -> None:
        super().pre_clo_init(core)
        ev = core.events
        # Table 1's right-hand column, callback for callback.
        ev.track_pre_reg_read(self.check_reg_is_defined)
        ev.track_post_reg_write(self.make_reg_defined)
        ev.track_pre_mem_read(self.check_mem_is_defined)
        ev.track_pre_mem_read_asciiz(self.check_mem_is_defined_asciiz)
        ev.track_pre_mem_write(self.check_mem_is_addressable)
        ev.track_post_mem_write(self.make_mem_defined_w)
        ev.track_new_mem_startup(self.make_mem_defined_startup)
        ev.track_new_mem_mmap(self.make_mem_defined_startup)
        ev.track_die_mem_munmap(self.make_mem_noaccess)
        ev.track_new_mem_brk(self.make_mem_undefined_brk)
        ev.track_die_mem_brk(self.make_mem_noaccess)
        ev.track_copy_mem_mremap(self.copy_range)
        ev.track_new_mem_stack(self.make_mem_undefined)
        ev.track_die_mem_stack(self.make_mem_noaccess)

        for size, name in LOADV.items():
            core.helpers.register_dirty(name, self._mk_loadv(size))
        for size, name in STOREV.items():
            core.helpers.register_dirty(name, self._mk_storev(size))
        for size, name in VALUE_CHECK.items():
            core.helpers.register_dirty(name, self._mk_value_check(size))

        core.redirector.replace_libc("malloc", self._repl_malloc)
        core.redirector.replace_libc("free", self._repl_free)
        core.redirector.replace_libc("calloc", self._repl_calloc)
        core.redirector.replace_libc("realloc", self._repl_realloc)

    def process_cmd_line_option(self, option: str) -> bool:
        name, _, value = option[2:].partition("=")
        if name == "leak-check":
            if value not in ("no", "summary", "full"):
                return False
            self.leak_check_at_exit = value
            return True
        if name == "undef-value-errors":
            self.instrumenter.check_values = value != "no"
            return True
        return False

    def instrument(self, sb: IRSB) -> IRSB:
        return self.instrumenter.instrument(sb)

    def shadow_fastpath_maps(self):
        """Expose the shadow page maps for pygen's inlined LOADV/STOREV
        fast paths (backend.pygen).  The accessors are bound to dicts
        whose identity is stable for the run, so emitted code can close
        over them once."""
        return self.shadow.fast_rd_get, self.shadow.fast_wr_get

    def stats_dict(self):
        """The ``memcheck_shadow`` section of ``--stats=json``.

        Page-state counters depend only on the make/store sequence, so
        they are byte-identical with the fast paths on or off and across
        codegen tiers; the ``fastpath`` sub-dict counts fast/slow hits
        from the emitted code and is by nature emission-dependent
        (differential tests compare the section without it).
        """
        section = self.shadow.stats_dict()
        sched = self.core.scheduler if self.core is not None else None
        c = sched.hostcpu.shadow_counters if sched is not None \
            else [0, 0, 0, 0]
        enabled = int(bool(sched is not None
                           and sched.hostcpu.shadow_fastpath))
        section["fastpath"] = {
            "enabled": enabled,
            "fast_loads": c[0],
            "fast_stores": c[1],
            "slow_loads": c[2],
            "slow_stores": c[3],
        }
        return {"memcheck_shadow": section}

    def fini(self, exit_code: int) -> None:
        mgr = self.core.error_mgr
        if self.leak_check_at_exit != "no":
            self.leak_check(full=self.leak_check_at_exit == "full")
        self.core.log(
            f"memcheck: heap usage: {self.n_allocs} allocs, {self.n_frees} frees, "
            f"{self.total_allocated} bytes allocated"
        )
        mgr.summarise()

    # -- IR helpers ---------------------------------------------------------------------

    def _mk_loadv(self, size: int):
        # The helpers carry the same shadow-page fast path the pygen
        # tier inlines (backend.pygen): probe the read map for the
        # (abits, vbits) secondary, check the range's A bits, slice the
        # V bytes.  Any unaddressable byte or page-crossing access takes
        # the general check-and-report path below.
        shadow = self.shadow
        rd_get = shadow.fast_rd_get
        last = PAGE_SIZE - size

        def loadv(env, addr: int) -> int:
            a = addr & 0xFFFFFFFF
            o = a & _PMASK
            if o <= last:
                sp = rd_get(a >> PAGE_SHIFT)
                if sp is not None and 0 not in sp[0][o : o + size]:
                    return int.from_bytes(sp[1][o : o + size], "little")
            bad = shadow.check_addressable(addr, size)
            if bad is not None:
                self._report_access_error("InvalidRead", addr, size, bad, env)
            return shadow.load_vbits(addr, size)

        return loadv

    def _mk_storev(self, size: int):
        # Write fast path: the write map holds only private secondaries,
        # so the slice assignment can never touch a shared distinguished
        # page — marker shortcuts and copy-on-write promotion stay in
        # store_vbits, keeping page-state statistics identical.
        shadow = self.shadow
        wr_get = shadow.fast_wr_get
        last = PAGE_SIZE - size

        def storev(env, addr: int, vbits: int) -> int:
            a = addr & 0xFFFFFFFF
            o = a & _PMASK
            if o <= last:
                sp = wr_get(a >> PAGE_SHIFT)
                if sp is not None and 0 not in sp[0][o : o + size]:
                    sp[1][o : o + size] = vbits.to_bytes(size, "little")
                    return 0
            bad = shadow.check_addressable(addr, size)
            if bad is not None:
                self._report_access_error("InvalidWrite", addr, size, bad, env)
            shadow.store_vbits(addr, size, vbits)
            return 0

        return storev

    def _mk_value_check(self, size: int):
        def check_fail(env) -> int:
            if size == 0:
                msg = "Conditional jump or move depends on uninitialised value(s)"
            else:
                msg = f"Use of uninitialised value of size {size}"
            self.core.record_error("UninitValue" if size else "UninitCondition", msg)
            return 0

        return check_fail

    def _report_access_error(
        self, kind: str, addr: int, size: int, bad: int, env
    ) -> None:
        verb = "read" if kind == "InvalidRead" else "write"
        msg = f"Invalid {verb} of size {size} at address {addr:#x}"
        extra = self._describe_addr(bad)
        if extra:
            msg += f" ({extra})"
        self.core.record_error(kind, msg, addr=addr)

    def _describe_addr(self, addr: int) -> str:
        """Relate a bad address to a heap block, like real Memcheck does."""
        for payload, size, _stack in reversed(self.freed):
            if payload - REDZONE <= addr < payload + size + REDZONE:
                return f"{addr - payload} bytes inside a freed block of size {size}"
        for block in self.blocks.values():
            if block.payload - REDZONE <= addr < block.payload:
                return f"{block.payload - addr} bytes before a block of size {block.size}"
            if block.payload + block.size <= addr < block.payload + block.size + REDZONE:
                return (
                    f"{addr - (block.payload + block.size)} bytes after a block "
                    f"of size {block.size}"
                )
        return ""

    # -- event callbacks (Table 1 right-hand column) ------------------------------------------

    def _ts(self, tid: int):
        return self.core.scheduler.threads[tid]

    def check_reg_is_defined(self, tid: int, offset: int, size: int, name: str):
        ts = self._ts(tid)
        v = ts.get_bytes(offset + SHADOW_OFFSET, size)
        if any(v):
            self.core.record_error(
                "SyscallParam",
                f"Syscall param {name} contains uninitialised byte(s)",
            )

    def make_reg_defined(self, tid: int, offset: int, size: int, name: str):
        self._ts(tid).put_bytes(offset + SHADOW_OFFSET, b"\0" * size)

    def check_mem_is_defined(self, tid: int, addr: int, size: int, name: str):
        if size == 0:
            return
        bad = self.shadow.check_addressable(addr, size)
        if bad is not None:
            self.core.record_error(
                "SyscallParam",
                f"Syscall param {name} points to unaddressable byte(s)",
                addr=bad,
            )
            return
        first = self.shadow.first_undefined(addr, size)
        if first is not None:
            self.core.record_error(
                "SyscallParam",
                f"Syscall param {name} points to uninitialised byte(s)",
                addr=first,
            )

    def check_mem_is_defined_asciiz(self, tid: int, addr: int, name: str):
        a = addr
        for _ in range(1 << 16):
            if self.shadow.get_abit(a) == 0:
                self.core.record_error(
                    "SyscallParam",
                    f"Syscall param {name} points to unaddressable byte(s)",
                    addr=a,
                )
                return
            if self.shadow.get_vbyte(a) != 0:
                self.core.record_error(
                    "SyscallParam",
                    f"Syscall param {name} points to uninitialised byte(s)",
                    addr=a,
                )
                return
            try:
                if self.core.memory.read(a, 1) == b"\0":
                    return
            except GuestFault:
                return
            a += 1

    def check_mem_is_addressable(self, tid: int, addr: int, size: int, name: str):
        if size == 0:
            return
        bad = self.shadow.check_addressable(addr, size)
        if bad is not None:
            self.core.record_error(
                "SyscallParam",
                f"Syscall param {name} points to unaddressable byte(s)",
                addr=bad,
            )

    def make_mem_defined_w(self, tid: int, addr: int, size: int, name: str):
        self.shadow.make_defined(addr, size)

    def make_mem_defined_startup(self, addr: int, size: int, r, w, x):
        self.shadow.make_defined(addr, size)

    def make_mem_undefined_brk(self, addr: int, size: int, tid: int):
        self.shadow.make_undefined(addr, size)

    def make_mem_undefined(self, addr: int, size: int):
        self.shadow.make_undefined(addr, size)

    def make_mem_noaccess(self, addr: int, size: int):
        self.shadow.make_noaccess(addr, size)

    def copy_range(self, src: int, dst: int, size: int):
        self.shadow.copy_range(src, dst, size)

    # -- heap replacement (R8) -------------------------------------------------------------------

    def _alloc_stack(self) -> Tuple[int, ...]:
        return tuple(self.core.stack_trace_pcs(8))

    def _arg(self, machine, i: int) -> int:
        sp = machine.reg(4)
        return int.from_bytes(machine.mem.read(sp + 4 + 4 * i, 4), "little")

    def _new_block(self, machine, size: int, *, defined: bool) -> int:
        heap = self.core.libc.heap
        raw = heap.malloc(machine, size + 2 * REDZONE)
        if raw == 0:
            return 0
        payload = raw + REDZONE
        self.shadow.make_noaccess(raw, REDZONE)
        if defined:
            self.shadow.make_defined(payload, size)
        else:
            self.shadow.make_undefined(payload, size)
        self.shadow.make_noaccess(payload + size, REDZONE)
        self.blocks[payload] = HeapBlock(payload, size, self._alloc_stack())
        self.total_allocated += size
        self.n_allocs += 1
        return payload

    def _repl_malloc(self, machine) -> int:
        return self._new_block(machine, self._arg(machine, 0), defined=False)

    def _repl_calloc(self, machine) -> int:
        n, sz = self._arg(machine, 0), self._arg(machine, 1)
        total = n * sz
        p = self._new_block(machine, total, defined=True)
        if p:
            machine.mem.write_raw(p, b"\0" * total)
        return p

    def _free_block(self, machine, payload: int) -> bool:
        block = self.blocks.pop(payload, None)
        if block is None:
            for fp, fsize, _ in self.freed:
                if fp == payload:
                    self.core.record_error(
                        "InvalidFree",
                        f"Invalid free() at address {payload:#x} (double free)",
                        addr=payload,
                    )
                    return False
            self.core.record_error(
                "InvalidFree",
                f"Invalid free() / delete of address {payload:#x}",
                addr=payload,
            )
            return False
        self.n_frees += 1
        # Quarantine: the whole block (red zones included) stays noaccess.
        self.shadow.make_noaccess(payload - REDZONE, block.size + 2 * REDZONE)
        self.freed.append((payload, block.size, self._alloc_stack()))
        if len(self.freed) > FREED_QUEUE_LEN:
            old_payload, old_size, _ = self.freed.pop(0)
            heap = self.core.libc.heap
            heap.free(machine, old_payload - REDZONE)
        return True

    def _repl_free(self, machine) -> int:
        payload = self._arg(machine, 0)
        if payload:
            self._free_block(machine, payload)
        return 0

    def _repl_realloc(self, machine) -> int:
        payload, new_size = self._arg(machine, 0), self._arg(machine, 1)
        if payload == 0:
            return self._new_block(machine, new_size, defined=False)
        block = self.blocks.get(payload)
        if block is None:
            self.core.record_error(
                "InvalidFree", f"realloc() of invalid address {payload:#x}"
            )
            return 0
        newp = self._new_block(machine, new_size, defined=False)
        if newp:
            n = min(block.size, new_size)
            machine.mem.write_raw(newp, machine.mem.read_raw(payload, n))
            self.shadow.copy_range(payload, newp, n)
            self._free_block(machine, payload)
        return newp

    # -- leak checking ---------------------------------------------------------------------------

    def leak_check(self, *, full: bool = False) -> dict:
        """Mark-and-sweep reachability over live heap blocks."""
        starts = sorted(self.blocks)
        reached = self._reachable(starts) if starts else set()
        lost = [p for p in starts if p not in reached]
        lost_bytes = sum(self.blocks[p].size for p in lost)
        reach_bytes = sum(self.blocks[p].size for p in reached)
        result = {
            "definitely_lost_blocks": len(lost),
            "definitely_lost_bytes": lost_bytes,
            "still_reachable_blocks": len(reached),
            "still_reachable_bytes": reach_bytes,
        }
        self._leak_result = result
        self.core.log(
            f"LEAK SUMMARY: definitely lost: {lost_bytes} bytes in "
            f"{len(lost)} blocks; still reachable: {reach_bytes} bytes in "
            f"{len(reached)} blocks"
        )
        if full:
            for p in lost:
                blk = self.blocks[p]
                frames = self.core.error_mgr.symbolise_stack(blk.alloc_stack)
                self.core.log(
                    f"  {blk.size} bytes definitely lost, allocated at:"
                )
                for fr in frames[:6]:
                    self.core.log(f"     at {fr.describe()}")
        return result

    def _reachable(self, starts: List[int]) -> set:
        """The live blocks (payload addresses, *starts* sorted) reachable
        from the roots.

        Roots are every thread's registers plus each aligned word of
        readable, addressable mapped memory that does not lie inside a
        live block; a word inside a reached block reaches further.  A
        pointer reaches block ``p`` when it lies in ``[p, p + size)``
        (``[p, p + 1)`` for a zero-size block).

        Memory is scanned a page at a time, the way the two-level shadow
        table lets real Memcheck skip unaddressable memory a secondary at
        a time: unreadable, entirely-noaccess and all-zero pages (no
        block starts at 0) are skipped whole, and the rest is decoded in
        one go, with only words inside the live-heap span tested further.
        """
        blocks = self.blocks
        ends = [p + max(1, blocks[p].size) for p in starts]
        heap_ends = [p + blocks[p].size for p in starts]
        in_span = range(starts[0], max(ends)).__contains__
        reached: set = set()
        frontier: List[int] = []

        def note(ptr: int) -> None:
            i = bisect_right(starts, ptr) - 1
            if i >= 0 and ptr < ends[i]:
                p = starts[i]
                if p not in reached:
                    reached.add(p)
                    frontier.append(p)

        sched = self.core.scheduler
        if sched is not None:
            for ts in sched.threads.values():
                for i in range(8):
                    note(ts.reg(i))

        mem = self.core.memory
        shadow = self.shadow
        for pn, data, prot in mem.pages():
            if not prot & PROT_READ:
                continue
            abits = shadow.page_abits(pn)
            if abits is None or data == _ZERO_PAGE:
                continue
            words = _words(data)
            base = pn << PAGE_SHIFT
            for off in compress(_WORD_OFFSETS, map(in_span, words)):
                if not abits[off]:
                    continue
                a = base + off
                i = bisect_right(starts, a) - 1
                if i < 0 or a >= heap_ends[i]:
                    note(words[off >> 2])

        while frontier:
            p = frontier.pop()
            n = blocks[p].size >> 2
            if n:
                for w in filter(in_span, _words(mem.read_raw(p, n << 2))):
                    note(w)
        return reached

    # -- client requests ----------------------------------------------------------------------------

    def handle_client_request(self, tid: int, args) -> Optional[int]:
        code, a1, a2 = args[0], args[1], args[2]
        if code == MC_MAKE_MEM_NOACCESS:
            self.shadow.make_noaccess(a1, a2)
            return 0
        if code == MC_MAKE_MEM_UNDEFINED:
            self.shadow.make_undefined(a1, a2)
            return 0
        if code == MC_MAKE_MEM_DEFINED:
            self.shadow.make_defined(a1, a2)
            return 0
        if code == MC_CHECK_MEM_IS_ADDRESSABLE:
            bad = self.shadow.check_addressable(a1, a2)
            return 0 if bad is None else bad
        if code == MC_CHECK_MEM_IS_DEFINED:
            bad = self.shadow.check_addressable(a1, a2)
            if bad is not None:
                return bad
            first = self.shadow.first_undefined(a1, a2)
            return 0 if first is None else first
        if code == MC_DO_LEAK_CHECK:
            self.leak_check(full=bool(a1))
            return 0
        if code == MC_COUNT_ERRORS:
            return self.core.error_mgr.total_errors
        return None
