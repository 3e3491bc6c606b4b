"""Memcheck's shadow memory: A (addressability) and V (validity) bits.

Every byte of guest memory is shadowed by one A bit (may it be accessed at
all?) and eight V bits (which of its bits hold defined values?) — the
bit-precise definedness tracking of the paper.  V-bit convention: a set
bit means *undefined*.

The table is two-level, like the real thing [19]: a primary page map
whose entries are either one of three *distinguished secondaries* —
shared read-only pages meaning "entirely noaccess", "entirely
addressable and defined" and "entirely addressable but undefined", by
far the common cases — or a private flat ``(abits, vbits)`` bytearray
pair, created copy-on-write the first time a page needs byte-level
state.  All range operations (``make_*``, ``copy_range``,
``check_addressable``, ``first_undefined``) work per-page via slice
assignment and C-level scans (``find``/``count``/``lstrip``), never
byte-at-a-time Python loops, so memcpy/memset-sized libc and syscall
paths cost O(pages).

Fast-path exposure: two page-number -> ``(abits, vbits)`` secondary
dicts are maintained for the pygen codegen tier (see ``backend.pygen``):

* ``_fast_rd`` maps every addressable-capable page to its secondary —
  private pages to their live bytearray pair, distinguished
  defined/undefined pages to a shared immutable ``bytes`` pair — so an
  inlined LOADV is one dict probe, an inline A-bit range check, and a
  V-byte slice read.
* ``_fast_wr`` maps only *private* pages (the only ones an inlined
  STOREV may mutate); distinguished pages must go through
  :meth:`store_vbits` so copy-on-write promotion still happens there.

Emitted code checks the A bits of the accessed range inline and falls
back to the helper when any byte is unaddressable (that is the
error-reporting path), so partially-addressable pages — the top of the
stack, heap pages with red zones — stay fast for their valid bytes.
The dict objects (and the bound ``fast_rd_get``/``fast_wr_get``
accessors) are stable for the life of the ShadowMemory, so generated
code can close over them once; private secondaries keep their identity
across A/V mutations, so map entries never go stale.

Optional numpy acceleration for the private-page scan in
:meth:`first_undefined` is enabled only when ``REPRO_NUMPY=1`` *and*
numpy imports — never a hard dependency; the pure-Python path uses
C-level ``bytes`` primitives and is O(pages) too.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_PMASK = PAGE_SIZE - 1
_M32 = 0xFFFFFFFF

# Distinguished secondary markers (interned, compared by identity).
_NOACCESS = "noaccess"
_DEFINED = "defined"
_UNDEFINED = "undefined"

#: All-undefined V byte.
VBITS_UNDEF = 0xFF
VBITS_DEF = 0x00

#: Shared flat patterns backing the distinguished secondaries.  The
#: pages are immutable ``bytes`` on purpose: they appear (as shared
#: pairs) in the *read* fast map, and nothing may ever assign through
#: them.
_A_ONES = b"\x01" * PAGE_SIZE
_VB_ALL_DEF = bytes(PAGE_SIZE)
_VB_ALL_UNDEF = b"\xff" * PAGE_SIZE
#: Shared read-only secondaries for the read fast map.
_PAIR_DEF = (_A_ONES, _VB_ALL_DEF)
_PAIR_UNDEF = (_A_ONES, _VB_ALL_UNDEF)

#: numpy probe: opt-in via REPRO_NUMPY=1, silently absent otherwise.
if os.environ.get("REPRO_NUMPY") == "1":  # pragma: no cover - env probe
    try:
        import numpy as _np
    except Exception:
        _np = None
else:
    _np = None


class ShadowMemory:
    """The A/V-bit table over the 32-bit guest address space."""

    def __init__(self, default: str = "noaccess") -> None:
        # page number -> _NOACCESS | _DEFINED | _UNDEFINED marker or a
        # private (abits, vbits) bytearray pair.  Missing pages take the
        # default state: "noaccess" for Memcheck, "defined" for tools
        # (like taint trackers) whose neutral state is all-clean.
        if default not in ("noaccess", "defined"):
            raise ValueError(f"bad default {default!r}")
        self._default = _NOACCESS if default == "noaccess" else _DEFINED
        self._pages: Dict[int, object] = {}
        #: Fast-path maps (see module docstring).  Their identity is
        #: stable: generated code binds ``fast_rd_get``/``fast_wr_get``.
        self._fast_rd: Dict[int, tuple] = {}
        self._fast_wr: Dict[int, tuple] = {}
        self.fast_rd_get = self._fast_rd.get
        self.fast_wr_get = self._fast_wr.get
        #: Distinguished-secondary pages privatized on first write.
        self.cow_promotions = 0

    # -- page helpers -----------------------------------------------------------

    def _private(self, pn: int) -> Tuple[bytearray, bytearray]:
        """Get a writable (abits, vbits) pair for page *pn* (copy on write)."""
        page = self._pages.get(pn, self._default)
        if isinstance(page, tuple):
            return page
        if page is _NOACCESS:
            pair = (bytearray(PAGE_SIZE), bytearray(_VB_ALL_UNDEF))
        elif page is _UNDEFINED:
            pair = (bytearray(_A_ONES), bytearray(_VB_ALL_UNDEF))
        else:  # _DEFINED
            pair = (bytearray(_A_ONES), bytearray(_VB_ALL_DEF))
        self._pages[pn] = pair
        self.cow_promotions += 1
        # Private secondaries keep their identity for life: enter both
        # fast maps once, never refresh (A/V mutations happen in place).
        self._fast_rd[pn] = pair
        self._fast_wr[pn] = pair
        return pair

    def _set_marker(self, pn: int, marker: str) -> None:
        self._pages[pn] = marker
        if marker is _DEFINED:
            self._fast_rd[pn] = _PAIR_DEF
        elif marker is _UNDEFINED:
            self._fast_rd[pn] = _PAIR_UNDEF
        else:
            self._fast_rd.pop(pn, None)
        self._fast_wr.pop(pn, None)

    # -- range operations (the make_mem_* callbacks) --------------------------------

    def _set_range(self, addr: int, size: int, a: int, v: int, marker) -> None:
        addr &= _M32
        end = addr + size
        while addr < end:
            pn = addr >> PAGE_SHIFT
            off = addr & _PMASK
            n = min(PAGE_SIZE - off, end - addr)
            if n == PAGE_SIZE:
                self._set_marker(pn, marker)
            else:
                pair = self._private(pn)
                pair[0][off : off + n] = bytes([a]) * n
                pair[1][off : off + n] = bytes([v]) * n
            addr += n

    def make_noaccess(self, addr: int, size: int) -> None:
        if size > 0:
            self._set_range(addr, size, 0, VBITS_UNDEF, _NOACCESS)

    def make_undefined(self, addr: int, size: int) -> None:
        if size > 0:
            self._set_range(addr, size, 1, VBITS_UNDEF, _UNDEFINED)

    def make_defined(self, addr: int, size: int) -> None:
        if size > 0:
            self._set_range(addr, size, 1, VBITS_DEF, _DEFINED)

    # -- byte-level access ------------------------------------------------------------

    def get_abit(self, addr: int) -> int:
        page = self._pages.get((addr & _M32) >> PAGE_SHIFT, self._default)
        if page is _NOACCESS:
            return 0
        if page is _DEFINED or page is _UNDEFINED:
            return 1
        return page[0][addr & _PMASK]

    def get_vbyte(self, addr: int) -> int:
        page = self._pages.get((addr & _M32) >> PAGE_SHIFT, self._default)
        if page is _NOACCESS or page is _UNDEFINED:
            return VBITS_UNDEF
        if page is _DEFINED:
            return VBITS_DEF
        return page[1][addr & _PMASK]

    def page_abits(self, pn: int):
        """The A bits of page *pn*, one byte per guest byte, for
        whole-page scans: ``None`` if the page is entirely noaccess,
        otherwise a read-only ``PAGE_SIZE``-byte sequence.  A pure read —
        it never promotes a distinguished secondary."""
        page = self._pages.get(pn, self._default)
        if page is _NOACCESS:
            return None
        if page is _DEFINED or page is _UNDEFINED:
            return _A_ONES
        return memoryview(page[0]).toreadonly()

    def set_vbyte(self, addr: int, v: int) -> None:
        addr &= _M32
        pair = self._private(addr >> PAGE_SHIFT)
        pair[1][addr & _PMASK] = v & 0xFF

    # -- word-level access (the LOADV/STOREV backends) -----------------------------------

    def check_addressable(self, addr: int, size: int) -> Optional[int]:
        """Return the first unaddressable address in the range, or None."""
        addr &= _M32
        end = addr + size
        a = addr
        while a < end:
            pn = a >> PAGE_SHIFT
            page = self._pages.get(pn, self._default)
            if page is _DEFINED or page is _UNDEFINED:
                a = (pn + 1) << PAGE_SHIFT
                continue
            if page is _NOACCESS:
                return a
            off = a & _PMASK
            n = min(PAGE_SIZE - off, end - a)
            i = page[0].find(0, off, off + n)
            if i >= 0:
                return (pn << PAGE_SHIFT) + i
            a += n
        return None

    def load_vbits(self, addr: int, size: int) -> int:
        """V bits for a little-endian load of *size* bytes (unaddressable
        bytes read as undefined)."""
        addr &= _M32
        pn = addr >> PAGE_SHIFT
        off = addr & _PMASK
        page = self._pages.get(pn, self._default)
        if off + size <= PAGE_SIZE:
            if page is _DEFINED:
                return 0
            if page is _NOACCESS or page is _UNDEFINED:
                return (1 << (8 * size)) - 1
            return int.from_bytes(page[1][off : off + size], "little")
        v = 0
        for i in range(size):
            v |= self.get_vbyte(addr + i) << (8 * i)
        return v

    def store_vbits(self, addr: int, size: int, vbits: int) -> None:
        """Write V bits for a little-endian store (A bits unchanged)."""
        addr &= _M32
        pn = addr >> PAGE_SHIFT
        off = addr & _PMASK
        if off + size <= PAGE_SIZE:
            page = self._pages.get(pn, self._default)
            if page is _DEFINED and vbits == 0:
                return
            if page is _UNDEFINED and vbits == (1 << (8 * size)) - 1:
                return
            pair = page if isinstance(page, tuple) else self._private(pn)
            pair[1][off : off + size] = vbits.to_bytes(size, "little")
            return
        for i in range(size):
            self.set_vbyte(addr + i, (vbits >> (8 * i)) & 0xFF)

    def copy_range(self, src: int, dst: int, size: int) -> None:
        """Copy both A and V bits (mremap, realloc, memcpy wrappers).

        O(pages): the source range is gathered page-by-page into two
        flat buffers with slice reads (so overlapping ranges are safe),
        then scattered with slice writes.
        """
        if size <= 0:
            return
        a = bytearray(size)
        v = bytearray(size)
        pos = 0
        addr = src & _M32
        end = addr + size
        while addr < end:
            pn = addr >> PAGE_SHIFT
            off = addr & _PMASK
            n = min(PAGE_SIZE - off, end - addr)
            page = self._pages.get(pn, self._default)
            if page is _DEFINED:
                a[pos : pos + n] = _A_ONES[:n]
            elif page is _UNDEFINED:
                a[pos : pos + n] = _A_ONES[:n]
                v[pos : pos + n] = _VB_ALL_UNDEF[:n]
            elif page is _NOACCESS:
                v[pos : pos + n] = _VB_ALL_UNDEF[:n]
            else:
                a[pos : pos + n] = page[0][off : off + n]
                v[pos : pos + n] = page[1][off : off + n]
            addr += n
            pos += n
        pos = 0
        addr = dst & _M32
        end = addr + size
        while addr < end:
            pn = addr >> PAGE_SHIFT
            off = addr & _PMASK
            n = min(PAGE_SIZE - off, end - addr)
            pair = self._private(pn)
            pair[0][off : off + n] = a[pos : pos + n]
            pair[1][off : off + n] = v[pos : pos + n]
            addr += n
            pos += n

    # -- inspection --------------------------------------------------------------------

    def first_undefined(self, addr: int, size: int) -> Optional[int]:
        """First address in the range whose V byte is not fully defined."""
        i = 0
        while i < size:
            a = (addr + i) & _M32
            pn = a >> PAGE_SHIFT
            off = a & _PMASK
            n = min(PAGE_SIZE - off, size - i)
            page = self._pages.get(pn, self._default)
            if page is _DEFINED:
                i += n
                continue
            if page is _NOACCESS or page is _UNDEFINED:
                return addr + i
            vbits = page[1]
            if vbits.count(0, off, off + n) == n:
                i += n
                continue
            if _np is not None:
                j = int(
                    (_np.frombuffer(vbits, dtype=_np.uint8,
                                    count=n, offset=off) != 0).argmax()
                )
            else:
                chunk = bytes(vbits[off : off + n])
                j = n - len(chunk.lstrip(b"\x00"))
            return addr + i + j
        return None

    def stats(self) -> Tuple[int, int, int]:
        """(noaccess pages, fully-defined pages, other pages) in the map.

        Kept for embedders/tests; distinguished all-undefined pages count
        in the third slot, matching the byte-table era where
        ``make_undefined`` always produced a private page.  The richer
        breakdown lives in :meth:`stats_dict`.
        """
        na = df = pv = 0
        for page in self._pages.values():
            if page is _NOACCESS:
                na += 1
            elif page is _DEFINED:
                df += 1
            else:
                pv += 1
        return na, df, pv

    def stats_dict(self) -> dict:
        """All-numeric page-table statistics (the ``memcheck_shadow``
        section of ``--stats=json``; fleet stats sum it leaf-wise)."""
        na = df = un = pv = 0
        for page in self._pages.values():
            if page is _NOACCESS:
                na += 1
            elif page is _DEFINED:
                df += 1
            elif page is _UNDEFINED:
                un += 1
            else:
                pv += 1
        return {
            "pages_noaccess": na,
            "pages_defined": df,
            "pages_undefined": un,
            "pages_private": pv,
            "pages_fast": len(self._fast_rd),
            "cow_promotions": self.cow_promotions,
            "numpy": 0 if _np is None else 1,
        }
