"""Property tests: the flat paged shadow memory against a byte-at-a-time
reference model.

The reference keeps one ``(abit, vbyte)`` per address in a plain dict —
the obviously-correct implementation the paper's two-level table
optimises.  Random operation sequences (deliberately biased toward page
boundaries, whole-page ranges, and page-crossing ranges) must leave both
models observationally equal, including after copy-on-write promotion of
distinguished secondaries, and the read-only whole-page A-bit view the
leak scan uses must match too.  A second group checks the fast-map
invariants the pygen inline paths rely on, and that the codegen helper
tables stay in sync with the instrumenter's helper names.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tools.memcheck.shadow import (
    PAGE_SIZE,
    ShadowMemory,
    VBITS_DEF,
    VBITS_UNDEF,
)
from repro.tools.memcheck import shadow as shadow_mod


BASE = 0x40000  # page-aligned playground start
NPAGES = 4
SPAN = NPAGES * PAGE_SIZE


class RefShadow:
    """Byte-at-a-time reference: dict of addr -> (abit, vbyte)."""

    def __init__(self, default="noaccess"):
        self._d = {}
        self._default = (0, VBITS_UNDEF) if default == "noaccess" else (1, VBITS_DEF)

    def _get(self, addr):
        return self._d.get(addr & 0xFFFFFFFF, self._default)

    def _set(self, addr, a, v):
        self._d[addr & 0xFFFFFFFF] = (a, v)

    def make_noaccess(self, addr, size):
        for i in range(size):
            self._set(addr + i, 0, VBITS_UNDEF)

    def make_undefined(self, addr, size):
        for i in range(size):
            self._set(addr + i, 1, VBITS_UNDEF)

    def make_defined(self, addr, size):
        for i in range(size):
            self._set(addr + i, 1, VBITS_DEF)

    def set_vbyte(self, addr, v):
        a, _ = self._get(addr)
        self._set(addr, a, v & 0xFF)

    def store_vbits(self, addr, size, vbits):
        for i in range(size):
            self.set_vbyte(addr + i, (vbits >> (8 * i)) & 0xFF)

    def load_vbits(self, addr, size):
        v = 0
        for i in range(size):
            v |= self._get(addr + i)[1] << (8 * i)
        return v

    def get_abit(self, addr):
        return self._get(addr)[0]

    def get_vbyte(self, addr):
        return self._get(addr)[1]

    def check_addressable(self, addr, size):
        for i in range(size):
            if self._get(addr + i)[0] == 0:
                return addr + i
        return None

    def first_undefined(self, addr, size):
        for i in range(size):
            if self._get(addr + i)[1] != 0:
                return addr + i
        return None

    def copy_range(self, src, dst, size):
        snap = [self._get(src + i) for i in range(size)]
        for i, (a, v) in enumerate(snap):
            self._set(dst + i, a, v)


def offsets():
    """Offsets biased toward page edges, where the paged code branches."""
    edges = [p * PAGE_SIZE + d for p in range(NPAGES) for d in (-2, -1, 0, 1, 2)]
    edges = [e for e in edges if 0 <= e < SPAN]
    return st.one_of(
        st.sampled_from(edges), st.integers(min_value=0, max_value=SPAN - 1)
    )


def sizes():
    """Sizes up to 2.5 pages: sub-page, whole-page, and crossing ranges."""
    return st.one_of(
        st.sampled_from([1, 2, 4, 8, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
                         2 * PAGE_SIZE]),
        st.integers(min_value=1, max_value=2 * PAGE_SIZE + PAGE_SIZE // 2),
    )


def operations():
    rng = st.tuples(offsets(), sizes())
    return st.one_of(
        st.tuples(st.just("noaccess"), rng),
        st.tuples(st.just("undefined"), rng),
        st.tuples(st.just("defined"), rng),
        st.tuples(st.just("store"), st.tuples(
            offsets(), st.sampled_from([1, 2, 4]),
            st.integers(min_value=0, max_value=0xFFFFFFFF))),
        st.tuples(st.just("setv"), st.tuples(
            offsets(), st.integers(min_value=0, max_value=0xFF))),
        st.tuples(st.just("copy"), st.tuples(offsets(), offsets(), sizes())),
    )


def apply(model, op, arg):
    if op == "noaccess":
        model.make_noaccess(BASE + arg[0], min(arg[1], SPAN - arg[0]))
    elif op == "undefined":
        model.make_undefined(BASE + arg[0], min(arg[1], SPAN - arg[0]))
    elif op == "defined":
        model.make_defined(BASE + arg[0], min(arg[1], SPAN - arg[0]))
    elif op == "store":
        off, size, vbits = arg
        off = min(off, SPAN - size)
        model.store_vbits(BASE + off, size, vbits & ((1 << (8 * size)) - 1))
    elif op == "setv":
        model.set_vbyte(BASE + arg[0], arg[1])
    else:  # copy
        src, dst, size = arg
        size = min(size, SPAN - src, SPAN - dst)
        if size > 0:
            model.copy_range(BASE + src, BASE + dst, size)


def check_equal(sm, ref, probes):
    for off, size in probes:
        size = min(size, SPAN - off)
        addr = BASE + off
        assert sm.get_abit(addr) == ref.get_abit(addr)
        assert sm.get_vbyte(addr) == ref.get_vbyte(addr)
        assert sm.check_addressable(addr, size) == ref.check_addressable(addr, size)
        assert sm.first_undefined(addr, size) == ref.first_undefined(addr, size)
        lsz = min(size, 8)
        assert sm.load_vbits(addr, lsz) == ref.load_vbits(addr, lsz)


def check_page_abits(sm, ref):
    """``page_abits`` agrees with the per-byte A bits, hands out nothing
    writable and, being a pure read, changes no page-table statistic."""
    before = sm.stats_dict()
    for base in range(BASE, BASE + SPAN, PAGE_SIZE):
        want = bytes(ref.get_abit(base + i) for i in range(PAGE_SIZE))
        got = sm.page_abits(base // PAGE_SIZE)
        if got is None:
            assert want == bytes(PAGE_SIZE)
            continue
        assert bytes(got) == want
        with pytest.raises(TypeError):
            got[0] = 1
    assert sm.stats_dict() == before


class TestShadowEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        default=st.sampled_from(["noaccess", "defined"]),
        ops=st.lists(operations(), min_size=1, max_size=24),
        probes=st.lists(st.tuples(offsets(), sizes()), min_size=4, max_size=10),
    )
    def test_random_sequences_match_reference(self, default, ops, probes):
        sm = ShadowMemory(default)
        ref = RefShadow(default)
        for op, arg in ops:
            apply(sm, op, arg)
            apply(ref, op, arg)
        check_equal(sm, ref, probes)
        check_page_abits(sm, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        off=st.integers(min_value=PAGE_SIZE - 8, max_value=PAGE_SIZE + 8),
        size=st.sampled_from([1, 2, 4]),
        vbits=st.integers(min_value=0, max_value=0xFFFFFFFF),
        marker=st.sampled_from(["noaccess", "undefined", "defined"]),
    )
    def test_cow_at_page_boundary(self, off, size, vbits, marker):
        """A store that privatizes a distinguished page right at a page
        boundary must match the reference, on both sides of the edge."""
        sm, ref = ShadowMemory(), RefShadow()
        for m in (sm, ref):
            getattr(m, f"make_{marker}")(BASE, 2 * PAGE_SIZE)
        off = min(off, 2 * PAGE_SIZE - size)
        vbits &= (1 << (8 * size)) - 1
        sm.store_vbits(BASE + off, size, vbits)
        ref.store_vbits(BASE + off, size, vbits)
        check_equal(sm, ref, [(0, 2 * PAGE_SIZE)])

    def test_copy_overlapping_forward_and_back(self):
        sm, ref = ShadowMemory(), RefShadow()
        for m in (sm, ref):
            m.make_defined(BASE, PAGE_SIZE)
            m.make_undefined(BASE + 100, 50)
            m.copy_range(BASE + 80, BASE + 90, 100)  # forward overlap
            m.copy_range(BASE + 95, BASE + 60, 100)  # backward overlap
        check_equal(sm, ref, [(0, PAGE_SIZE)])


class TestFastMapInvariants:
    def test_private_pages_enter_both_maps_with_identity(self):
        sm = ShadowMemory()
        sm.make_defined(BASE, PAGE_SIZE)          # distinguished
        sm.store_vbits(BASE + 8, 2, 0x0101)       # privatizes
        pn = BASE >> 12
        pair = sm._pages[pn]
        assert isinstance(pair, tuple)
        assert sm.fast_rd_get(pn) is pair
        assert sm.fast_wr_get(pn) is pair
        # In-place mutation must be visible through the map, no refresh.
        sm.make_noaccess(BASE + 16, 4)
        assert sm.fast_rd_get(pn) is pair
        assert pair[0][16] == 0

    def test_markers_only_in_read_map(self):
        sm = ShadowMemory()
        sm.make_defined(BASE, PAGE_SIZE)
        sm.make_undefined(BASE + PAGE_SIZE, PAGE_SIZE)
        sm.make_noaccess(BASE + 2 * PAGE_SIZE, PAGE_SIZE)
        pn = BASE >> 12
        assert sm.fast_rd_get(pn) is shadow_mod._PAIR_DEF
        assert sm.fast_rd_get(pn + 1) is shadow_mod._PAIR_UNDEF
        assert sm.fast_rd_get(pn + 2) is None
        for i in range(3):
            assert sm.fast_wr_get(pn + i) is None

    def test_marker_transition_evicts_stale_entries(self):
        sm = ShadowMemory()
        sm.make_defined(BASE, PAGE_SIZE)
        sm.store_vbits(BASE, 1, 1)                # private, in both maps
        sm.make_noaccess(BASE, PAGE_SIZE)         # back to a marker
        pn = BASE >> 12
        assert sm.fast_rd_get(pn) is None
        assert sm.fast_wr_get(pn) is None

    def test_shared_pairs_are_immutable(self):
        for pair in (shadow_mod._PAIR_DEF, shadow_mod._PAIR_UNDEF):
            assert isinstance(pair[0], bytes) and isinstance(pair[1], bytes)
            with pytest.raises(TypeError):
                pair[1][0] = 1  # type: ignore[index]


class TestCodegenTableSync:
    def test_pygen_tables_match_instrumenter_helpers(self):
        from repro.backend import isel
        from repro.tools.memcheck import instrument

        assert isel.MC_LOADV_SIZES == {
            instrument.LOADV[s]: s for s in (1, 2, 4)
        }
        assert isel.MC_STOREV_SIZES == {
            instrument.STOREV[s]: s for s in (1, 2, 4)
        }
        expected = (
            set(instrument.LOADV.values())
            | set(instrument.STOREV.values())
            | set(instrument.VALUE_CHECK.values())
        )
        assert isel.MC_NO_STATE_WRITE == frozenset(expected)
