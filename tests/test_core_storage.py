"""Tests for the translation table, dispatcher cache behaviour, core
allocator, ThreadState, and the events registry."""

import pytest

from repro.core.allocator import CoreAllocator, CoreArenaError, CORE_REGION_BASE
from repro.core.events import EVENT_SPECS, EventRegistry
from repro.core.threadstate import ThreadState
from repro.core.translate import Translation
from repro.core.transtab import TranslationTable
from repro.guest import regs as R
from repro.ir.types import Ty
from repro.kernel.memory import GuestMemory


def _t(addr, length=4):
    return Translation(guest_addr=addr, code=b"", ranges=((addr, length),))


class TestTranslationTable:
    def test_insert_lookup(self):
        tab = TranslationTable(64)
        t = _t(0x1000)
        tab.insert(t)
        assert tab.lookup(0x1000) is t
        assert tab.lookup(0x2000) is None
        assert tab.stats.misses == 1

    def test_replace_same_address(self):
        tab = TranslationTable(64)
        tab.insert(_t(0x1000))
        t2 = _t(0x1000)
        tab.insert(t2)
        assert tab.lookup(0x1000) is t2
        assert len(tab) == 1

    def test_fifo_eviction_at_80_percent(self):
        tab = TranslationTable(10)
        for i in range(9):  # the 9th insert finds the table 80% full
            tab.insert(_t(0x1000 + i * 16))
        assert tab.stats.evict_rounds == 1
        # FIFO: the OLDEST translation went first.
        assert tab.lookup(0x1000) is None
        assert tab.lookup(0x1000 + 7 * 16) is not None

    def test_evicted_translations_marked_dead(self):
        tab = TranslationTable(10)
        first = _t(0x1000)
        tab.insert(first)
        for i in range(1, 9):
            tab.insert(_t(0x1000 + i * 16))
        assert first.dead

    def test_discard_range_covers_chased_ranges(self):
        tab = TranslationTable(64)
        t = Translation(
            guest_addr=0x1000, code=b"", ranges=((0x1000, 8), (0x5000, 8))
        )
        tab.insert(t)
        # Discarding the *chased* range must kill the translation too.
        assert tab.discard_range(0x5004, 1) == 1
        assert tab.lookup(0x1000) is None and t.dead

    def test_lookup_after_deletion_rehash(self):
        # Entries inserted after a discarded one (addresses that would
        # collide in a linear-probe table of this size) stay findable.
        tab = TranslationTable(8)
        addrs = [0x10, 0x10 + 8 * 4, 0x10 + 8 * 8]
        for a in addrs:
            tab.insert(_t(a))
        tab.discard(addrs[0])
        for a in addrs[1:]:
            assert tab.lookup(a) is not None

    def test_all_translations_oldest_first(self):
        tab = TranslationTable(64)
        ts = [_t(0x1000 + i * 16) for i in range(5)]
        for t in ts:
            tab.insert(t)
        tab.discard(ts[2].guest_addr)
        assert tab.all_translations() == [ts[0], ts[1], ts[3], ts[4]]

    def test_fifo_replacing_insert_goes_newest(self):
        tab = TranslationTable(10)  # a round evicts max(1, 10 // 8) = 1
        for i in range(7):
            tab.insert(_t(0x1000 + i * 16))
        again = _t(0x1000)  # replaces the oldest entry
        tab.insert(again)
        assert tab.all_translations()[-1] is again
        tab.insert(_t(0x2000))
        assert tab.stats.evict_rounds == 0
        tab.insert(_t(0x2010))  # 80% full: one round, evicts the oldest
        assert tab.stats.evict_rounds == 1
        assert tab.lookup(0x1000) is again
        assert tab.lookup(0x1010) is None

    def test_lru_lookup_survives_eviction(self):
        tab = TranslationTable(10, policy="lru")
        for i in range(8):
            tab.insert(_t(0x1000 + i * 16))
        hot = tab.lookup(0x1000)  # oldest insert, but just used
        tab.insert(_t(0x2000))  # one round evicts one entry
        assert tab.stats.evict_rounds == 1
        assert not hot.dead and tab.lookup(0x1000) is hot
        assert tab.lookup(0x1010) is None  # older, never looked up


class TestCoreAllocator:
    def test_alloc_in_core_region(self):
        mem = GuestMemory()
        alloc = CoreAllocator(mem)
        a = alloc.alloc(100)
        assert a >= CORE_REGION_BASE
        assert mem.read_raw(a, 100) == b"\0" * 100

    def test_free_and_reuse(self):
        alloc = CoreAllocator(GuestMemory())
        a = alloc.alloc(64)
        alloc.free(a)
        b = alloc.alloc(64)
        assert b == a  # free-list reuse

    def test_double_free_rejected(self):
        alloc = CoreAllocator(GuestMemory())
        a = alloc.alloc(16)
        alloc.free(a)
        with pytest.raises(CoreArenaError):
            alloc.free(a)

    def test_alloc_bytes(self):
        mem = GuestMemory()
        alloc = CoreAllocator(mem)
        a = alloc.alloc_bytes(b"hello")
        assert mem.read_raw(a, 5) == b"hello"

    def test_exhaustion(self):
        alloc = CoreAllocator(GuestMemory(), base=CORE_REGION_BASE,
                              limit=CORE_REGION_BASE + 0x2000)
        with pytest.raises(CoreArenaError, match="exhausted"):
            alloc.alloc(0x4000)


class TestThreadState:
    def test_register_accessors(self):
        ts = ThreadState()
        ts.set_reg(3, 0xDEADBEEF)
        assert ts.reg(3) == 0xDEADBEEF
        assert ts.get(R.gpr_offset(3), Ty.I32) == 0xDEADBEEF
        ts.sp = 0x1000
        assert ts.reg(R.SP) == 0x1000
        ts.pc = 0x42
        assert ts.get(R.OFFSET_PC, Ty.I32) == 0x42
        ts.set_freg(2, 1.5)
        assert ts.freg(2) == 1.5
        ts.set_vreg(1, 1 << 100)
        assert ts.vreg(1) == 1 << 100

    def test_shadow_offsets_match_paper(self):
        # Figure 2: %eax's shadow at 320, %ebx's (offset 12) at 332.
        assert R.shadow(0) == 320
        assert R.shadow(12) == 332

    def test_describe_diff(self):
        a, b = ThreadState(), ThreadState()
        b.set_reg(2, 5)
        b.set_freg(1, 2.0)
        diffs = a.describe_diff(b)
        assert any("r2" in d for d in diffs)
        assert any("f1" in d for d in diffs)
        assert a.architected_equal(a) and not a.architected_equal(b)

    def test_call_stack_halves_past_the_cap(self):
        from repro.core.threadstate import _CALLSTACK_MAX

        ts = ThreadState()
        for i in range(_CALLSTACK_MAX):
            ts.push_call(i, i + 1)
        assert len(ts.callstack) == _CALLSTACK_MAX
        ts.push_call(-1, -2)
        # The oldest half goes; the newest frames stay on top.
        assert len(ts.callstack) == _CALLSTACK_MAX // 2 + 1
        assert ts.callstack[0] == (_CALLSTACK_MAX // 2, _CALLSTACK_MAX // 2 + 1)
        assert ts.callstack[-1] == (-1, -2)

    def test_ret_pops_to_a_match_up_to_eight_frames_down(self):
        ts = ThreadState()
        for ra in range(10):
            ts.push_call(ra, 100 + ra)
        ts.pop_ret(9)  # the top frame
        assert [ra for ra, _ in ts.callstack] == list(range(9))
        ts.pop_ret(1)  # 8 frames down: tail calls / longjmp
        assert [ra for ra, _ in ts.callstack] == [0]
        for ra in range(1, 10):
            ts.push_call(ra, 100 + ra)
        ts.pop_ret(0)  # 10 frames down: out of reach, left alone
        assert len(ts.callstack) == 10
        ts.pop_ret(42)  # no frame returns there
        assert len(ts.callstack) == 10
        ts.callstack.clear()
        ts.pop_ret(0)  # an empty stack stays empty
        assert ts.callstack == []


class TestEvents:
    def test_track_and_fire(self):
        ev = EventRegistry()
        got = []
        ev.track_new_mem_stack(lambda addr, size: got.append((addr, size)))
        ev.fire("new_mem_stack", 0x100, 8)
        ev.fire_new_mem_stack(0x200, 4)
        assert got == [(0x100, 8), (0x200, 4)]

    def test_untracked_fire_is_noop(self):
        EventRegistry().fire("die_mem_stack", 0, 1)

    def test_unknown_event_rejected(self):
        with pytest.raises(KeyError):
            EventRegistry().track("bogus_event", lambda: None)

    def test_tracks_stack_events_property(self):
        ev = EventRegistry()
        assert not ev.tracks_stack_events
        ev.track_die_mem_stack(lambda a, s: None)
        assert ev.tracks_stack_events

    def test_table1_structure(self):
        """The events system covers requirements R4-R7 (Table 1)."""
        reqs = {spec[0] for spec in EVENT_SPECS.values()}
        assert {"R4", "R5", "R6", "R7"} <= reqs
        names = set(EVENT_SPECS)
        assert {
            "pre_reg_read", "post_reg_write", "pre_mem_read",
            "pre_mem_read_asciiz", "pre_mem_write", "post_mem_write",
            "new_mem_startup", "new_mem_mmap", "die_mem_munmap",
            "new_mem_brk", "die_mem_brk", "copy_mem_mremap",
            "new_mem_stack", "die_mem_stack",
        } <= names

    def test_table1_rows_name_callbacks(self):
        ev = EventRegistry()

        def my_callback(tid, offset, size, name):
            pass

        ev.track_pre_reg_read(my_callback)
        rows = ev.table1()
        row = [r for r in rows if r[1] == "pre_reg_read"][0]
        assert row[0] == "R4" and "my_callback" in row[3]
