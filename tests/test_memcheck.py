"""Memcheck tests: shadow memory, error detection, precision, heap
tracking, leak checking, and client requests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Options
from repro.core.valgrind import Valgrind
from repro.tools.memcheck import (
    MC_CHECK_MEM_IS_ADDRESSABLE,
    MC_CHECK_MEM_IS_DEFINED,
    MC_COUNT_ERRORS,
    MC_DO_LEAK_CHECK,
    MC_MAKE_MEM_DEFINED,
    MC_MAKE_MEM_NOACCESS,
    MC_MAKE_MEM_UNDEFINED,
    Memcheck,
    ShadowMemory,
)
from repro.core.clientreq import clreq_asm

from helpers import asm_image, vg


def mc(src, **kw):
    return vg(src, "memcheck", **kw)


def kinds(res):
    return [e.kind for e in res.errors]


class TestShadowMemory:
    def test_default_noaccess(self):
        sm = ShadowMemory()
        assert sm.get_abit(0x1234) == 0
        assert sm.get_vbyte(0x1234) == 0xFF
        assert sm.check_addressable(0x1000, 4) == 0x1000

    def test_make_defined_undefined_noaccess(self):
        sm = ShadowMemory()
        sm.make_defined(0x1000, 16)
        assert sm.check_addressable(0x1000, 16) is None
        assert sm.load_vbits(0x1000, 4) == 0
        sm.make_undefined(0x1004, 4)
        assert sm.load_vbits(0x1004, 4) == 0xFFFFFFFF
        assert sm.first_undefined(0x1000, 16) == 0x1004
        sm.make_noaccess(0x1008, 4)
        assert sm.check_addressable(0x1000, 16) == 0x1008

    def test_store_load_vbits_partial(self):
        sm = ShadowMemory()
        sm.make_defined(0x1000, 8)
        sm.store_vbits(0x1001, 2, 0x00FF)  # byte 1 undefined, byte 2 defined
        assert sm.get_vbyte(0x1001) == 0xFF
        assert sm.get_vbyte(0x1002) == 0x00
        assert sm.load_vbits(0x1000, 4) == 0x0000FF00

    def test_page_crossing(self):
        sm = ShadowMemory()
        sm.make_defined(0x1FFC, 8)  # crosses a 4K page
        assert sm.check_addressable(0x1FFC, 8) is None
        sm.store_vbits(0x1FFE, 4, 0xFFFFFFFF)
        assert sm.load_vbits(0x1FFE, 4) == 0xFFFFFFFF

    def test_copy_range(self):
        sm = ShadowMemory()
        sm.make_defined(0x1000, 8)
        sm.store_vbits(0x1000, 4, 0x000000FF)
        sm.make_undefined(0x2000, 8)
        sm.copy_range(0x1000, 0x2000, 8)
        assert sm.load_vbits(0x2000, 4) == 0x000000FF
        assert sm.check_addressable(0x2000, 8) is None

    def test_distinguished_pages_stay_shared(self):
        sm = ShadowMemory()
        sm.make_defined(0x10000, 0x3000)
        na, df, pv = sm.stats()
        assert df == 3 and pv == 0  # whole pages use the shared marker
        sm.store_vbits(0x10000, 4, 1)  # forces one copy-on-write
        na, df, pv = sm.stats()
        assert pv == 1 and df == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0x1000, 0x3000),
        st.integers(1, 8),
        st.integers(0, (1 << 64) - 1),
    )
    def test_vbits_roundtrip(self, addr, size, bits):
        sm = ShadowMemory()
        sm.make_defined(0x0, 0x5000)
        vbits = bits & ((1 << (8 * size)) - 1)
        sm.store_vbits(addr, size, vbits)
        assert sm.load_vbits(addr, size) == vbits


class TestErrorDetection:
    def test_uninitialised_condition(self):
        res = mc("""
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        cmpi r0, 1
        je   x
x:      movi r0, 0
        ret
""")
        assert "UninitCondition" in kinds(res)

    def test_uninitialised_value_as_address(self):
        res = mc("""
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        andi r0, 0xFF        ; partially defined is still undefined
        ld   r1, [buf+r0]
        movi r0, 0
        ret
        .data
buf:    .space 512
""")
        assert "UninitValue" in kinds(res)

    def test_definedness_flows_through_arithmetic(self):
        # undef + defined -> undef; xor with itself -> defined (Memcheck's
        # improved rules make x^x fully defined).
        res = mc("""
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        xor  r0, r0          ; now defined (0)
        cmpi r0, 0
        je   ok
ok:     movi r0, 0
        ret
""")
        assert kinds(res) == []

    def test_and_with_defined_zero_is_defined(self):
        res = mc("""
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        andi r0, 0           ; defined 0 wins
        cmpi r0, 0
        je   ok
ok:     movi r0, 0
        ret
""")
        assert kinds(res) == []

    def test_copy_through_memory_preserves_undefinedness(self):
        res = mc("""
        .text
main:   subi sp, 8
        ld   r0, [sp]        ; undefined
        st   [tmp], r0       ; stays undefined in memory
        ld   r1, [tmp]
        addi sp, 8
        test r1, r1
        jz   x
x:      movi r0, 0
        ret
        .data
tmp:    .word 0
""")
        assert kinds(res) == ["UninitCondition"]

    def test_stack_frames_become_undefined_again(self):
        # A callee leaves a value; a new frame must be undefined anyway.
        res = mc("""
        .text
main:   call f
        call g
        movi r0, 0
        ret
f:      subi sp, 8
        sti  [sp], 99        ; initialise the slot
        addi sp, 8
        ret
g:      subi sp, 8
        ld   r0, [sp]        ; same address, but a NEW allocation
        addi sp, 8
        cmpi r0, 99
        je   x
x:      ret
""")
        assert "UninitCondition" in kinds(res)


class TestHeapChecking:
    def test_overrun_read_and_write(self):
        res = mc("""
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        ld   r1, [r0+16]     ; 1 past the end
        sti  [r0+20], 5      ; further past
        push r0
        call free
        addi sp, 4
        movi r0, 0
        ret
""")
        ks = kinds(res)
        assert "InvalidRead" in ks and "InvalidWrite" in ks

    def test_underrun(self):
        res = mc("""
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        ld   r1, [r0-4]      ; red zone before the block
        push r0
        call free
        addi sp, 4
        movi r0, 0
        ret
""")
        assert kinds(res) == ["InvalidRead"]
        assert "before a block of size 16" in res.errors[0].message

    def test_use_after_free(self):
        res = mc("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r6, r0
        push r6
        call free
        addi sp, 4
        ld   r1, [r6]
        movi r0, 0
        ret
""")
        assert kinds(res) == ["InvalidRead"]
        assert "freed" in res.errors[0].message

    def test_double_and_invalid_free(self):
        res = mc("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r6, r0
        push r6
        call free
        addi sp, 4
        push r6
        call free            ; double free
        addi sp, 4
        pushi 0x1234
        call free            ; free of a non-heap address
        addi sp, 4
        movi r0, 0
        ret
""")
        assert kinds(res).count("InvalidFree") == 2

    def test_calloc_is_defined_malloc_is_not(self):
        res = mc("""
        .text
main:   pushi 4
        pushi 2
        call calloc
        addi sp, 8
        ld   r1, [r0]        ; calloc memory is defined (zero)
        cmpi r1, 0
        je   ok1
ok1:    pushi 8
        call malloc
        addi sp, 4
        ld   r1, [r0]        ; malloc memory is undefined
        cmpi r1, 0
        je   ok2
ok2:    movi r0, 0
        ret
""")
        assert kinds(res) == ["UninitCondition"]  # only the malloc'd read

    def test_realloc_preserves_contents_and_shadow(self):
        res = mc("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r6, r0
        sti  [r6], 42        ; initialise first word only
        pushi 64
        push r6
        call realloc
        addi sp, 8
        mov  r6, r0
        ld   r1, [r6]        ; defined: copied
        cmpi r1, 42
        je   ok
ok:     ld   r1, [r6+4]      ; copied but never initialised
        test r1, r1
        jz   x
x:      push r6
        call free
        addi sp, 4
        movi r0, 0
        ret
""")
        assert kinds(res) == ["UninitCondition"]

    def test_syscall_param_checking(self):
        # write() with an uninitialised buffer: the R4 events catch it.
        res = mc("""
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        movi r2, 0
        add  r2, r0          ; buf
        movi r0, 3           ; write
        movi r1, 1
        movi r3, 16
        syscall
        movi r0, 0
        ret
""")
        assert "SyscallParam" in kinds(res)
        assert any("uninitialised" in e.message for e in res.errors)


class TestLeaks:
    LEAKY = """
        .text
main:   pushi 100
        call malloc
        addi sp, 4
        st   [keep], r0      ; reachable
        pushi 50
        call malloc
        addi sp, 4
        movi r0, 0           ; pointer discarded: lost
        ret
        .data
keep:   .word 0
"""

    def test_leak_summary(self):
        res = mc(self.LEAKY)
        leaks = res.tool._leak_result
        assert leaks["definitely_lost_bytes"] == 50
        assert leaks["definitely_lost_blocks"] == 1
        assert leaks["still_reachable_bytes"] == 100
        assert "LEAK SUMMARY" in res.log

    def test_pointer_in_register_counts_as_root(self):
        res = mc("""
        .text
main:   pushi 64
        call malloc
        addi sp, 4
        mov  r7, r0          ; keep in a register only
        movi r0, 0
        ret
""")
        assert res.tool._leak_result["definitely_lost_bytes"] == 0

    def test_transitive_reachability(self):
        res = mc("""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r6, r0
        st   [keep], r6
        pushi 24
        call malloc
        addi sp, 4
        st   [r6], r0        ; second block only reachable via the first
        movi r0, 0
        ret
        .data
keep:   .word 0
""")
        assert res.tool._leak_result["still_reachable_bytes"] == 32
        assert res.tool._leak_result["definitely_lost_bytes"] == 0

    def test_unreadable_page_is_not_scanned(self):
        # mmap(0, 4096, PROT_WRITE): addressable but unreadable.  The scan
        # covers readable memory only, so it neither faults on the page
        # nor counts the pointer stored there as a root.
        res = mc("""
        .text
main:   movi r0, 7
        movi r1, 0
        movi r2, 4096
        movi r3, 2
        syscall
        mov  r6, r0
        pushi 40
        call malloc
        addi sp, 4
        st   [r6], r0        ; the only pointer, in the write-only page
        movi r0, 0
        ret
""")
        assert res.exit_code == 0
        assert res.tool._leak_result["definitely_lost_bytes"] == 40
        assert res.tool._leak_result["still_reachable_blocks"] == 0

    def test_leak_check_off(self):
        res = vg(self.LEAKY, "memcheck",
                 options=Options(log_target="capture",
                                 tool_options=["--leak-check=no"]))
        assert res.tool._leak_result is None


class TestClientRequests:
    def test_make_mem_defined_suppresses_error(self):
        src = f"""
        .text
main:   subi sp, 8
{clreq_asm(MC_MAKE_MEM_DEFINED, "0", "0")}
        mov  r1, sp
        movi r0, {MC_MAKE_MEM_DEFINED:#x}
        movi r2, 8
        clreq
        ld   r0, [sp]
        addi sp, 8
        cmpi r0, 0
        je   x
x:      movi r0, 0
        ret
"""
        res = mc(src)
        assert kinds(res) == []

    def test_check_and_count_requests(self):
        src = f"""
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        mov  r1, r0
        movi r0, {MC_CHECK_MEM_IS_DEFINED:#x}
        movi r2, 8
        clreq                 ; returns first undefined byte (== block)
        push r0
        call putint
        addi sp, 4
        movi r0, {MC_COUNT_ERRORS:#x}
        clreq
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        res = mc(src)
        lines = res.stdout.split()
        assert int(lines[0]) != 0  # undefined byte found
        assert lines[1] == "0"     # and that's not an "error"


class TestPrecision:
    def test_clean_workloads_have_no_errors(self):
        # Regression net: heavy, realistic programs must be error-free.
        from repro.workloads.suite import build

        for name in ("bzip2", "vortex", "mesa"):
            wl = build(name, scale=0.1)
            res = Valgrind(Memcheck(), Options(log_target="capture")).run(wl.image)
            assert kinds(res) == [], (name, kinds(res))

    def test_error_has_symbolised_stack(self):
        res = mc("""
        .text
main:   call helper
        movi r0, 0
        ret
helper: subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        cmpi r0, 0
        je   x
x:      ret
""")
        err = res.errors[0]
        syms = [f.symbol for f in err.stack]
        assert "helper" in syms and "main" in syms
