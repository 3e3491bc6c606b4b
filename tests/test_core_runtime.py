"""Integration tests of the core runtime: dispatcher behaviour, thread
serialisation, signals, stack events, client requests, function
wrapping/redirection, and syscall-wrapper events."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options
from repro.core import clientreq as CR
from repro.core.scheduler import Scheduler
from repro.core.valgrind import Valgrind
from repro.kernel.memory import (
    PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_RWX, PROT_RX, GuestFault,
    GuestMemory,
)
from repro.core.tool import Tool
from repro.kernel.kernel import SIGUSR1, SYS_KILL, SYS_SIGACTION

from helpers import asm_image, native, vg


class TestDispatcher:
    def test_hit_rate_is_high_on_loops(self):
        src = """
        .text
main:   movi r0, 20000
loop:   dec r0
        jnz loop
        movi r0, 0
        ret
"""
        res = vg(src)
        stats = res.core.scheduler.dispatcher.stats
        # Section 3.9: the fast look-up hit rate is around 98%.
        assert stats.hit_rate > 0.95
        assert stats.blocks_executed > 10000

    def test_chaining_reduces_cache_lookups(self):
        src = """
        .text
main:   movi r0, 5000
loop:   dec r0
        jnz loop
        movi r0, 0
        ret
"""
        plain = vg(src, chaining=False)
        chained = vg(src, options=Options(log_target="capture", chaining=True))
        assert chained.stdout == plain.stdout
        s1 = plain.core.scheduler.dispatcher.stats
        s2 = chained.core.scheduler.dispatcher.stats
        assert s2.chained > 0
        assert s2.fast_hits < s1.fast_hits  # chained executions skip the cache

    def test_quantum_returns_to_scheduler(self):
        src = """
        .text
main:   movi r0, 30000
loop:   dec r0
        jnz loop
        movi r0, 0
        ret
"""
        res = vg(src, options=Options(log_target="capture", dispatch_quantum=100))
        assert res.core.scheduler.dispatcher.stats.quantum_expiries > 10


class TestDispatchCacheTiers:
    LOOP = """
        .text
main:   movi r0, 20000
loop:   dec r0
        jnz loop
        movi r0, 0
        ret
"""

    def test_hit_rate_arithmetic(self):
        from repro.core.dispatch import DispatchStats

        s = DispatchStats()
        assert s.hit_rate == 0.0
        s.fast_hits, s.chained = 70, 20
        s.slow_hits, s.misses = 5, 5
        # hits = fast + chained; total also counts slow hits/misses.
        assert s.hit_rate == pytest.approx(90 / 100)

    def test_flush_cache_clears_both_tiers(self):
        res = vg(
            self.LOOP,
            options=Options(log_target="capture", chaining=True,
                            dispatch_cache_size=64),
        )
        d = res.core.scheduler.dispatcher
        assert any(e is not None for e in d._cache)
        d.flush_cache()
        assert all(e is None for e in d._cache)
        assert len(d._cache) == 64  # size preserved


class TestStatsSections:
    LOOP = TestDispatchCacheTiers.LOOP

    def test_dispatch_section_reports_mega_hits_as_zero(self):
        # The megacache is gone, but the key stays (always 0) because
        # per-layer reports written against older runs still sum it.
        res = vg(self.LOOP, options=Options(log_target="capture",
                                            chaining=True,
                                            stats_format="json"))
        d = res.stats()["dispatch"]
        assert d["mega_hits"] == 0
        assert "mega_evictions" not in d
        assert d["chained"] > 0

    def test_compiled_code_section_counts_host_insns_only(self):
        res = vg(self.LOOP, options=Options(log_target="capture",
                                            chaining=True,
                                            stats_format="json"))
        stats = res.stats()
        assert set(stats["compiled_code"]) == {"host_insns"}
        assert stats["compiled_code"]["host_insns"] > 0
        assert "perf" not in stats


class TestGuestInsnCounting:
    # A loop whose body takes a *side* exit (the jnz back-edge) on all but
    # the last iteration: exact counting must attribute the correct number
    # of guest instructions to every exit path.
    SRC = """
        .text
main:   movi r0, 137
        movi r1, 0
loop:   add  r1, r0
        andi r1, 0xFFFF
        dec  r0
        jnz  loop
        push r1
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""

    @pytest.mark.parametrize("chaining", [False, True])
    def test_icnt_matches_refcpu_exactly(self, chaining):
        img = asm_image(self.SRC)
        nat = native(img)
        res = vg(img, options=Options(log_target="capture", chaining=chaining))
        assert res.stdout == nat.stdout
        assert res.core.scheduler.dispatcher.guest_insns == nat.guest_insns

    @pytest.mark.parametrize("chaining", [False, True])
    def test_icnt_exact_with_unrolling_disabled(self, chaining):
        img = asm_image(self.SRC)
        nat = native(img)
        res = vg(img, options=Options(log_target="capture", chaining=chaining,
                                      unroll=False, opt1=False, opt2=False))
        assert res.core.scheduler.dispatcher.guest_insns == nat.guest_insns

    @pytest.mark.parametrize("chaining", [False, True])
    def test_smallest_accepted_sizes_run_exactly(self, chaining):
        # The lower bounds Options enforces are sizes the engine really
        # runs with: one cache slot, one block per quantum, a one-entry
        # translation table and a single page of stack.
        img = asm_image(self.SRC)
        nat = native(img)
        res = vg(img, options=Options(log_target="capture", chaining=chaining,
                                      dispatch_cache_size=1,
                                      dispatch_quantum=1,
                                      transtab_entries=1,
                                      stack_size=PAGE_SIZE))
        assert (res.exit_code, res.stdout) == (nat.exit_code, nat.stdout)
        assert res.core.scheduler.dispatcher.guest_insns == nat.guest_insns


class TestThreads:
    SRC = """
        .text
main:   movi  r0, 14
        movi  r1, worker
        movi  r2, 0
        movi  r3, 5
        syscall
        mov   r6, r0
        movi  r0, 14
        movi  r1, worker
        movi  r2, 0
        movi  r3, 7
        syscall
        mov   r7, r0
        mov   r1, r6
        movi  r0, 16
        syscall
        mov   r6, r0
        mov   r1, r7
        movi  r0, 16
        syscall
        add   r0, r6
        push  r0
        call  putint
        addi  sp, 4
        movi  r0, 0
        ret
worker: ld    r1, [sp+4]
        movi  r2, 0
        movi  r3, 1000
wloop:  add   r2, r1
        dec   r3
        jnz   wloop
        mov   r1, r2
        movi  r0, 15
        syscall
        halt
"""

    def test_two_threads_join(self, run_both):
        nat, res = run_both(self.SRC)
        assert nat.stdout.strip() == str(5000 + 7000)

    def test_serialisation_lock_discipline(self):
        res = vg(self.SRC)
        lock = res.core.scheduler.big_lock
        assert lock.holder is None  # released at the end
        assert lock.acquisitions == lock.handoffs
        assert lock.acquisitions >= 3  # several timeslices/switches happened


class TestSignals:
    def test_handler_runs_and_registers_restored(self, run_both):
        src = """
        .text
main:   movi r0, 11
        movi r1, 14
        movi r2, handler
        syscall
        movi r0, 13
        movi r1, 500
        syscall
        movi r6, 1234
wait:   ld   r1, [flag]
        test r1, r1
        jz   wait
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        ret
handler:
        sti  [flag], 1
        movi r6, 9999
        ret
        .data
flag:   .word 0
"""
        nat, res = run_both(src)
        # r6 must be restored across the handler (sigreturn semantics).
        assert nat.stdout.strip() == "1234"

    def test_fatal_signal_kills_process(self, run_both):
        src = """
        .text
main:   ld r0, [0x90000000]   ; SIGSEGV
        ret
"""
        nat, res = run_both(src)
        assert nat.exit_code == 128 + 11
        assert res.outcome.fatal_signal == 11

    def test_sigfpe_on_division_by_zero(self, run_both):
        src = """
        .text
main:   movi r0, 1
        movi r1, 0
        divu r0, r1
        ret
"""
        nat, res = run_both(src)
        assert nat.exit_code == 128 + 8

    def test_handler_catches_segv(self, run_both):
        src = """
        .text
main:   movi r0, 11
        movi r1, 11          ; SIGSEGV
        movi r2, handler
        syscall
        ld   r0, [0x90000000]
        halt                 ; not reached: handler longjmps by rewriting
handler:
        pushi msg
        call puts
        addi sp, 4
        movi r0, 7
        push r0
        call exit
        ret
        .data
msg:    .asciz "caught"
"""
        nat, res = run_both(src)
        assert "caught" in nat.stdout and nat.exit_code == 7


class TestStackEvents:
    def test_sp_changes_fire_stack_events(self):
        class StackSpy(Tool):
            name = "stackspy"

            def __init__(self):
                super().__init__()
                self.news = []
                self.dies = []

            def pre_clo_init(self, core):
                super().pre_clo_init(core)
                core.events.track_new_mem_stack(
                    lambda a, s: self.news.append(s)
                )
                core.events.track_die_mem_stack(
                    lambda a, s: self.dies.append(s)
                )

        src = """
        .text
main:   subi sp, 64
        push r0
        pop  r1
        addi sp, 64
        movi r0, 0
        ret
"""
        img = asm_image(src)
        tool = StackSpy()
        res = Valgrind(tool, Options(log_target="capture")).run(img)
        # Adjacent SP writes with no intervening memory operation coalesce
        # (the optimiser removes the redundant PUT, exactly as Valgrind's
        # does), so the 64-byte frame and the 4-byte push appear as one
        # 68-byte allocation; the pop and frame-release likewise.
        assert 68 in tool.news and 4 in tool.news
        assert 68 in tool.dies and 4 in tool.dies

    def test_large_sp_change_is_stack_switch(self):
        class SwitchSpy(Tool):
            name = "switchspy"

            def __init__(self):
                super().__init__()
                self.switches = []
                self.news = []

            def pre_clo_init(self, core):
                super().pre_clo_init(core)
                core.events.track_pre_stack_switch(
                    lambda o, n: self.switches.append((o, n))
                )
                core.events.track_new_mem_stack(lambda a, s: self.news.append(s))

        src = """
        .text
main:   movi r0, 7
        movi r1, 8
        mov  r6, sp
        movi sp, stackbuf+256 ; far away: a stack switch, not an allocation
        push r0               ; observable use of the new stack
        pop  r1
        mov  sp, r6
        movi r0, 0
        ret
        .data
stackbuf: .space 512
"""
        img = asm_image(src)
        tool = SwitchSpy()
        Valgrind(tool, Options(log_target="capture")).run(img)
        assert len(tool.switches) == 2
        assert all(s <= 64 for s in tool.news)  # the big jumps were not "allocations"


class TestClientRequests:
    def test_running_on_valgrind(self):
        src = f"""
        .text
main:
{CR.clreq_asm(CR.RUNNING_ON_VALGRIND)}
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        assert native(src).stdout.strip() == "0"
        assert vg(src).stdout.strip() == "1"

    def test_stack_register_requests(self):
        src = f"""
        .text
main:
{CR.clreq_asm(CR.STACK_REGISTER, "0x40000000", "0x40100000")}
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        res = vg(src)
        assert res.stdout.strip() == "1"  # first stack id
        assert len(res.core.scheduler.registered_stacks) == 1

    def test_client_print(self):
        src = f"""
        .text
main:
{CR.clreq_asm(CR.CLIENT_PRINT, "msg")}
        movi r0, 0
        ret
        .data
msg:    .asciz "hello from the client"
"""
        res = vg(src)
        assert "[client] hello from the client" in res.log

    def test_discard_translations_request(self):
        src = f"""
        .text
main:
{CR.clreq_asm(CR.DISCARD_TRANSLATIONS, "main", "4096")}
        movi r0, 0
        ret
"""
        res = vg(src)
        assert res.exit_code == 0
        assert res.core.scheduler.transtab.stats.discarded > 0


class TestFunctionWrapping:
    def test_wrap_libc_sees_args_and_result(self):
        calls = []

        class MallocSpy(Tool):
            name = "mallocspy"

            def pre_clo_init(self, core):
                super().pre_clo_init(core)

                def wrapper(machine, call_original):
                    sp = machine.reg(4)
                    size = int.from_bytes(machine.mem.read(sp + 4, 4), "little")
                    call_original()
                    calls.append((size, machine.reg(0)))

                core.redirector.wrap_libc("malloc", wrapper)

        src = """
        .text
main:   pushi 48
        call malloc
        addi sp, 4
        push r0
        call free
        addi sp, 4
        movi r0, 0
        ret
"""
        Valgrind(MallocSpy(), Options(log_target="capture")).run(asm_image(src))
        assert len(calls) == 1
        assert calls[0][0] == 48 and calls[0][1] != 0

    def test_wrappers_stack_lifo(self):
        order = []

        class TwoWrappers(Tool):
            name = "two"

            def pre_clo_init(self, core):
                super().pre_clo_init(core)

                def w1(machine, orig):
                    order.append("first")
                    orig()

                def w2(machine, orig):
                    order.append("second")
                    orig()

                core.redirector.wrap_libc("malloc", w1)
                core.redirector.wrap_libc("malloc", w2)

        src = """
        .text
main:   pushi 8
        call malloc
        addi sp, 4
        movi r0, 0
        ret
"""
        Valgrind(TwoWrappers(), Options(log_target="capture")).run(asm_image(src))
        assert order == ["second", "first"]  # most recent runs first

    def test_guest_function_redirection(self):
        class Redirector(Tool):
            name = "redir"

            def post_clo_init(self):
                prog = self.core.program
                self.core.redirector.redirect_guest(
                    prog.symbol("real"), prog.symbol("fake")
                )

        src = """
        .text
main:   call real
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
real:   movi r0, 1
        ret
fake:   movi r0, 2
        ret
"""
        img = asm_image(src)
        assert native(img).stdout.strip() == "1"
        res = Valgrind(Redirector(), Options(log_target="capture")).run(img)
        assert res.stdout.strip() == "2"


class TestSyscallWrapperEvents:
    def test_register_and_memory_events_fire(self):
        class EventLog(Tool):
            name = "eventlog"

            def __init__(self):
                super().__init__()
                self.events = []

            def pre_clo_init(self, core):
                super().pre_clo_init(core)
                ev = core.events
                ev.track_pre_reg_read(
                    lambda tid, off, size, name: self.events.append(("rr", name))
                )
                ev.track_pre_mem_read(
                    lambda tid, a, s, name: self.events.append(("mr", name, s))
                )
                ev.track_post_mem_write(
                    lambda tid, a, s, name: self.events.append(("mw", name, s))
                )
                ev.track_new_mem_brk(
                    lambda a, s, tid: self.events.append(("brk", s))
                )

        src = """
        .text
main:   movi r0, 3          ; write(1, msg, 5)
        movi r1, 1
        movi r2, msg
        movi r3, 5
        syscall
        movi r0, 10         ; gettime(tv)
        movi r1, tv
        syscall
        movi r0, 6          ; brk(grow)
        movi r1, 0
        syscall
        mov  r1, r0
        addi r1, 8192
        movi r0, 6
        syscall
        movi r0, 0
        ret
        .data
msg:    .asciz "hello"
tv:     .space 8
"""
        tool = EventLog()
        res = Valgrind(tool, Options(log_target="capture")).run(asm_image(src))
        assert res.stdout == "hello"
        names = [e for e in tool.events]
        assert ("mr", "write(buf)", 5) in names
        assert ("mw", "gettime(tv)", 8) in names
        assert any(e[0] == "brk" for e in names)
        assert any(e[0] == "rr" and "write" in e[1] for e in names)

    def test_munmap_discards_translations(self):
        src = """
        .text
main:   movi r0, 7          ; mmap(0, 4096, rwx)
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        ; copy a tiny function (movi r0, 5; ret) into it and call it
        movi r1, 0x11
        stb  [r6], r1
        movi r1, 0
        stb  [r6+1], r1
        sti  [r6+2], 5
        movi r1, 3
        stb  [r6+6], r1
        call r6
        push r0
        call putint
        addi sp, 4
        movi r0, 8          ; munmap it (unloading "code")
        mov  r1, r6
        movi r2, 4096
        syscall
        movi r0, 0
        ret
"""
        res = vg(src)
        assert res.stdout.strip() == "5"
        assert res.core.scheduler.transtab.stats.discarded >= 1


def byte_loop_fetch(memory, addr: int, n: int) -> bytes:
    """Reference model of ``Scheduler._fetch``: one byte at a time."""
    out = bytearray(memory.fetch(addr, 1))
    for i in range(1, n):
        try:
            out += memory.fetch(addr + i, 1)
        except GuestFault:
            break
    return bytes(out)


def _outcome(fetch, addr: int, n: int):
    try:
        return ("bytes", fetch(addr, n))
    except GuestFault as exc:
        return ("fault", exc.addr, exc.size, exc.access, exc.reason,
                str(exc))


#: A four-page window's first page: low memory, and the top of the
#: address space (the window wraps to page 0).
_WINDOW_PAGES = st.sampled_from([0, 1, 0x400, 0xFFFFE, 0xFFFFF])
#: Per page: unmapped (None), mapped without exec, or executable.
_PAGE_PROT = st.sampled_from([None, 0, PROT_READ, PROT_EXEC, PROT_RX,
                              PROT_RWX])


class TestSchedulerFetch:
    """``Scheduler._fetch`` reads a page-sized run per call; it must
    agree with the byte-at-a-time model on every layout."""

    @settings(max_examples=300, deadline=None)
    @given(
        first=_WINDOW_PAGES,
        prots=st.lists(_PAGE_PROT, min_size=4, max_size=4),
        offset=st.integers(0, 4 * PAGE_SIZE - 1),
        n=st.one_of(st.integers(0, 24), st.integers(0, 3 * PAGE_SIZE)),
        unmasked=st.booleans(),
    )
    def test_matches_byte_loop(self, first, prots, offset, n, unmasked):
        mem = GuestMemory()
        for i, prot in enumerate(prots):
            pn = (first + i) & 0xFFFFF
            if prot is None:
                continue
            mem.map(pn * PAGE_SIZE, PAGE_SIZE, prot)
            mem.write_raw(pn * PAGE_SIZE,
                          bytes((pn + j) & 0xFF for j in range(PAGE_SIZE)))
        addr = (first * PAGE_SIZE + offset) & 0xFFFFFFFF
        if unmasked:
            addr += 1 << 32  # fetch masks its address, like the model
        sched = SimpleNamespace(memory=mem)
        got = _outcome(lambda a, k: Scheduler._fetch(sched, a, k), addr, n)
        want = _outcome(lambda a, k: byte_loop_fetch(mem, a, k), addr, n)
        assert got == want

    def test_wraps_at_top_of_address_space(self):
        mem = GuestMemory()
        mem.map(0xFFFFF000, PAGE_SIZE, PROT_RX)
        mem.map(0, PAGE_SIZE, PROT_RX)
        mem.write_raw(0xFFFFFFFE, b"\xaa\xbb")
        mem.write_raw(0, b"\xcc\xdd")
        sched = SimpleNamespace(memory=mem)
        assert Scheduler._fetch(sched, 0xFFFFFFFE, 4) == b"\xaa\xbb\xcc\xdd"

    def test_unfetchable_first_byte_faults_like_one_byte_fetch(self):
        mem = GuestMemory()
        mem.map(0x1000, PAGE_SIZE, PROT_READ)
        sched = SimpleNamespace(memory=mem)
        for addr, reason in ((0x1ff0, "permission denied"),
                             (0x5000, "unmapped")):
            with pytest.raises(GuestFault) as info:
                Scheduler._fetch(sched, addr, 16)
            exc = info.value
            assert (exc.addr, exc.size, exc.access, exc.reason) == (
                addr, 1, "exec", reason)
