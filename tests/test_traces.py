"""The superblock trace tier (``--codegen=traces``).

The differential suites (test_perf_mode, test_fault_precision,
test_replay_differential) prove the trace tier computes bit-identically
to the closure engine; this file tests the trace machinery itself:
recording and splicing, the seam plans, side exits, invalidation (SMC
discard, transtab eviction, munmap), the stale-code consistency
contract, break-even admission, and the ``--stats=json`` ``traces``
section.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import Options
from repro.backend import pygen as _pygen
from repro.backend.hostisa import (
    BIN, CALL, LI, RET, SETPCI, SIDEEXIT, SIDEEXITR, TRACEMARK, UN,
    decode_insns,
)
from repro.core import clientreq as CR
from repro.core import traces as _traces
from repro.core import translate as _translate
from repro.core.codegen import CODEGEN_MODES
from repro.core.options import BadOption
from repro.core.traces import VG_TRACE_CALL, VG_TRACE_RET
from repro.workloads import suite

from .helpers import asm_image, cache_entries, native, vg

#: A nested hot loop: the inner chain records and stitches, the outer
#: back edge leaves the trace through a side exit every iteration.
NESTED_LOOP_SRC = """
        .text
main:   movi r0, 0
        movi r1, 0
        movi fp, 200
outer:  movi r2, 3
inner:  add  r0, r2
        dec  r2
        jnz  inner
        inc  r1
        dec  fp
        jnz  outer
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
"""

#: Many distinct call targets — enough blocks to overflow a tiny
#: translation table while traces are live.
CALL_HEAVY_SRC = """
        .text
main:   movi r6, 0
        movi fp, 60
loop:   call fn1
        add  r6, r0
        call fn2
        add  r6, r0
        call fn3
        add  r6, r0
        dec  fp
        jnz  loop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
fn1:    movi r0, 1
        ret
fn2:    movi r0, 2
        ret
fn3:    movi r0, 3
        ret
"""


def run_traces(src_or_img, **kw):
    kw.setdefault("codegen", "traces")
    kw.setdefault("trace_threshold", 5)
    kw.setdefault("stats_format", "json")
    return vg(src_or_img, "none", **kw)


class TestOptions:
    def test_traces_is_a_codegen_mode(self):
        assert "traces" in CODEGEN_MODES
        o = Options()
        assert o.set("--codegen=traces")
        assert o.codegen == "traces"

    def test_trace_threshold_flag(self):
        o = Options()
        assert o.set("--trace-threshold=3")
        assert o.trace_threshold == 3
        with pytest.raises(BadOption):
            o.set("--trace-threshold=0")

    def test_max_trace_blocks_flag(self):
        o = Options()
        assert o.set("--max-trace-blocks=4")
        assert o.max_trace_blocks == 4
        with pytest.raises(BadOption):
            o.set("--max-trace-blocks=1")


class TestRecordingAndStitching:
    def test_hot_chain_becomes_a_trace(self):
        img = asm_image(NESTED_LOOP_SRC)
        nat = native(img)
        res = run_traces(img)
        assert res.exit_code == nat.exit_code
        assert res.stdout == nat.stdout
        tr = res.stats()["traces"]
        assert tr["traces_built"] >= 1
        assert tr["runs"] > 0
        assert tr["blocks_retired"] > tr["runs"], \
            "a trace run must retire more than one member block"
        assert tr["insns_retired"] > 0
        mgr = res.core.scheduler.traces
        assert mgr is not None
        assert all(t.n_blocks >= 2 for t in mgr.traces.values())

    def test_side_exits_demote_cleanly(self):
        # The inner loop's exit edge fires every outer iteration: those
        # runs leave mid-trace, retire an exact partial insn count, and
        # execution continues in the block tier with no state damage.
        res = run_traces(NESTED_LOOP_SRC)
        tr = res.stats()["traces"]
        assert tr["side_exits"] > 0
        assert tr["side_exits"] < tr["runs"] + 1

    def test_accounting_identical_to_block_tiers(self):
        img = asm_image(NESTED_LOOP_SRC)
        rows = {}
        for mode in CODEGEN_MODES:
            r = vg(img, "none", codegen=mode, trace_threshold=5,
                   stats_format="json")
            s = r.stats()
            rows[mode] = (
                s["dispatch"]["blocks_executed"],
                s["dispatch"]["guest_insns"],
                s["translations_made"],
                r.stdout,
                r.exit_code,
            )
        assert rows["closures"] == rows["pygen"] == rows["traces"], rows

    def test_traces_never_enter_the_translation_table(self):
        res = run_traces(NESTED_LOOP_SRC)
        sched = res.core.scheduler
        addrs = {t.guest_addr for t in sched.transtab.all_translations()}
        for head, trace in sched.traces.traces.items():
            assert sched.transtab.lookup(head) is not trace
        assert sched.traces.traces, "no trace survived to end of run"
        # Heads are ordinary block translations; the trace shadows them.
        assert set(sched.traces.traces) <= addrs

    def test_max_trace_blocks_bounds_members(self):
        res = run_traces(CALL_HEAVY_SRC, trace_threshold=3,
                         max_trace_blocks=3)
        mgr = res.core.scheduler.traces
        assert mgr.built
        assert all(t.n_blocks <= 3 for t in mgr.built)

    def test_stats_json_section_shape(self):
        res = run_traces(NESTED_LOOP_SRC)
        tr = res.stats()["traces"]
        for key in ("trace_threshold", "max_trace_blocks", "traces_built",
                    "deferred", "admitted",
                    "live_traces", "compile_failures", "recordings_aborted",
                    "demotions", "pruned", "runs", "side_exits",
                    "blocks_retired", "insns_retired", "compile_seconds"):
            assert key in tr, key
        # Other tiers report no traces section at all.
        plain = vg(NESTED_LOOP_SRC, "none", codegen="pygen",
                   stats_format="json")
        assert plain.stats()["traces"] is None


class TestInvalidation:
    def test_transtab_discard_severs_containing_traces(self):
        # An SMC flush and a munmap both funnel into transtab discards;
        # killing any member must sever every trace containing it.
        res = run_traces(NESTED_LOOP_SRC)
        sched = res.core.scheduler
        mgr = sched.traces
        assert mgr.traces
        head, trace = next(iter(mgr.traces.items()))
        head_t = trace.members[0]
        # With loop unrolling a member list may revisit the head; sever
        # through a *different* block so the head survives the discard.
        victim = next(m for m in trace.members if m is not head_t)
        affected = [tr for tr in mgr.traces.values()
                    if any(m is victim for m in tr.members)]
        before = mgr.demotions
        assert sched.transtab.discard(victim.guest_addr)
        assert trace.dead
        assert head not in mgr.traces
        # One demotion per trace sharing the victim block.
        assert mgr.demotions == before + len(affected)
        assert all(tr.dead for tr in affected)
        # The surviving head may re-record: its counter was reset.
        assert head_t.exec_count == 0

    def test_eviction_mid_run_severs_and_output_matches_native(self):
        img = asm_image(CALL_HEAVY_SRC)
        nat = native(img)
        res = run_traces(img, trace_threshold=3, transtab_entries=12,
                         dispatch_cache_size=16)
        assert res.stdout == nat.stdout
        assert res.exit_code == nat.exit_code
        sched = res.core.scheduler
        assert sched.transtab.stats.evict_rounds > 0, \
            "fixture too large to force eviction"
        tr = res.stats()["traces"]
        assert tr["traces_built"] >= 1
        assert tr["demotions"] >= 1, \
            "eviction never severed a live trace"
        for trace in sched.traces.traces.values():
            assert not trace.dead
            assert all(not m.dead for m in trace.members)

    def test_smc_patch_consistent_with_block_tier(self):
        # Under --smc-check=stack (the default), patching non-stack code
        # legitimately keeps running the stale translation; the trace
        # tier must reproduce that behaviour *exactly* — its build-time
        # member hash check pins traces to translation-time bytes, so a
        # stale block and a stale trace stay in agreement.
        src = """
        .text
main:   movi r0, 7          ; mmap(0, 4096, rwx)
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        ; write a tiny function: movi r0, 5 ; ret
        movi r1, 0x11
        stb  [r6], r1
        movi r1, 0
        stb  [r6+1], r1
        sti  [r6+2], 5
        movi r1, 3
        stb  [r6+6], r1
        movi r7, 40
hot:    call r6
        dec  r7
        jnz  hot
        push r0
        call putint
        addi sp, 4
        ; patch the immediate mid-run
        sti  [r6+2], 9
        call r6
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        img = asm_image(src)
        base = vg(img, "none", codegen="closures", smc_check="stack")
        res = run_traces(img, smc_check="stack", trace_threshold=3)
        assert res.stdout == base.stdout
        assert res.exit_code == base.exit_code

    def test_smc_flush_detected_with_check_all(self):
        # With --smc-check=all every block re-verifies its bytes, so the
        # patch is detected; checked blocks never join traces, and the
        # run stays correct end to end.
        src = """
        .text
main:   movi r0, 7
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        movi r1, 0x11
        stb  [r6], r1
        movi r1, 0
        stb  [r6+1], r1
        sti  [r6+2], 5
        movi r1, 3
        stb  [r6+6], r1
        movi r7, 10
hot:    call r6
        dec  r7
        jnz  hot
        push r0
        call putint
        addi sp, 4
        sti  [r6+2], 9
        call r6
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        res = run_traces(src, smc_check="all", trace_threshold=3)
        assert res.stdout.split() == ["5", "9"]
        sched = res.core.scheduler
        assert sched.transtab.stats.discarded >= 1
        assert sched.dispatcher.stats.smc_flushes >= 1

    def test_low_quality_trace_is_pruned(self):
        # A trace whose runs on average retire fewer than 1.5 member
        # blocks past the probation window costs more than it saves;
        # the next side exit demotes it and pins the head to the block
        # tier so the same biased chain is not re-recorded.
        from repro.core.traces import _TRACE_PROBE

        res = run_traces(NESTED_LOOP_SRC)
        mgr = res.core.scheduler.traces
        head, trace = next(iter(mgr.traces.items()))
        head_t = trace.members[0]
        trace.runs = _TRACE_PROBE
        trace.blocks = _TRACE_PROBE  # avg 1.0 < 1.5
        before = mgr.pruned
        mgr.note_side_exit(trace)
        assert mgr.pruned == before + 1
        assert trace.dead
        assert head not in mgr.traces
        assert head_t.trace is None
        assert head_t.trace_failed

    def test_good_trace_survives_probation(self):
        res = run_traces(NESTED_LOOP_SRC)
        mgr = res.core.scheduler.traces
        head, trace = next(iter(mgr.traces.items()))
        trace.runs = 1000
        trace.blocks = 1000 * trace.n_blocks  # every run retires fully
        mgr.note_side_exit(trace)
        assert not trace.dead
        assert head in mgr.traces

    def test_failed_build_marks_head_and_never_retries(self):
        res = run_traces(NESTED_LOOP_SRC)
        sched = res.core.scheduler
        mgr = sched.traces
        head, trace = next(iter(mgr.traces.items()))
        head_t = trace.members[0]
        # Simulate a build failure on a fresh head: the flag stops both
        # re-requests and re-recordings.
        head_t.trace_failed = True
        mgr.request(head_t)
        assert head_t.guest_addr not in mgr._want

    @pytest.mark.parametrize("program", ["parser", "vortex"])
    def test_no_request_outlives_its_head_joining_a_trace(self, program,
                                                          monkeypatch):
        """On these programs a requested head joins another head's trace
        and never runs on the block path again: its request is dropped
        when the trace is installed, so no request is left at exit and
        the recorder hook runs only while a recording is pending."""
        idle = []
        on_block = _traces.TraceManager.on_block

        def spy(mgr, t, jk):
            if not (mgr._members or mgr._want):
                idle.append(t.guest_addr)
            on_block(mgr, t, jk)

        monkeypatch.setattr(_traces.TraceManager, "on_block", spy)
        img = suite.build(program, 0.05).image
        res = vg(img, "none", argv=[program], codegen="traces",
                 chaining=True, stats_format="json")
        mgr = res.core.scheduler.traces
        assert mgr.built
        assert not mgr._want
        assert not mgr.active
        assert idle == []


#: Seam-plan programs.  Each leaves a freed heap block in r5 and reads
#: it at the first instruction of a trace member other than the head, so
#: Memcheck reports there from inside a trace, and each leaves its trace
#: through a side exit at least once.
_FREED = """
        .text
main:   pushi 64
        call malloc
        addi sp, 4
        mov  r5, r0
        push r5
        call free
        addi sp, 4
        movi r6, 0
        movi r7, 41
"""
_EXIT = """
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
"""
SEAM_SRCS = {
    # `call fn1` ends its block in SETPCI fn1: a Call seam that falls
    # into fn1; fn1's `ret` is a Ret seam.
    "fall": _FREED + """
loop:   call fn1
        dec  r7
        jnz  loop
""" + _EXIT + """
fn1:    ld   r1, [r5]
        add  r6, r1
        ret
""",
    # The taken back edge of a one-block loop: unrolled members join
    # through inverted exits, and the last iteration leaves mid-trace.
    "invert": _FREED + """
loop:   ld   r1, [r5]
        add  r6, r1
        dec  r7
        jnz  loop
""" + _EXIT,
    # A computed jump that cycles through three targets: the trace
    # guards the target it recorded, and as four iterations fill a
    # trace, runs start out of phase and leave through the guard.
    "guard": _FREED + """
        movi r3, t1
loop:   jmp  r3
t1:     ld   r1, [r5]
        add  r6, r1
        movi r3, t2
        jmp  next
t2:     add  r6, r7
        movi r3, t3
        jmp  next
t3:     xor  r6, r7
        movi r3, t1
next:   dec  r7
        jnz  loop
""" + _EXIT,
}


def segments(trace):
    """A trace's decoded host code, split at each TRACEMARK."""
    segs = []
    for insn in decode_insns(trace.code):
        if isinstance(insn, TRACEMARK):
            assert insn.index == len(segs)
            segs.append([])
        else:
            segs[-1].append(insn)
    return segs


def seam_plans(trace):
    """``(plan, seam helper)`` of every seam of *trace*, checking that
    each member's segment is that member's own host code up to its seam
    (exit counts offset by the members before it) and that the last
    segment is the last member's code whole."""
    plans = []
    segs = segments(trace)
    assert len(segs) == len(trace.members) >= 2
    base = 0
    for j, (seg, m) in enumerate(zip(segs, trace.members)):
        own = [replace(i, icnt=i.icnt + base)
               if isinstance(i, (SIDEEXIT, RET)) else i
               for i in decode_insns(m.code)]
        base = own[-1].icnt
        if j + 1 == len(segs):
            assert seg == own
            break
        nxt = trace.members[j + 1].guest_addr
        tail = list(seg)
        assert tail.pop() == SETPCI(nxt)
        helper = None
        if isinstance(tail[-1], CALL):
            call = tail.pop()
            helper = call.helper
            assert helper in (VG_TRACE_CALL, VG_TRACE_RET) and call.dirty
            assert call.args[0].value == nxt
        if isinstance(tail[-1], SIDEEXITR):
            li, cmp, ex = tail[-3:]
            s, r = li.dst, own[-2].src
            assert li == LI(s, nxt) and s != r
            assert cmp == BIN("CmpNE32", s, r, s)
            assert ex == SIDEEXITR(s, r, own[-1].jk, own[-1].icnt)
            plan, body = "guard", tail[:-3]
        elif isinstance(tail[-1], SIDEEXIT):
            inv, ex = tail[-2:]
            taken = own[-3]
            assert taken.dst == nxt and inv == UN("Not1", taken.cond,
                                                   taken.cond)
            assert ex == SIDEEXIT(taken.cond, own[-2].dst, own[-1].jk,
                                  own[-1].icnt)
            plan, body = "invert", tail[:-2] + [taken]
        else:
            assert own[-2] == SETPCI(nxt)
            plan, body = "fall", tail
        assert body == own[:len(own) - 2]
        plans.append((plan, helper))
    return plans


def run_engine(src, codegen, **kw):
    return vg(src, "memcheck", codegen=codegen, chaining=True,
              trace_threshold=5, stats_format="json", **kw)


class TestSplice:
    def test_traces_splice_member_code_and_keep_no_ir(self, tmp_path):
        """Translations hold no IR and ``t/`` entries store none; a
        trace's code is each member's own host code up to its seam."""
        res = run_engine(SEAM_SRCS["fall"], "traces",
                         cache_dir=str(tmp_path))
        sched = res.core.scheduler
        assert all(t.irsb is None
                   for t in sched.transtab.all_translations())
        entries = [e[4] for e in cache_entries(tmp_path) if e[1] == "t"]
        assert entries
        assert all(set(e) == {"format", "addr", "ranges", "guest_sha",
                              "code", "stats"} for e in entries)
        traces = list(sched.traces.traces.values())
        assert traces
        for tr in traces:
            plans = seam_plans(tr)
            assert tr.total_insns == sum(m.stats.guest_insns
                                         for m in tr.members)
            assert len(plans) == len(tr.members) - 1

    @pytest.mark.parametrize("plan", sorted(SEAM_SRCS))
    def test_seam_plan_matches_pygen(self, plan):
        src = SEAM_SRCS[plan]
        ref = run_engine(src, "pygen")
        res = run_engine(src, "traces")
        assert (res.stdout, res.exit_code, res.log) == (
            ref.stdout, ref.exit_code, ref.log)
        assert (res.stats()["dispatch"]["guest_insns"]
                == ref.stats()["dispatch"]["guest_insns"])
        assert "Invalid read" in res.log
        tr = res.stats()["traces"]
        assert tr["traces_built"] > 0 and tr["side_exits"] > 0
        seams = {p for trace in res.core.scheduler.traces.traces.values()
                 for p in seam_plans(trace)}
        assert plan in {p for p, _ in seams}
        if plan == "fall":
            assert ("fall", VG_TRACE_CALL) in seams
            assert ("guard", VG_TRACE_RET) in seams

    def test_trace_spans_its_members(self):
        res = run_traces(NESTED_LOOP_SRC)
        mgr = res.core.scheduler.traces
        assert mgr.traces
        for trace in mgr.traces.values():
            assert trace.n_blocks == len(trace.members)
            for m in trace.members:
                assert trace.covers(m.guest_addr)
            assert trace.total_insns == trace.stats.guest_insns
            assert trace.compiled_fn is not None

    def test_trace_compiled_source_is_one_function(self):
        res = run_traces(NESTED_LOOP_SRC)
        mgr = res.core.scheduler.traces
        trace = next(iter(mgr.traces.values()))
        src = getattr(trace.compiled_fn, "pygen_source", None)
        assert src is not None
        assert src.count("def ") == 1


#: A loop of *n* iterations.  The block at ``main`` runs the first, so
#: the block at ``loop`` runs n - 1 times, and its one recording is
#: max_trace_blocks unrolled copies of it.
LOOP_SRC = """
        .text
main:   movi r6, 0
        movi r7, {n}
loop:   add  r6, r7
        dec  r7
        jnz  loop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
"""

#: A short loop whose recordings never reach break-even, then a long
#: one with a call and a Memcheck error whose recordings do.
MIXED_SRC = """
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        mov  r5, r0
        push r5
        call free
        addi sp, 4
        movi r6, 0
        movi r7, 60
warm:   add  r6, r7
        dec  r7
        jnz  warm
        movi r7, 4000
hot:    call fn1
        add  r6, r0
        dec  r7
        jnz  hot
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
fn1:    ld   r1, [r5]
        add  r6, r1
        movi r0, 3
        ret
"""

#: A call loop that discards the translations at *victim* once, at
#: iteration 300 of 3000: after its recordings are deferred, before
#: they reach break-even.
DISCARD_SRC = """
        .text
main:   movi r6, 0
        movi r7, 3000
loop:   call fn1
        add  r6, r0
        cmp  r7, 2700
        jnz  next
""" + CR.clreq_asm(CR.DISCARD_TRANSLATIONS, "{victim}", "4") + """
next:   dec  r7
        jnz  loop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
fn1:    movi r0, 3
        ret
"""


def fresh_process_caches():
    """Empty the process-wide caches, as a new process starts."""
    _pygen.clear_emit_cache()
    _traces._BUILD_CACHE.clear()
    _translate.clear_translation_cache()


def break_even_runs(members, k):
    return math.ceil(k * sum(len(m.code) for m in members) / len(members))


def decisions(res):
    """Every count of a run's ``traces`` section; the build cache's are
    process-wide, and compile_seconds is a time."""
    tr = dict(res.stats()["traces"])
    del tr["build_cache"], tr["compile_seconds"]
    return tr


class TestAdmission:
    """Break-even admission at the shipped BREAK_EVEN_K (the rest of
    the suite builds every recording when it ends)."""

    @pytest.fixture(autouse=True)
    def _shipped(self, break_even_k):
        assert break_even_k > 0
        self.k = break_even_k
        fresh_process_caches()

    def run(self, src, tool="none", **kw):
        kw.setdefault("codegen", "traces")
        kw.setdefault("chaining", True)
        kw.setdefault("trace_threshold", 5)
        kw.setdefault("stats_format", "json")
        # A fresh run has no code cache either (not $REPRO_CACHE_DIR's).
        kw.setdefault("cache_dir", None)
        return vg(src, tool, **kw)

    def test_short_loop_builds_no_trace(self):
        img = asm_image(LOOP_SRC.format(n=60))
        res = self.run(img)
        tr = res.stats()["traces"]
        assert (tr["traces_built"], tr["deferred"], tr["admitted"],
                tr["spliced"]) == (0, 1, 0, 0)
        ref = vg(img, "none", codegen="pygen", chaining=True,
                 stats_format="json")
        nat = native(img)
        guest = res.stats()["dispatch"]["guest_insns"]
        assert (res.stdout, res.exit_code, guest) == (
            ref.stdout, ref.exit_code, ref.stats()["dispatch"]["guest_insns"])
        assert (res.stdout, res.exit_code, guest) == (
            nat.stdout, nat.exit_code, nat.guest_insns)

    def test_long_loop_admits_at_break_even(self):
        threshold, blocks = 5, 8
        short = self.run(LOOP_SRC.format(n=60), max_trace_blocks=blocks)
        (members,) = short.core.scheduler.traces._deferred.values()
        assert len(members) == blocks
        need = break_even_runs(members, self.k)
        assert need == math.ceil(self.k * len(members[0].code))
        # The run that crosses the threshold starts the recording, the
        # recording ends max_trace_blocks runs later, and the build
        # waits for *need* more.
        at = threshold + blocks - 1 + need
        for runs, built in ((at - 1, 0), (at, 1)):
            fresh_process_caches()
            img = asm_image(LOOP_SRC.format(n=runs + 1))
            res = self.run(img, max_trace_blocks=blocks)
            tr = res.stats()["traces"]
            assert (tr["traces_built"], tr["deferred"], tr["admitted"]) == (
                built, 1, built), runs
            nat = native(img)
            assert (res.stdout, res.exit_code) == (nat.stdout, nat.exit_code)
        trace = res.core.scheduler.traces.built[0]
        assert [m.guest_addr for m in trace.members] == [
            m.guest_addr for m in members]

    def test_fresh_runs_decide_alike(self):
        img = asm_image(MIXED_SRC)
        runs = []
        for _ in range(2):
            fresh_process_caches()
            runs.append(self.run(img, "memcheck"))
        first, second = runs
        tr = decisions(first)
        assert tr["deferred"] > tr["admitted"] > 0
        assert decisions(second) == tr
        assert second.stats()["dispatch"] == first.stats()["dispatch"]

    def test_warm_cache_dir_run_decides_like_cold(self, tmp_path):
        img = asm_image(MIXED_SRC)
        cold = self.run(img, "memcheck", cache_dir=str(tmp_path))
        fresh_process_caches()
        warm = self.run(img, "memcheck", cache_dir=str(tmp_path))
        c_tr, w_tr = decisions(cold), decisions(warm)
        assert c_tr["spliced"] == c_tr["admitted"] > 0
        assert w_tr.pop("spliced") == 0
        del c_tr["spliced"]
        assert w_tr == c_tr
        assert warm.stats()["dispatch"] == cold.stats()["dispatch"]
        cache = warm.stats()["cache"]
        assert cache["trace_misses"] == 0
        assert cache["bytes_written"] == 0
        assert cache["trace_hits"] == w_tr["admitted"]
        assert (warm.stdout, warm.exit_code, warm.log) == (
            cold.stdout, cold.exit_code, cold.log)

    def test_in_process_repeat_installs_cached_builds(self):
        img = asm_image(MIXED_SRC)
        first = self.run(img, "memcheck")
        second = self.run(img, "memcheck")
        t1, t2 = decisions(first), decisions(second)
        assert t1["admitted"] > 0
        # The builds the first run admitted are bound when the second
        # run's recordings end; nothing is spliced again.
        assert t2["spliced"] == 0
        assert t2["traces_built"] - t2["admitted"] > 0
        s1, s2 = first.stats(), second.stats()
        assert (second.stdout, second.exit_code, second.log) == (
            first.stdout, first.exit_code, first.log)
        assert "Invalid read" in first.log
        # Only the dispatch path may differ: hits, chain follows and the
        # trace runs that the earlier traces take over.
        for key in ("guest_insns", "blocks_executed", "misses"):
            assert s2["dispatch"][key] == s1["dispatch"][key], key
        assert s2["transtab"] == s1["transtab"]
        assert s2["translations_made"] == s1["translations_made"]

    @pytest.mark.parametrize("victim", ["fn1", "loop"])
    def test_deferred_recording_outlived_by_a_member_builds_nothing_stale(
            self, victim, monkeypatch):
        """A member (fn1) or the head (loop) of deferred recordings is
        discarded before they reach break-even: no build reads a dead
        member, a trace forms over the retranslated code, and the run
        matches the reference CPU."""
        stale = []
        build = _traces.TraceManager._build

        def spy(mgr, members):
            stale.extend(m for m in members if m.dead)
            return build(mgr, members)

        monkeypatch.setattr(_traces.TraceManager, "_build", spy)
        img = asm_image(DISCARD_SRC.format(victim=victim))
        nat = native(img)
        res = self.run(img)
        assert res.core.scheduler.transtab.stats.discarded >= 1
        assert (res.stdout, res.exit_code,
                res.stats()["dispatch"]["guest_insns"]) == (
            nat.stdout, nat.exit_code, nat.guest_insns)
        assert stale == []
        mgr = res.core.scheduler.traces
        tr = res.stats()["traces"]
        if victim == "fn1":
            # Deferred recordings holding the old fn1 are dropped when
            # their heads reach break-even, and their heads record again.
            assert tr["recordings_aborted"] >= 1
        assert tr["admitted"] >= 1
        assert all(not ms[0].dead for ms in mgr._deferred.values())
        assert any(m.guest_addr == img.symbols[victim] and not m.dead
                   for t in mgr.traces.values() for m in t.members)
