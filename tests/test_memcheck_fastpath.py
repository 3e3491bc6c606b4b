"""Differential suite for the Memcheck pygen fast paths.

The inlined LOADV/STOREV sequences are a pure performance feature: with
``--memcheck-fastpath=no`` every access goes through the helpers
instead.  Everything observable — the error log, exit codes, stdout,
page-table statistics — must be byte-identical either way, on every
registry engine, under fault-injection chaos, and with a warm on-disk
cache.  Only the ``fastpath`` counter sub-section (which counts emitted
fast-path hits, an emission property by construction) may differ.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Options, assemble, run_tool
from repro.core.engines import ENGINES
from repro.core.translate import clear_translation_cache

from helpers import asm_image, programs, vg

#: The helper-only reference every engine is compared with.
PAPER = ENGINES["paper"].options

#: Named workloads covering the fast paths' interesting edges: clean
#: loops (pure fast path), heap overruns and use-after-free (A-bit
#: check must route to the error-reporting helper), uninitialised reads
#: (V-bit propagation through the inline slice), and stack churn
#: (partially-addressable pages).
PROGRAMS = {
    "clean_heap_loop": """
        .text
main:   pushi 64
        call malloc
        addi sp, 4
        mov  r6, r0
        movi r1, 0
fill:   st   [r6+r1], r1
        addi r1, 4
        cmpi r1, 64
        jne  fill
        movi r1, 0
        movi r3, 0
sum:    ld   r2, [r6+r1]
        add  r3, r2
        addi r1, 4
        cmpi r1, 64
        jne  sum
        push r6
        call free
        addi sp, 4
        movi r0, 0
        ret
""",
    "overrun_rw": """
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        ld   r1, [r0+16]
        sti  [r0+20], 5
        push r0
        call free
        addi sp, 4
        movi r0, 0
        ret
""",
    "use_after_free": """
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
""",
    "uninit_condition": """
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        cmpi r0, 1
        je   x
x:      movi r0, 0
        ret
""",
    "stack_churn": """
        .text
main:   movi r2, 0
        movi r3, 0
top:    subi sp, 16
        sti  [sp], 7
        ld   r1, [sp]
        add  r3, r1
        addi sp, 16
        addi r2, 1
        cmpi r2, 20
        jne  top
        movi r0, 0
        ret
""",
}


#: Errors raised in the middle of a block inside a hot loop: the
#: reporting helper runs while earlier instructions' guest-state writes
#: (the PC above all) are still pending, so each engine must commit them
#: before the report.  Each loop runs 40 times, well past
#: ``MID_BLOCK_TRACE_THRESHOLD``, so the trace engines report from
#: inside a trace as well.  The loop counts live in memory, so an engine
#: that loses a pending register write prints a wrong sum instead of
#: looping forever.
MID_BLOCK = {
    "uninit_condition": """
        .text
main:   subi sp, 16
        movi r2, 0
loop:   addi r2, 3
        ld   r0, [sp+4]
        addi r2, 5
        cmpi r0, 1
        je   skip
        addi r2, 1
skip:   ld   r3, [count]
        subi r3, 1
        st   [count], r3
        cmpi r3, 0
        jne  loop
        addi sp, 16
        push r2
        call putint
        addi sp, 4
        movi r0, 0
        ret
        .data
count:  .word 40
""",
    "uninit_address": """
        .text
main:   pushi 64
        call malloc
        addi sp, 4
        mov  r6, r0
        subi sp, 16
        movi r2, 0
loop:   addi r2, 5
        ld   r7, [sp+8]
        muli r7, 0
        add  r7, r6
        ld   r1, [r7]
        add  r2, r1
        ld   r3, [count]
        subi r3, 1
        st   [count], r3
        cmpi r3, 0
        jne  loop
        addi sp, 16
        push r6
        call free
        addi sp, 4
        push r2
        call putint
        addi sp, 4
        movi r0, 0
        ret
        .data
count:  .word 40
""",
    "heap_overrun": """
        .text
main:   pushi 16
        call malloc
        addi sp, 4
        mov  r6, r0
        movi r2, 0
loop:   addi r2, 7
        ld   r1, [r6+16]
        add  r2, r1
        sti  [r6+20], 5
        ld   r3, [count]
        subi r3, 1
        st   [count], r3
        cmpi r3, 0
        jne  loop
        push r6
        call free
        addi sp, 4
        push r2
        call putint
        addi sp, 4
        movi r0, 0
        ret
        .data
count:  .word 40
""",
}
MID_BLOCK_ERRORS = {
    "uninit_condition": ["UninitCondition"],
    "uninit_address": ["UninitValue"],
    "heap_overrun": ["InvalidRead", "InvalidWrite"],
}
MID_BLOCK_TRACE_THRESHOLD = 5

#: A call/return loop under Taintcheck, whose guarded sink on every
#: ``ret`` is a dirty helper outside MC_NO_STATE_WRITE.
CALL_LOOP = """
        .text
main:   movi r2, 0
loop:   addi r2, 2
        call fn1
        ld   r3, [count]
        subi r3, 1
        st   [count], r3
        cmpi r3, 0
        jne  loop
        push r2
        call putint
        addi sp, 4
        movi r0, 0
        ret
fn1:    addi r2, 1
        ret
        .data
count:  .word 30
"""

def observe(res):
    """Everything that must not depend on the fast path."""
    return (
        res.exit_code,
        res.stdout,
        res.log,
        [(e.kind, e.message) for e in res.errors],
        {k: v for k, v in res.stats().get("memcheck_shadow", {}).items()
         if k != "fastpath"},
    )


def run_one(src, fast, **kw):
    if kw.get("cache_dir"):
        # Start from an empty memory translation tier, as a fresh
        # process does, so translations go through the disk cache.
        clear_translation_cache()
    return vg(src, "memcheck", memcheck_fastpath=fast, **kw)


class TestDifferentialAcrossTiers:
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_fastpath_is_observably_identical(self, engine, name):
        on = run_one(PROGRAMS[name], True, **ENGINES[engine].options)
        off = run_one(PROGRAMS[name], False, **ENGINES[engine].options)
        assert observe(on) == observe(off)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_tiers_agree_with_closures_reference(self, engine):
        """Every engine with the fast path on must match the helper-only
        paper engine (the reference semantics)."""
        ref = run_one(PROGRAMS["overrun_rw"], False, **PAPER)
        got = run_one(PROGRAMS["overrun_rw"], True, **ENGINES[engine].options)
        assert observe(got) == observe(ref)


class TestMidBlockErrors:
    """Error reports raised mid-block: every engine's whole Memcheck log
    must equal the paper engine's, byte for byte.  Runs with the fast
    path at its default, which CI sets on and off."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("name", sorted(MID_BLOCK))
    def test_log_matches_closures(self, engine, name, trace_threshold):
        trace_threshold(MID_BLOCK_TRACE_THRESHOLD)
        ref = vg(MID_BLOCK[name], "memcheck", **PAPER)
        got = vg(MID_BLOCK[name], "memcheck", **ENGINES[engine].options)
        assert sorted({e.kind for e in ref.errors}) == MID_BLOCK_ERRORS[name]
        assert (got.exit_code, got.stdout, got.log) == (
            ref.exit_code, ref.stdout, ref.log)
        if ENGINES[engine].codegen == "traces":
            assert got.stats()["traces"]["traces_built"] > 0

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("engine", [n for n, e in ENGINES.items()
                                        if e.codegen != "closures"])
    @pytest.mark.parametrize("name", sorted(MID_BLOCK))
    def test_log_matches_closures_when_interpreted(self, engine, name,
                                                   fast):
        """The same reports when the erroring loop runs once, so its
        block is still interpreted first (core.codegen)."""
        img = asm_image(MID_BLOCK[name].replace(".word 40", ".word 1"))
        ref = vg(img, "memcheck", **PAPER)
        clear_translation_cache()  # no host code from an earlier run
        got = vg(img, "memcheck", memcheck_fastpath=fast,
                 stats_format="json", cache_dir=None,
                 **ENGINES[engine].options)
        assert sorted({e.kind for e in ref.errors}) == MID_BLOCK_ERRORS[name]
        assert (got.exit_code, got.stdout, got.log) == (
            ref.exit_code, ref.stdout, ref.log)
        loop = [t for t in got.core.scheduler.transtab.all_translations()
                if t.covers(img.symbols["loop"])]
        assert loop and all(t.tier == "interp_first" for t in loop)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_guarded_helper_outside_no_state_write(self, engine,
                                                   trace_threshold):
        """A guarded helper that may write guest state still commits
        pending state before its guard, on the path that skips it too."""
        trace_threshold(MID_BLOCK_TRACE_THRESHOLD)
        ref = vg(CALL_LOOP, "taintcheck", **PAPER)
        got = vg(CALL_LOOP, "taintcheck", **ENGINES[engine].options)
        assert ref.exit_code == 0 and ref.stdout.strip() == str(30 * 3)
        assert (got.exit_code, got.stdout, got.log) == (
            ref.exit_code, ref.stdout, ref.log)


class TestReplayContract:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_checkpointed_log_replays_across_fastpath_and_tiers(
            self, tmp_path, engine):
        """The fast-path flag is outside the replay contract: a log
        recorded with checkpoints under fastpath=on/paper must replay
        bit-exactly with fastpath=off under every engine (snapshot hashes
        mask the tier- and fastpath-dependent thread-state scratch)."""
        path = str(tmp_path / "v.rrlog")
        rec = run_one(PROGRAMS["clean_heap_loop"], True, **PAPER,
                      record=path, checkpoint_every=50)
        rep = run_one(PROGRAMS["clean_heap_loop"], False, replay=path,
                      **ENGINES[engine].options)
        assert observe(rep) == observe(rec)
        stats = rep.stats()["replay"]
        assert stats["divergences"] == 0
        assert stats["events_consumed"] == stats["log_events"]


class TestChaos:
    @pytest.mark.parametrize("name", ["clean_heap_loop", "overrun_rw"])
    def test_identical_under_fault_injection(self, name):
        spec = "mmap-enomem@999999,segv@999999,seed=5"
        on = run_one(PROGRAMS[name], True, codegen="pygen", inject=spec)
        off = run_one(PROGRAMS[name], False, codegen="pygen", inject=spec)
        assert observe(on) == observe(off)


class TestCounters:
    def test_pygen_counts_fast_hits(self):
        res = run_one(PROGRAMS["clean_heap_loop"], True, codegen="pygen")
        fp = res.stats()["memcheck_shadow"]["fastpath"]
        assert fp["enabled"] == 1
        assert fp["fast_loads"] > 0 and fp["fast_stores"] > 0

    def test_error_paths_go_through_helpers(self):
        """Accesses that must report errors take the slow branch — the
        inline A-bit check may never swallow an invalid access.  The
        access repeats, so its block runs twice after the first pass and
        is promoted to the pygen tier (a block's first run is
        interpreted)."""
        src = PROGRAMS["use_after_free"].replace(
            "        ld   r1, [r6]\n",
            "        movi r7, 3\nagain:  ld   r1, [r6]\n"
            "        dec  r7\n        jnz  again\n")
        clear_translation_cache()
        res = run_one(src, True, codegen="pygen")
        fp = res.stats()["memcheck_shadow"]["fastpath"]
        assert fp["enabled"] == 1
        assert fp["slow_loads"] > 0
        assert [e.kind for e in res.errors] == ["InvalidRead"]

    def test_disabled_emits_no_fast_code(self):
        res = run_one(PROGRAMS["clean_heap_loop"], False, codegen="pygen")
        fp = res.stats()["memcheck_shadow"]["fastpath"]
        assert fp == {"enabled": 0, "fast_loads": 0, "fast_stores": 0,
                      "slow_loads": 0, "slow_stores": 0}

    def test_flag_spelling(self):
        opts = Options(log_target="capture")
        assert opts.set("--memcheck-fastpath=no")
        assert opts.memcheck_fastpath is False
        assert opts.set("--memcheck-fastpath=yes")
        assert opts.memcheck_fastpath is True

    def test_fleet_merge_sums_shadow_counters(self):
        """The fleet supervisor's additive stats merge must aggregate the
        memcheck_shadow section across jobs (numeric leaves sum)."""
        from repro.core.supervisor import merge_stats

        a = run_one(PROGRAMS["clean_heap_loop"], True, codegen="pygen")
        b = run_one(PROGRAMS["stack_churn"], True, codegen="pygen")
        sa, sb = a.stats()["memcheck_shadow"], b.stats()["memcheck_shadow"]
        total: dict = {}
        merge_stats(total, {"memcheck_shadow": sa})
        merge_stats(total, {"memcheck_shadow": sb})
        merged = total["memcheck_shadow"]
        for key in ("pages_private", "cow_promotions"):
            assert merged[key] == sa[key] + sb[key]
        for key in ("fast_loads", "fast_stores", "slow_loads", "slow_stores"):
            assert merged["fastpath"][key] == \
                sa["fastpath"][key] + sb["fastpath"][key]
        assert merged["fastpath"]["fast_loads"] > 0


class TestPersistentCache:
    @pytest.mark.parametrize("fast", [True, False])
    def test_warm_cache_is_byte_identical(self, tmp_path, fast):
        src = PROGRAMS["clean_heap_loop"]
        cold = run_one(src, fast, codegen="pygen", cache_dir=str(tmp_path))
        warm = run_one(src, fast, codegen="pygen", cache_dir=str(tmp_path))
        assert observe(warm) == observe(cold)
        assert warm.stats()["cache"]["hits"] >= 1

    def test_fastpath_variants_do_not_collide(self, tmp_path):
        """On/off runs sharing one cache dir must not serve each other's
        compiled sources (the variant is part of the cache key)."""
        src = PROGRAMS["clean_heap_loop"]
        on = run_one(src, True, codegen="pygen", cache_dir=str(tmp_path))
        off = run_one(src, False, codegen="pygen", cache_dir=str(tmp_path))
        assert observe(on) == observe(off)
        fp = off.stats()["memcheck_shadow"]["fastpath"]
        assert fp["fast_loads"] == 0 and fp["fast_stores"] == 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_programs_identical_on_off(source):
    img = assemble(source, filename="rand")
    on = run_tool("memcheck", img,
                  options=Options(log_target="capture", codegen="pygen",
                                  memcheck_fastpath=True))
    off = run_tool("memcheck", img,
                   options=Options(log_target="capture", codegen="pygen",
                                   memcheck_fastpath=False))
    assert observe(on) == observe(off)
