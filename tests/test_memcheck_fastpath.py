"""Differential suite for the Memcheck pygen fast paths.

The inlined LOADV/STOREV sequences are a pure performance feature: with
``--memcheck-fastpath=no`` every access goes through the helpers
instead.  Everything observable — the error log, exit codes, stdout,
page-table statistics — must be byte-identical either way, on every
codegen tier, under fault-injection chaos, and with a warm on-disk
cache.  Only the ``fastpath`` counter sub-section (which counts emitted
fast-path hits, an emission property by construction) may differ.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Options, assemble, run_tool

from helpers import asm_image, programs, vg

#: Each codegen tier under the paper loop, plus the repo benchmark's
#: ``fast`` engine (the trace tier under chaining).
ENGINES = {
    "closures": {"codegen": "closures"},
    "pygen": {"codegen": "pygen"},
    "traces": {"codegen": "traces"},
    "fast": {"codegen": "traces", "chaining": True},
}

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
    return vg(src, "memcheck", memcheck_fastpath=fast, **kw)


class TestDifferentialAcrossTiers:
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_fastpath_is_observably_identical(self, engine, name):
        on = run_one(PROGRAMS[name], True, **ENGINES[engine])
        off = run_one(PROGRAMS[name], False, **ENGINES[engine])
        assert observe(on) == observe(off)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_tiers_agree_with_closures_reference(self, engine):
        """Every engine with the fast path on must match the helper-only
        closures tier (the reference semantics)."""
        ref = run_one(PROGRAMS["overrun_rw"], False, codegen="closures")
        got = run_one(PROGRAMS["overrun_rw"], True, **ENGINES[engine])
        assert observe(got) == observe(ref)


class TestReplayContract:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_checkpointed_log_replays_across_fastpath_and_tiers(
            self, tmp_path, engine):
        """The fast-path flag is outside the replay contract: a log
        recorded with checkpoints under fastpath=on/closures must replay
        bit-exactly with fastpath=off under every engine (snapshot hashes
        mask the tier- and fastpath-dependent thread-state scratch)."""
        path = str(tmp_path / "v.rrlog")
        rec = run_one(PROGRAMS["clean_heap_loop"], True, codegen="closures",
                      record=path, checkpoint_every=50)
        rep = run_one(PROGRAMS["clean_heap_loop"], False, replay=path,
                      **ENGINES[engine])
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
        inline A-bit check may never swallow an invalid access."""
        res = run_one(PROGRAMS["use_after_free"], True, codegen="pygen")
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
