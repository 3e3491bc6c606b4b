"""The tiered codegen pipeline's mechanics (``--codegen``).

The differential suites (test_perf_mode, test_fault_precision, test_chaos)
prove the pygen and traces tiers compute the same thing as the closure
engine; this file tests the tiering machinery itself: lazy compilation,
injected-failure demotion, the content-addressed pygen source cache, the
emitted Python's shape, and the ``--stats=json`` ``codegen`` section.
"""

from __future__ import annotations

import json

import pytest

from repro import Options, run_tool
from repro.backend.hostcpu import HostCPU
from repro.core.codegen import CODEGEN_MODES, TIERS
from repro.core.options import BadOption

from .helpers import asm_image, native, vg

#: A program with one hot loop (many executions) and cold epilogue
#: blocks (one execution each) — the shape tiering exists for.
HOT_LOOP_SRC = """
        .text
main:   movi r6, 0
        movi r7, 120
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


def run_cg(src, tool="none", **kw):
    kw.setdefault("chaining", True)
    return vg(src, tool, **kw)


class TestOptionParsing:
    def test_codegen_flag_values(self):
        o = Options()
        for mode in CODEGEN_MODES:
            assert o.set(f"--codegen={mode}")
            assert o.codegen == mode
        for retired in ("llvm", "auto"):
            with pytest.raises(BadOption):
                o.set(f"--codegen={retired}")


class TestPygenTier:
    def test_all_executed_blocks_reach_pygen(self):
        res = run_cg(HOT_LOOP_SRC, codegen="pygen")
        assert res.exit_code == 0
        cg = res.stats()["codegen"]
        assert cg["mode"] == "pygen"
        assert cg["tier_attaches"]["pygen"] > 0
        assert cg["tier_attaches"]["closures"] == 0
        assert cg["demotions"] == 0
        # Every live block that ever ran is in the pygen tier.
        live = cg["live_blocks"]
        assert set(live) <= {"pygen", "pending"}

    def test_emitted_source_shape(self):
        # The compiled runner carries its source: one def, guest state
        # bound as locals, a writeback batch, and a final return of the
        # (jump-kind, guest-insns) pair.
        res = run_cg(HOT_LOOP_SRC, codegen="pygen")
        tab = res.core.scheduler.transtab
        srcs = [t.compiled_fn.pygen_source for t in tab.all_translations()
                if t.tier == "pygen"]
        assert srcs
        for src in srcs:
            assert src.startswith("def _pygen(ts")
            assert "_cpu.ts = ts" in src          # state bound up front
            assert src.rstrip().rsplit("\n", 1)[-1].lstrip().startswith(
                "return")                          # (jump-kind, insns) exit

    def test_pygen_cache_shares_identical_blocks(self):
        res = run_cg(HOT_LOOP_SRC, codegen="pygen")
        cpu = res.core.scheduler.hostcpu
        assert cpu.pygen_cache_misses == len(cpu._pygen_cache)
        tab = res.core.scheduler.transtab
        by_code = {}
        for t in tab.all_translations():
            if t.tier == "pygen":
                by_code.setdefault(t.code, set()).add(id(t.compiled_fn))
        for fns in by_code.values():
            assert len(fns) == 1
        cpu.flush_code_cache()
        assert len(cpu._pygen_cache) == 0

    def test_pygen_matches_native_without_perf_loop(self):
        # --codegen=pygen composes with chaining off.
        nat = native(HOT_LOOP_SRC)
        res = vg(HOT_LOOP_SRC, codegen="pygen")
        assert res.stdout == nat.stdout
        assert res.exit_code == nat.exit_code
        assert res.stats()["codegen"]["tier_attaches"]["pygen"] > 0


class TestLazyCompilation:
    def test_translated_but_never_executed_skips_codegen(self):
        # Blocks are translated and inserted before they run; if the run
        # stops in between (here: block budget right after a translate),
        # lazy modes never pay the codegen for the pending block.
        from repro import run_tool

        img = asm_image(HOT_LOOP_SRC)
        res = run_tool(
            "none", img,
            options=Options(log_target="capture", chaining=True,
                            codegen="pygen"),
            max_blocks=3,
        )
        cg = res.core.stats_dict(res.outcome)["codegen"]
        assert cg["compiles_deferred"] > cg["first_exec_compiles"]
        assert cg["compiles_avoided"] >= 1
        assert "pending" in cg["live_blocks"]

    def test_eager_mode_compiles_at_insert(self):
        # The closure tier compiles inside the dispatch loop, not through
        # the lazy tiers' deferral hook: nothing is counted as deferred.
        res = run_cg(HOT_LOOP_SRC, codegen="closures")
        cg = res.stats()["codegen"]
        assert cg["compiles_deferred"] == 0
        assert cg["compiles_avoided"] == 0


class TestInjectedDemotion:
    def test_single_demotion_counted_and_logged(self):
        res = run_cg(HOT_LOOP_SRC, codegen="pygen", inject="pygen@1,seed=0")
        assert res.exit_code == 0
        assert res.stdout == native(HOT_LOOP_SRC).stdout
        assert "pygen compile failure" in res.log
        stats = res.stats()
        assert stats["codegen"]["demotions"] == 1
        assert stats["robustness"]["pygen_demotions"] == 1
        assert stats["robustness"]["injection"]["pygen"]["fired"] == 1
        # The demoted block runs (and stays) in the closure tier.
        assert stats["codegen"]["live_blocks"].get("closures", 0) >= 1

    def test_demoted_block_not_retried(self):
        # A failed pygen compile must not be re-attempted every
        # execution: the block is marked and stays demoted.
        res = run_cg(HOT_LOOP_SRC, codegen="pygen",
                     inject="pygen:1.0,seed=1")
        assert res.exit_code == 0
        tab = res.core.scheduler.transtab
        demoted = [t for t in tab.all_translations() if t.pygen_failed]
        assert demoted
        inj = res.stats()["robustness"]["injection"]["pygen"]
        # Each block consults the injector at most once.
        assert inj["seen"] == res.stats()["codegen"]["demotions"]

    def test_demoted_blocks_run_through_compile_fn(self, monkeypatch):
        # HostCPU.compile_fn is the closure tier's runner factory: every
        # demoted block gets exactly one runner from it, and the runners
        # compute what the reference CPU does.
        made = []
        real_compile_fn = HostCPU.compile_fn

        def counting_compile_fn(self, code):
            made.append(code)
            return real_compile_fn(self, code)

        monkeypatch.setattr(HostCPU, "compile_fn", counting_compile_fn)
        res = run_cg(HOT_LOOP_SRC, codegen="pygen",
                     inject="pygen:1.0,seed=1")
        assert res.stdout == native(HOT_LOOP_SRC).stdout
        cg = res.stats()["codegen"]
        assert cg["tier_attaches"]["pygen"] == 0
        assert len(made) == cg["demotions"] == \
            cg["tier_attaches"]["closures"] > 0


class TestStatsSection:
    def test_codegen_section_shape(self):
        res = run_cg(HOT_LOOP_SRC, tool="memcheck", codegen="pygen",
                     stats_format="json")
        cg = res.stats()["codegen"]
        for key in ("mode", "tier_attaches",
                    "demotions", "compiles_deferred", "first_exec_compiles",
                    "compiles_avoided", "compile_seconds", "exec_seconds",
                    "tier_execs", "pygen_cache", "live_blocks"):
            assert key in cg, key
        for tier in TIERS:
            assert tier in cg["tier_attaches"]
            assert tier in cg["compile_seconds"]
        # --stats=json enables per-tier execution sampling.
        assert sum(cg["tier_execs"].values()) > 0
        assert sum(cg["exec_seconds"].values()) > 0
        payload = json.dumps(res.stats())
        assert json.loads(payload)["codegen"]["mode"] == "pygen"

    def test_exec_sampling_off_by_default(self):
        res = run_cg(HOT_LOOP_SRC, codegen="pygen")
        cg = res.stats()["codegen"]
        assert sum(cg["tier_execs"].values()) == 0
