"""The tiered codegen pipeline's mechanics (``--codegen``).

The differential suites (test_perf_mode, test_fault_precision, test_chaos)
prove the registry's engines compute the same thing as the paper engine;
this file tests the tiering machinery itself: lazy compilation,
injected-failure demotion, the content-addressed pygen source cache, the
emitted Python's shape, and the ``--stats=json`` ``codegen`` section.
"""

from __future__ import annotations

import ast
import json
import re

import pytest

from repro import Options, run_tool
from repro.backend.hostcpu import HostCPU
from repro.backend.hostisa import LDG, LDM, LI, RC, RET, SETPCI, STG, Reg
from repro.backend.pygen import emit_pygen
from repro.core.codegen import CODEGEN_MODES, TIERS
from repro.core.engines import ENGINES
from repro.core.options import BadOption
from repro.guest.regs import GUEST_STATE_SIZE
from repro.ir.types import Ty

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
        # Every live block that ran twice is in the pygen tier; one that
        # ran once is still interpreted first, with no host code.
        live = cg["live_blocks"]
        assert set(live) <= {"pygen", "interp_first", "pending"}
        blocks = res.core.scheduler.transtab.all_translations()
        assert all(not t.code and t.front is not None
                   for t in blocks if t.tier == "interp_first")

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
        res = vg(HOT_LOOP_SRC, codegen="pygen", chaining=False)
        assert res.stdout == nat.stdout
        assert res.exit_code == nat.exit_code
        assert res.stats()["codegen"]["tier_attaches"]["pygen"] > 0

    def test_traces_match_native_without_perf_loop(self):
        # --codegen=traces composes with chaining off.
        nat = native(HOT_LOOP_SRC)
        res = vg(HOT_LOOP_SRC, codegen="traces", chaining=False)
        assert res.stdout == nat.stdout
        assert res.exit_code == nat.exit_code
        assert res.stats()["traces"]["traces_built"] > 0
        assert res.core.scheduler.dispatcher.stats.chained == 0


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
        live = cg["live_blocks"]
        assert live["pending"] >= 1
        # Each block that ran compiled once; the pending one never did.
        assert cg["tier_attaches"]["pygen"] == live["pygen"] >= 1

    @pytest.mark.parametrize("engine", [
        name for name, e in ENGINES.items() if e.codegen == "closures"])
    def test_closure_tier_attaches_on_first_execution(self, engine,
                                                      monkeypatch):
        # The closure tier attaches through CodegenTiers like every
        # other tier: each translation that ran (compiled once, on its
        # first execution) counts under closures, not as pending.
        compiled = []
        real_compile = HostCPU.compile

        def counting_compile(self, code):
            compiled.append(code)
            return real_compile(self, code)

        monkeypatch.setattr(HostCPU, "compile", counting_compile)
        res = run_tool(
            "none", asm_image(HOT_LOOP_SRC),
            options=Options(log_target="capture", **ENGINES[engine].options),
            max_blocks=3,
        )
        cg = res.core.stats_dict(res.outcome)["codegen"]
        assert len(compiled) >= 1
        assert cg["tier_attaches"]["closures"] == len(compiled)
        live = cg["live_blocks"]
        assert set(live) == {"closures", "pending"}
        assert live["closures"] == len(compiled)


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
        demoted = [t for t in tab.all_translations() if t.tier == "closures"]
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
        assert set(cg) == {"mode", "tier_attaches", "demotions",
                           "promotions",
                           "compile_seconds", "pygen_cache", "emit_cache",
                           "emit", "live_blocks"}
        for tier in TIERS:
            assert tier in cg["tier_attaches"]
            assert tier in cg["compile_seconds"]
        assert cg["tier_attaches"]["pygen"] > 0
        assert cg["compile_seconds"]["pygen"] > 0
        payload = json.dumps(res.stats())
        assert json.loads(payload)["codegen"]["mode"] == "pygen"


class TestEmitCounters:
    def test_emit_section_counts_renames_and_sinks(self, trace_threshold):
        """``codegen.emit`` is process-wide: compare before/after deltas.
        Memcheck's guarded value checks sink writebacks; Nulgrind has no
        guarded helper to sink into."""
        trace_threshold(5)
        from repro.backend import pygen
        from repro.core.translate import clear_translation_cache

        def emit_after(tool):
            pygen.clear_emit_cache()
            clear_translation_cache()
            res = run_cg(HOT_LOOP_SRC, tool=tool, codegen="traces",
                         cache_dir=None)
            return res.stats()["codegen"]["emit"]

        before = pygen.emit_stats()
        mc = emit_after("memcheck")
        assert mc["functions"] > before["functions"]
        assert mc["lines"] > before["lines"]
        assert mc["renamed"] > before["renamed"]
        assert mc["sunk"] > before["sunk"]
        none = emit_after("none")
        assert none["functions"] > mc["functions"]
        assert none["renamed"] > mc["renamed"]
        assert none["sunk"] == mc["sunk"]


class TestGuestStateStores:
    """An STG of the value its slot already holds, or has pending,
    emits no store."""

    H0, H1 = Reg(RC.INT, 0), Reg(RC.INT, 1)

    def test_shadow_slot_written_once_across_a_fault_point(self):
        off = GUEST_STATE_SIZE + 60  # a shadow slot
        h0, h1 = self.H0, self.H1
        src, _ = emit_pygen([
            LI(h0, 0), STG(Ty.I32, off, h0),
            LDM(Ty.I32, h1, h0),  # a fault point flushes shadow stores
            LI(h0, 0), STG(Ty.I32, off, h0),
            SETPCI(0x1000), RET("Boring", 2),
        ])
        assert src.count(f"_m[{off // 4}] = ") == 1, src

    def test_storing_a_loaded_value_back_writes_nothing(self):
        h0 = self.H0
        src, _ = emit_pygen([
            LDG(Ty.I32, h0, 16), STG(Ty.I32, 16, h0),
            SETPCI(0x1000), RET("Boring", 1),
        ])
        assert f"_m[{16 // 4}] = " not in src, src


#: A host-register or spill-slot name: bound only by the prologue.
_HOST_NAME = re.compile(r"[ifvs]\d+$")
#: The value a prologue binds: a register-file cell or a zero slot.
_PROLOGUE_VALUE = re.compile(r"(_ir|_fr|_vr)\[\d+\]$|0$")


def _assigned(stmt) -> set:
    """Names a statement (and any nested one) assigns."""
    return {t.id for node in ast.walk(stmt) if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


def _check_single_assignment(src: str) -> None:
    fn = ast.parse(src).body[0]
    stmts = fn.body
    k = 0
    while k < len(stmts) and isinstance(stmts[k], ast.Assign) and (
            ast.unparse(stmts[k]) in ("_cpu.ts = ts", "_d = ts.data",
                                      "_m = ts.u32")):
        k += 1
    prologue = set()
    while k < len(stmts) and isinstance(stmts[k], ast.Assign):
        (target,) = stmts[k].targets
        if not (isinstance(target, ast.Name) and _HOST_NAME.match(target.id)):
            break
        assert _PROLOGUE_VALUE.match(ast.unparse(stmts[k].value)), src
        assert target.id not in prologue, src
        prologue.add(target.id)
        k += 1
    owner = {}
    for j in range(k, len(stmts)):
        stmt = stmts[j]
        names = _assigned(stmt)
        assert not {n for n in names if _HOST_NAME.match(n)}, (
            ast.unparse(stmt), src)
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, (ast.Name, ast.Constant))):
            # A bare copy: only a guarded call's default, which the
            # next statement's guard may overwrite with the call.
            (target,) = stmt.targets
            guarded = stmts[j + 1] if j + 1 < len(stmts) else None
            assert isinstance(guarded, ast.If), (ast.unparse(stmt), src)
            last = guarded.body[-1]
            assert (isinstance(last, ast.Assign)
                    and ast.unparse(last.targets[0]) == target.id
                    and isinstance(last.value, ast.Call)), (
                ast.unparse(stmt), src)
            assert target.id not in owner, (target.id, src)
            owner[target.id] = j + 1
            continue
        for name in names:
            if name.startswith("_"):
                continue  # per-access scratch (_a, _o, _p, _sp)
            assert owner.setdefault(name, j) == j, (name, src)


class TestEmittedCodeShape:
    def test_suite_emits_single_assignment_code(self, monkeypatch,
                                                trace_threshold):
        """Every function the trace engine emits for the suite, under
        Memcheck and Nulgrind, binds each local once: host-register and
        spill-slot names only in the pre-init prologue, and the only bare
        copies are guarded-call defaults."""
        from repro.backend import pygen
        from repro.workloads.suite import ALL_WORKLOADS, build

        trace_threshold(5)
        sources = []
        emit = pygen.emit_pygen

        def record(insns, fastpath=False):
            out = emit(insns, fastpath=fastpath)
            sources.append(out[0])
            return out

        monkeypatch.setattr(pygen, "emit_pygen", record)
        pygen.clear_emit_cache()
        for name in ALL_WORKLOADS:
            image = build(name, scale=0.005).image
            for tool in ("none", "memcheck"):
                res = vg(image, tool, codegen="traces", cache_dir=None)
                assert res.exit_code == 0, (name, tool)
        assert len(sources) > 500
        assert sum("_cpu.trace_blocks" in s for s in sources) > 50
        for src in sources:
            _check_single_assignment(src)
