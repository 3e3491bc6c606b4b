"""The process-wide memory translation tier (``core.translate._TIER``).

Every run in one process consults it before the persistent code cache
and the pipeline, keyed by the translation context plus the guest
address and verified against the guest bytes on every hit.  The contract
matches the code cache's: a hit can make a run faster, never different.
"""

from __future__ import annotations

import pickle

import pytest

import repro
from repro import api
from repro import opt as _opt
from repro.backend import hostisa as _hostisa
from repro.core import translate as _translate
from repro.core.codegen import CODEGEN_MODES
from repro.core import traces as _traces
from repro.frontend import spec as _spec
from repro.tools.nulgrind import Nulgrind

from .helpers import asm_image, native, vg

#: A Memcheck error (a branch on an uninitialised stack word), heap
#: traffic and a hot call loop whose chain the trace tier stitches.
SRC = """
        .text
main:   subi sp, 8
        ld   r0, [sp]
        addi sp, 8
        cmpi r0, 1
        je   start
start:  pushi 64
        call malloc
        addi sp, 4
        mov  r5, r0
        movi r6, 0
        movi r7, 40
loop:   call fn1
        dec  r7
        jnz  loop
        push r6
        call putint
        addi sp, 4
        push r5
        call free
        addi sp, 4
        movi r0, 0
        push r0
        call exit
fn1:    st   [r5], r7
        ld   r1, [r5]
        add  r6, r1
        xor  r6, r7
        ret
"""


@pytest.fixture(autouse=True)
def empty_tier():
    """Each test starts from an empty tier, as a fresh process does."""
    _translate.clear_translation_cache()
    yield
    _translate.clear_translation_cache()


def run(src=SRC, tool="memcheck", **kw):
    kw.setdefault("stats_format", "json")
    kw.setdefault("cache_dir", None)
    return vg(src, tool, **kw)


def tier(res) -> dict:
    return res.stats()["translation_cache"]


def residents() -> list:
    return [r for versions in _translate._TIER.values() for r in versions]


def observe(res):
    """What a memory-tier hit must leave unchanged."""
    st = res.stats()
    return (
        res.exit_code,
        res.stdout,
        st["dispatch"],
        st["transtab"],
        [(e.kind, e.message) for e in res.errors],
        {k: v for k, v in (st.get("memcheck_shadow") or {}).items()
         if k != "fastpath"},
    )


class TestSecondRunHits:
    @pytest.mark.parametrize("tool", ["none", "memcheck"])
    @pytest.mark.parametrize("codegen", CODEGEN_MODES)
    def test_second_run_is_all_hits_and_identical(self, tool, codegen):
        first = run(tool=tool, codegen=codegen)
        second = run(tool=tool, codegen=codegen)
        assert tier(first)["hits"] == 0
        assert tier(first)["misses"] == first.stats()["translations_made"]
        made = second.stats()["translations_made"]
        assert made == first.stats()["translations_made"] > 0
        assert tier(second)["hits"] == made
        assert tier(second)["misses"] == 0
        assert observe(second) == observe(first)
        assert second.outcome.guest_insns == first.outcome.guest_insns
        if tool == "memcheck":
            assert first.errors
        if codegen == "traces":
            assert second.stats()["traces"]["traces_built"] > 0

    def test_output_matches_the_reference_cpu(self):
        ref = native(asm_image(SRC))
        run(tool="none")
        res = run(tool="none")
        assert tier(res)["hits"] > 0
        assert (res.stdout, res.exit_code) == (ref.stdout, ref.exit_code)
        assert res.outcome.guest_insns == ref.guest_insns


class TestVerification:
    def test_changed_guest_bytes_miss(self):
        other = SRC.replace("movi r7, 40", "movi r7, 41")
        run(tool="none")
        res = run(other, tool="none")
        assert tier(res)["misses"] > 0
        assert tier(res)["hits"] > 0  # the unchanged blocks still hit
        ref = native(asm_image(other))
        assert (res.stdout, res.exit_code) == (ref.stdout, ref.exit_code)
        assert res.outcome.guest_insns == ref.guest_insns


#: ``main`` chases its ``jmp real`` into one block unless ``real`` is
#: redirected; with the redirect the program prints 2 instead of 1.
REDIRECT_SRC = """
        .text
main:   jmp  real
back:   push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
real:   movi r0, 1
        jmp  back
fake:   movi r0, 2
        jmp  back
"""


class RedirectingNull(Nulgrind):
    """Nulgrind that can redirect ``real`` to ``fake``: one tool class
    and name either way, so only the redirect table tells them apart."""

    def __init__(self, redirect: bool):
        super().__init__()
        self.redirect = redirect

    def post_clo_init(self):
        super().post_clo_init()
        if self.redirect:
            prog = self.core.program
            self.core.redirector.redirect_guest(prog.symbol("real"),
                                                prog.symbol("fake"))


class TestContext:
    def test_different_tool_never_hits(self):
        run(tool="none")
        assert tier(run(tool="memcheck"))["hits"] == 0

    def test_different_tool_options_never_hit(self):
        run(tool="taintcheck")
        res = run(tool="taintcheck", tool_options=["--taint-addr=no"])
        assert tier(res)["hits"] == 0

    def test_different_redirects_never_hit(self):
        img = asm_image(REDIRECT_SRC)
        opts = dict(log_target="capture", stats_format="json",
                    cache_dir=None)
        plain = repro.run_tool(RedirectingNull(False), img,
                               options=repro.Options(**opts))
        assert plain.stdout.strip() == "1"
        redirected = repro.run_tool(RedirectingNull(True), img,
                                    options=repro.Options(**opts))
        assert redirected.stdout.strip() == "2"
        assert tier(redirected)["hits"] == 0

    @pytest.mark.parametrize("module, name", [
        (_spec, "SPEC_VERSION"),
        (_opt, "OPT_PIPELINE_VERSION"),
        (_hostisa, "HOSTISA_FORMAT_VERSION"),
    ])
    def test_version_bump_never_hits(self, monkeypatch, module, name):
        run(tool="none")
        monkeypatch.setattr(module, name, getattr(module, name) + 1)
        res = run(tool="none")
        assert tier(res)["hits"] == 0
        assert tier(res)["misses"] == res.stats()["translations_made"]


class TestEngineHooks:
    def _quarantined(self, res):
        return ([line for line in res.log.splitlines()
                 if "JIT failure for block" in line],
                res.stats()["robustness"]["quarantined_blocks"])

    @pytest.mark.parametrize("codegen", CODEGEN_MODES)
    def test_injected_isel_failure_fires_on_a_hit(self, codegen):
        """``--inject=isel@1`` quarantines the same block whether its
        translation is fresh or a memory-tier hit."""
        fresh = run(tool="none", codegen=codegen, inject="isel@1")
        _translate.clear_translation_cache()
        run(tool="none", codegen=codegen)  # every block is now resident
        warm = run(tool="none", codegen=codegen, inject="isel@1")
        assert tier(warm)["misses"] == 0 and tier(warm)["hits"] > 0
        lines, n = self._quarantined(fresh)
        assert n == 1 and len(lines) == 1
        assert self._quarantined(warm) == (lines, n)
        assert (warm.stdout, warm.exit_code) == (fresh.stdout,
                                                 fresh.exit_code)
        assert (warm.stats()["translations_made"]
                == fresh.stats()["translations_made"])

    def test_trace_translations_bypasses_the_tier(self, capsys):
        run(tool="none")
        capsys.readouterr()
        outs = []
        for _ in range(2):
            res = run(tool="none", trace_translations=True)
            assert tier(res)["hits"] == tier(res)["misses"] == 0
            outs.append(capsys.readouterr().out)
        assert "==== translation at" in outs[1]
        assert outs[0] == outs[1]


class TestBounds:
    def test_entry_cap_holds_and_counts_evictions(self, monkeypatch):
        monkeypatch.setattr(_translate, "_TIER_MAX", 3)
        before = _translate._TIER_STATS["evictions"]
        res = run(tool="none")
        made = res.stats()["translations_made"]
        assert made > 3
        assert len(residents()) == tier(res)["entries"] == 3
        assert tier(res)["evictions"] - before == made - 3

    def test_versions_per_address_are_capped(self, monkeypatch):
        """Programs sharing an address keep one entry each, up to the
        per-address cap; alternating between two of them then hits."""
        monkeypatch.setattr(_translate, "_TIER_VERSIONS", 2)
        srcs = [SRC.replace("movi r7, 40", f"movi r7, {n}")
                for n in (40, 41, 42)]
        for src in srcs[:2]:
            run(src, tool="none")
        assert tier(run(srcs[0], tool="none"))["misses"] == 0
        before = _translate._TIER_STATS["evictions"]
        run(srcs[2], tool="none")
        assert _translate._TIER_STATS["evictions"] > before
        assert max(len(v) for v in _translate._TIER.values()) == 2
        assert tier(run(srcs[2], tool="none"))["misses"] == 0
        assert tier(run(srcs[1], tool="none"))["misses"] > 0

    def test_byte_budget_holds(self, monkeypatch):
        run(tool="memcheck")
        sizes = sorted(r.nbytes for r in residents())
        budget = sizes[-1] + sizes[-2]  # room for any one entry, not all
        _translate.clear_translation_cache()
        monkeypatch.setattr(_translate, "_TIER_BUDGET", budget)
        before = _translate._TIER_STATS["evictions"]
        res = run(tool="memcheck")
        assert 0 < tier(res)["bytes"] <= budget
        assert tier(res)["evictions"] > before
        assert tier(res)["bytes"] == sum(r.nbytes for r in residents())


class TestSharedPayload:
    def test_splicing_leaves_shared_code_and_stats_unchanged(self):
        """Traced runs read the resident code and stats of every member;
        a run that splices them (its builds miss) must not mutate
        either."""
        run(codegen="traces")
        shared = residents()
        assert shared
        before = [pickle.dumps((r.code, r.ranges, r.stats)) for r in shared]
        _traces._BUILD_CACHE.clear()
        res = run(codegen="traces")
        assert tier(res)["hits"] == res.stats()["translations_made"]
        assert res.stats()["traces"]["spliced"] > 0
        assert [pickle.dumps((r.code, r.ranges, r.stats))
                for r in shared] == before


class TestFleet:
    def test_one_worker_reuses_translations_across_jobs(self, tmp_path):
        program = str(tmp_path / "prog.s")
        with open(program, "w") as f:
            f.write("main:\n        movi r0, 600\n"
                    "loop:\n        sub  r0, 1\n        jnz  loop\n"
                    "        movi r0, 7\n        ret\n")
        report = api.run_fleet([program] * 2, tool="memcheck",
                               flags=["--stats=json"], workers=1,
                               record_bundles=False)
        assert report.ok
        jobs = report.jobs
        assert [j["exit_code"] for j in jobs] == [7, 7]
        assert jobs[0]["guest_insns"] == jobs[1]["guest_insns"] > 0
        assert report.stats["translation_cache"]["hits"] > 0
