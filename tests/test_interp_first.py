"""Interpret first (core.codegen): under the pygen engines a block that
misses both translation tiers gets phases 1-4 only and runs its first
execution in the IR interpreter; its second execution promotes it —
phases 5-8 over the same IR, then the pygen tier — on the same
Translation.  Blocks still unpromoted when a run ends leave their IR in
the code cache as a ``t/`` record of its own kind."""

from __future__ import annotations

import pytest

from helpers import asm_image, cache_entries, vg
from repro.backend import pygen as _pygen
from repro.core import codecache
from repro.core import replay as _replay
from repro.core import traces as _traces
from repro.core import translate as _translate
from repro.core.engines import ENGINES
from repro.ir.block import IRSB

#: The engines that interpret first (every one but the closure tier's).
PYGEN_ENGINES = [n for n, e in ENGINES.items() if e.codegen != "closures"]

#: Phases 5-8, as core.translate calls them.
BACK_HALF = ("build_trees", "select", "allocate", "encode_insns")

#: ``shared`` and the loop's tail run RUNS times; the other blocks once.
#: RUNS only changes an immediate, so every address stays put.
CALLS_SRC = """
        .text
main:   movi r5, {runs}
again:  call shared
        dec  r5
        jnz  again
        movi r0, 7
        push r0
        call exit
shared: movi r0, 3
        addi r0, 4
        ret
"""


def fresh():
    """Empty the process-wide caches, as a new process starts."""
    _pygen.clear_emit_cache()
    _traces._BUILD_CACHE.clear()
    _translate.clear_translation_cache()


def run(img, engine, **kw):
    kw.setdefault("stats_format", "json")
    kw.setdefault("cache_dir", None)
    fresh()
    return vg(img, "none", **ENGINES[engine].options, **kw)


def calls(runs):
    return asm_image(CALLS_SRC.format(runs=runs))


def block(res, addr):
    (t,) = [t for t in res.core.scheduler.transtab.all_translations()
            if t.guest_addr == addr]
    return t


@pytest.fixture
def back_half(monkeypatch):
    """Names of the phase 5-8 functions called, in order."""
    called = []
    for name in BACK_HALF:
        def counted(*args, _fn=getattr(_translate, name), _name=name):
            called.append(_name)
            return _fn(*args)

        monkeypatch.setattr(_translate, name, counted)
    return called


class TestPromotion:
    @pytest.mark.parametrize("engine", PYGEN_ENGINES)
    def test_block_run_once_never_reaches_the_back_end(self, engine,
                                                       back_half):
        res = run(calls(1), engine)
        cg = res.stats()["codegen"]
        assert res.exit_code == 7
        assert back_half == []
        assert cg["pygen_cache"]["compiles"] == cg["promotions"] == 0
        assert (cg["tier_attaches"]["interp_first"]
                == res.stats()["translations_made"] > 0)

    def test_closure_tier_runs_every_phase(self, back_half):
        res = run(calls(1), "paper")
        made = res.stats()["translations_made"]
        assert back_half == list(BACK_HALF) * made
        assert res.stats()["codegen"]["tier_attaches"]["interp_first"] == 0

    @pytest.mark.parametrize("engine", PYGEN_ENGINES)
    def test_promoted_at_the_second_run_with_the_pipeline_code(self,
                                                               engine):
        shared = calls(1).symbols["shared"]
        ref = run(calls(2), "paper")
        once, twice = run(calls(1), engine), run(calls(2), engine)
        t = block(once, shared)
        assert (t.tier, t.code) == ("interp_first", b"")
        assert t.front is not None
        t = block(twice, shared)
        assert t.tier == "pygen" and t.front is None
        assert t.code == block(ref, shared).code
        promoted = [t for t in twice.core.scheduler.transtab
                    .all_translations() if t.code]
        assert twice.stats()["codegen"]["promotions"] == len(promoted) > 0
        for t in promoted:
            assert t.code == block(ref, t.guest_addr).code
        assert (twice.stdout, twice.exit_code,
                twice.outcome.guest_insns) == (
            ref.stdout, ref.exit_code, ref.outcome.guest_insns)

    @pytest.mark.parametrize("engine", PYGEN_ENGINES)
    def test_a_later_run_promotes_what_an_earlier_one_interpreted(self,
                                                                  engine):
        """Runs are counted on the memory tier's shared payload: a second
        run of the process meets each block the first interpreted as its
        second execution and promotes it at once, and a third binds the
        host code the second made."""
        img = calls(1)
        first = run(img, engine)  # from empty caches
        opts = dict(stats_format="json", cache_dir=None,
                    **ENGINES[engine].options)
        second = vg(img, "none", **opts)
        third = vg(img, "none", **opts)
        made = first.stats()["translations_made"]
        cg = [r.stats()["codegen"] for r in (first, second, third)]
        assert [c["tier_attaches"]["interp_first"] for c in cg] == [made, 0, 0]
        assert [c["promotions"] for c in cg] == [0, made, 0]
        assert cg[2]["pygen_cache"]["compiles"] == 0
        for r in (second, third):
            assert r.stats()["translations_made"] == made
            assert all(t.tier == "pygen" for t in
                       r.core.scheduler.transtab.all_translations())
            assert (r.stdout, r.exit_code, r.outcome.guest_insns) == (
                first.stdout, first.exit_code, first.outcome.guest_insns)

    @pytest.mark.parametrize("engine", PYGEN_ENGINES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_isel_injection_fires_at_the_same_block(self, engine, n):
        """The fail hook fires when the front half is built, so
        ``--inject=isel@N`` quarantines the block the closure tier's
        plan quarantines."""
        def quarantined(eng):
            res = run(calls(3), eng, inject=f"isel@{n}")
            return ([line for line in res.log.splitlines()
                     if "JIT failure" in line],
                    res.stats()["robustness"]["quarantined_blocks"],
                    res.stdout, res.exit_code)

        assert quarantined(engine) == quarantined("paper")


class TestCodeCache:
    def test_warm_reruns_of_shared_jobs_hit_and_write_nothing(self,
                                                              tmp_path):
        """Job A runs ``shared`` once and leaves its IR; job B runs it
        twice and stores its host code and pygen payload.  Warm reruns of
        both then hit, compile nothing and write nothing (perfbench's
        warm-start fill has this shape)."""
        a, b = calls(1), calls(2)
        shared = a.symbols["shared"]

        def job(img):
            return run(img, "pygen", cache_dir=str(tmp_path))

        def kinds():
            return [set(e[4]) & {"code", "ir"}
                    for e in cache_entries(tmp_path)
                    if e[1] == "t" and e[4]["addr"] == shared]

        cold_a = job(a)
        assert kinds() == [{"ir"}]
        cold_b = job(b)
        assert cold_b.stats()["cache"]["hits"] > 0  # A's IR records
        assert cold_b.stats()["codegen"]["pygen_cache"]["compiles"] > 0
        assert sorted(kinds(), key=sorted) == [{"code"}, {"ir"}]
        for img, cold in ((a, cold_a), (b, cold_b)):
            warm = job(img)
            c = warm.stats()["cache"]
            assert c["hits"] > 0
            assert c["misses"] == c["pygen_misses"] == 0
            assert c["bytes_written"] == 0
            assert warm.stats()["codegen"]["pygen_cache"]["compiles"] == 0
            # Both take the host code B stored for ``shared``.
            assert block(warm, shared).tier == "pygen"
            assert (warm.stdout, warm.exit_code,
                    warm.outcome.guest_insns) == (
                cold.stdout, cold.exit_code, cold.outcome.guest_insns)

    @pytest.mark.parametrize("ir_first", [True, False])
    def test_lookup_takes_host_code_over_ir(self, tmp_path, ir_first):
        raw = bytes(range(16))
        ctx = b"\x09" * 32

        def fetch(start, length):
            return raw[start:start + length]

        stores = [{"ir": IRSB(guest_addr=0x100)}, {"code": b"HOST"}]
        if not ir_first:
            stores.reverse()
        cache = codecache.CodeCache(str(tmp_path))
        for kw in stores:
            assert cache.store_translation(ctx, 0x100, fetch,
                                           ranges=((0, 16),), stats=None,
                                           **kw)
            cache.flush()  # one pack each
        hit = codecache.CodeCache(str(tmp_path)).lookup_translation(
            ctx, 0x100, fetch)
        assert hit["code"] == b"HOST" and "ir" not in hit

    def test_damaged_ir_record_quarantines_its_pack(self, tmp_path):
        img = calls(1)
        cold = run(img, "pygen", cache_dir=str(tmp_path))
        ir = [e for e in cache_entries(tmp_path)
              if e[1] == "t" and "ir" in e[4]]
        assert len(ir) == cold.stats()["translations_made"]
        path, _ns, off, length, _obj = ir[0]
        with open(path, "r+b") as f:
            f.seek(off + length - 1)
            last = f.read(1)[0]
            f.seek(off + length - 1)
            f.write(bytes([last ^ 0xFF]))
        warm = run(img, "pygen", cache_dir=str(tmp_path))
        st = warm.stats()
        assert st["cache"]["quarantined"] == 1
        assert (warm.stdout, warm.exit_code, warm.outcome.guest_insns,
                st["dispatch"]) == (cold.stdout, cold.exit_code,
                                    cold.outcome.guest_insns,
                                    cold.stats()["dispatch"])


class TestCheckpoint:
    @pytest.mark.parametrize("engine", PYGEN_ENGINES)
    def test_unpromoted_blocks_restore_unquarantined(self, tmp_path,
                                                     monkeypatch, engine):
        """A checkpoint taken while blocks are still interpreted first
        records none of them as quarantined, and restore and replay from
        it quarantine nothing."""
        img = calls(40)
        log = str(tmp_path / "run.rr")
        unpromoted = []
        capture = _replay.capture_snapshot

        def counting(sched, *args):
            unpromoted.append(sum(t.front is not None for t in
                                  sched.transtab.all_translations()))
            return capture(sched, *args)

        monkeypatch.setattr(_replay, "capture_snapshot", counting)
        rec = run(img, engine, record=log, checkpoint_every=30)
        assert unpromoted and min(unpromoted) > 0
        snaps = [_replay.unpack_obj(blob)
                 for blob in _replay.EventLog.load(log).checkpoints]
        assert not any(quarantined for snap in snaps
                       for _addr, _smc, quarantined, _hash
                       in snap["translations"])
        for kw in ({"restore": log}, {"replay": log}):
            res = run(img, engine, **kw)
            assert (res.stdout, res.exit_code) == (rec.stdout, rec.exit_code)
            assert res.stats()["robustness"]["quarantined_blocks"] == 0
        assert res.stats()["replay"]["divergences"] == 0
