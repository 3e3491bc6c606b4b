"""The persistent cross-process translation cache (``--cache-dir``).

The contract under test is strict: a cache can make a run *faster*,
never *different*.  Warm runs must be byte-identical to cold runs across
every codegen tier, any damaged or stale entry must degrade to a miss
(quarantined, counted), version bumps must orphan old entries, the size
budget must hold via LRU eviction, and a fleet of concurrent workers
hammered by kill plans must never leave a corrupt entry behind.
"""

from __future__ import annotations

import gc
import marshal
import os
import pickle
import weakref
import zlib

import pytest

import repro
from repro import api
from repro import opt as _opt
from repro.backend import hostisa as _hostisa
from repro.backend import pygen as _pygen
from repro.core import codecache as _codecache
from repro.core import traces as _traces
from repro.core import translate as _translate
from repro.core.codecache import CACHE_FORMAT_VERSION, CodeCache
from repro.workloads import suite

from .helpers import asm_image, vg

#: Several distinct blocks, a hot loop, and float traffic — enough to
#: exercise disasm chasing, instrumentation, and the pygen emitter.
SRC = """
        .text
main:   movi r6, 0
        movi r7, 60
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


def run_cached(cache_dir, tool="memcheck", src=SRC, **kw):
    # Each run starts from an empty memory translation tier, as a fresh
    # process does, so its translations go through the disk cache.
    _translate.clear_translation_cache()
    kw.setdefault("stats_format", "json")
    # Explicit always (None = disabled), overriding any REPRO_CACHE_DIR
    # ambient default — these tests control their own cache directories.
    kw.setdefault("cache_dir",
                  str(cache_dir) if cache_dir is not None else None)
    opts = repro.Options(log_target="capture", **kw)
    return vg(src, tool, options=opts)


def assert_same_run(a, b):
    assert a.exit_code == b.exit_code
    assert a.stdout == b.stdout
    assert a.stderr == b.stderr
    assert a.log == b.log


#: A loop whose hot chain spans two distinct blocks (the loop body and
#: the function it calls), so its trace splices code from two cache
#: entries.
CALL_LOOP_SRC = """
        .text
main:   movi r6, 0
        movi r7, 60
loop:   call fn1
        dec  r7
        jnz  loop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
fn1:    add  r6, r7
        xor  r6, r7
        ret
"""


def drop_in_memory_caches():
    """Forget every in-process translation product, so the next run must
    go through the disk cache (simulating a fresh process)."""
    _pygen.clear_emit_cache()
    _traces._BUILD_CACHE.clear()
    _translate.clear_translation_cache()


def compiles(res) -> int:
    """pygen ``compile()`` calls the run made."""
    return res.stats()["codegen"]["pygen_cache"]["compiles"]


def p_entries(cache_dir):
    pdir = cache_dir / f"v{CACHE_FORMAT_VERSION}" / "p"
    return sorted(str(pdir / name) for name in os.listdir(pdir))


def rewrite_p_entries(cache_dir, blob_fn):
    """Replace every ``p/`` entry's bytecode blob by ``blob_fn(blob)``,
    re-sealed with a valid digest (only the decode checks can catch it)."""
    cache = CodeCache(str(cache_dir))
    paths = p_entries(cache_dir)
    for path in paths:
        src, enc, blob = cache._read_entry(path)
        assert cache._write_entry(path, (src, enc, blob_fn(blob)))
    return len(paths)


def trace_set(res):
    """The live traces of a run: head, member addresses and sizes."""
    mgr = res.core.scheduler.traces
    return (mgr.traces_built, {
        (head, tuple(m.guest_addr for m in tr.members), tr.n_blocks,
         tr.total_insns)
        for head, tr in mgr.traces.items()
    })


def run_traced(cache_dir, src=CALL_LOOP_SRC, tool="memcheck", **kw):
    return run_cached(cache_dir, tool, src=src, codegen="traces",
                      trace_threshold=5, **kw)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("tool", ["none", "memcheck", "cachegrind"])
    @pytest.mark.parametrize("codegen", ["closures", "pygen", "traces"])
    def test_warm_byte_identical(self, tmp_path, tool, codegen):
        drop_in_memory_caches()  # the cold run stores every pygen block
        cold = run_cached(tmp_path, tool, codegen=codegen,
                          trace_threshold=5)
        drop_in_memory_caches()
        warm = run_cached(tmp_path, tool, codegen=codegen,
                          trace_threshold=5)
        assert_same_run(cold, warm)
        cache = warm.stats()["cache"]
        assert cache["hits"] > 0
        assert cache["misses"] == 0
        assert cache["quarantined"] == 0
        if codegen != "closures":
            # pygen blocks run the bytecode stored in p/: no compile().
            assert compiles(cold) > 0
            assert compiles(warm) == 0
            assert cache["pygen_hits"] > 0 and cache["pygen_misses"] == 0
            runners = warm.core.scheduler.hostcpu._pygen_cache.values()
            assert all(fn.pygen_source.startswith("def _pygen(")
                       for fn in runners)
        if codegen == "traces":
            # Every build is answered by its member key: the warm run
            # splices nothing and writes nothing.
            assert cache["trace_hits"] > 0
            assert cache["trace_misses"] == 0
            assert cache["bytes_written"] == 0
            assert warm.stats()["traces"]["stitched"] == 0
            assert trace_set(warm) == trace_set(cold)

    def test_nocache_equals_cached(self, tmp_path):
        plain = run_cached(None, codegen="pygen")
        cold = run_cached(tmp_path, codegen="pygen")
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(plain, cold)
        assert_same_run(plain, warm)
        assert plain.stats()["cache"] is None

    def test_warm_skips_translation_work(self, tmp_path):
        cold = run_cached(tmp_path, codegen="pygen")
        warm = run_cached(tmp_path, codegen="pygen")
        assert cold.stats()["cache"]["stores"] > 0
        c = warm.stats()["cache"]
        assert c["hits"] == cold.stats()["cache"]["misses"]
        # Translation counts stay identical — a hit still *counts* as a
        # translation (determinism for --inject schedules), it just
        # skips the pipeline.
        assert (warm.stats()["translations_made"]
                == cold.stats()["translations_made"])

    def test_different_tool_does_not_share(self, tmp_path):
        run_cached(tmp_path, "memcheck")
        warm = run_cached(tmp_path, "cachegrind")
        assert warm.stats()["cache"]["hits"] == 0

    def test_errors_identical_warm(self, tmp_path):
        bad = """
        .text
main:   movi r1, 64
        ld   r2, [r1]
        movi r0, 0
        push r0
        call exit
"""
        cold = run_cached(tmp_path, "memcheck", src=bad)
        warm = run_cached(tmp_path, "memcheck", src=bad)
        assert_same_run(cold, warm)
        assert ([e.kind for e in cold.errors]
                == [e.kind for e in warm.errors])


class TestTraceBuildKeys:
    def test_first_warm_run_rebuilds_no_trace(self, tmp_path):
        """Trace builds are keyed by their members' addresses and host
        code, which ``t/`` hits carry: the first warm run finds every
        build the cold run stored."""
        drop_in_memory_caches()
        cold = run_traced(tmp_path)
        assert cold.stats()["traces"]["traces_built"] > 0
        assert cold.stats()["traces"]["stitched"] > 0
        drop_in_memory_caches()
        warm = run_traced(tmp_path)
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["trace_hits"] > 0
        assert c["trace_misses"] == 0
        assert c["bytes_written"] == 0

    def test_warm_run_never_splices(self, tmp_path, monkeypatch):
        """A warm run builds every trace without the splicer."""
        drop_in_memory_caches()
        cold = run_traced(tmp_path)
        drop_in_memory_caches()

        def no_splicing(mgr, members):
            raise AssertionError("a warm trace build spliced member code")

        monkeypatch.setattr(_traces.TraceManager, "_splice", no_splicing)
        warm = run_traced(tmp_path)
        assert_same_run(cold, warm)
        assert warm.stats()["traces"]["compile_failures"] == 0
        assert trace_set(warm) == trace_set(cold)

    def test_pygen_filled_cache_serves_traces(self, tmp_path):
        """``t/`` entries a pygen run stored hold all a trace build reads:
        the first traced run translates nothing and splices its traces
        from the members' stored code, the next one splices nothing."""
        drop_in_memory_caches()
        run_cached(tmp_path, src=CALL_LOOP_SRC, codegen="pygen")
        drop_in_memory_caches()
        first = run_traced(tmp_path)
        assert_same_run(first, run_traced(None))
        c = first.stats()["cache"]
        assert c["misses"] == 0 and c["trace_misses"] > 0
        assert first.stats()["traces"]["stitched"] > 0
        drop_in_memory_caches()
        second = run_traced(tmp_path)
        assert second.stats()["cache"]["trace_misses"] == 0
        assert second.stats()["traces"]["stitched"] == 0
        assert trace_set(second) == trace_set(first)

    def test_build_key_reads_addresses_and_code_only(self):
        """A build key depends on each member's guest address and host
        code and nothing else the translation carries."""
        res = run_traced(None)
        mgr = res.core.scheduler.traces
        members = next(iter(mgr.traces.values())).members
        key = mgr._build_key(members)
        bare = [_translate.Translation(m.guest_addr, m.code, ())
                for m in members]
        assert mgr._build_key(bare) == key
        bare[-1].code = bare[-1].code[:-1] + bytes([bare[-1].code[-1] ^ 1])
        assert mgr._build_key(bare) != key
        bare[-1] = _translate.Translation(members[-1].guest_addr + 1,
                                          members[-1].code, ())
        assert mgr._build_key(bare) != key

    def test_host_isa_bump_misses(self, tmp_path, monkeypatch):
        """A build key carries the host-ISA encoding version: after a bump
        no stored trace code reaches the new decoder."""
        img = suite.build("gzip", 0.05).image
        drop_in_memory_caches()
        cold = run_traced(tmp_path, src=img, tool="none")
        assert cold.stats()["cache"]["trace_stores"] > 0
        monkeypatch.setattr(_hostisa, "HOSTISA_FORMAT_VERSION",
                            _hostisa.HOSTISA_FORMAT_VERSION + 1)
        drop_in_memory_caches()
        warm = run_traced(tmp_path, src=img, tool="none")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["hits"] == 0
        assert c["trace_hits"] == 0
        assert c["trace_misses"] == cold.stats()["cache"]["trace_misses"]
        assert trace_set(warm) == trace_set(cold)

    def test_opt_pipeline_bump_keeps_builds_of_unchanged_code(
            self, tmp_path, monkeypatch):
        """An opt-pipeline bump misses every ``t/`` entry, but a build
        reads only member code: members retranslated to the same code
        find the builds the cold run stored."""
        img = suite.build("gzip", 0.05).image
        drop_in_memory_caches()
        cold = run_traced(tmp_path, src=img, tool="none")
        assert cold.stats()["cache"]["trace_stores"] > 0
        monkeypatch.setattr(_opt, "OPT_PIPELINE_VERSION",
                            _opt.OPT_PIPELINE_VERSION + 1)
        drop_in_memory_caches()
        warm = run_traced(tmp_path, src=img, tool="none")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["hits"] == 0
        assert c["trace_hits"] > 0 and c["trace_misses"] == 0
        assert warm.stats()["traces"]["stitched"] == 0
        assert trace_set(warm) == trace_set(cold)

    def test_changed_member_gets_a_new_key(self, tmp_path):
        """A member whose guest bytes changed is retranslated, its code
        changes with it, and so does the key of every build it joins:
        the trace is rebuilt, never taken from the old program."""
        other = CALL_LOOP_SRC.replace("xor  r6, r7", "sub  r6, r7")
        drop_in_memory_caches()
        run_traced(tmp_path)
        old_keys = set(_traces._BUILD_CACHE)
        drop_in_memory_caches()
        changed = run_traced(tmp_path, src=other)
        assert_same_run(changed, run_traced(None, src=other))
        c = changed.stats()["cache"]
        assert c["misses"] > 0 and c["trace_misses"] > 0
        assert changed.stats()["traces"]["stitched"] > 0
        assert set(_traces._BUILD_CACHE) - old_keys

    @pytest.mark.parametrize("at", [0, 1], ids=["unstitchable",
                                                "two-members"])
    def test_truncated_outcome_is_cached(self, tmp_path, monkeypatch, at):
        """Seam truncation is decided from member code, so a build's stored
        outcome records how many members survived it, and a recording
        that truncates below two members is stored too: the warm run
        neither misses nor splices, and builds the traces the cold run
        built."""
        build = _traces.TraceManager._build

        def swap(mgr, members):
            # The recordings here follow fn1 -> dec/jnz -> loop -> fn1 (or
            # start at dec/jnz).  Swapped, members *at* and *at* + 1 leave
            # a seam whose first member's constant next is not its
            # successor and that no branch reaches: no seam plan holds.
            members = list(members)
            if len(members) > at + 1:
                members[at], members[at + 1] = members[at + 1], members[at]
            return build(mgr, members)

        monkeypatch.setattr(_traces.TraceManager, "_build", swap)
        drop_in_memory_caches()
        cold = run_traced(tmp_path)
        if at == 0:
            assert (None, 0, 0) in _traces._BUILD_CACHE.values()
        drop_in_memory_caches()
        warm = run_traced(tmp_path)
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["trace_hits"] > 0 and c["trace_misses"] == 0
        assert warm.stats()["traces"]["stitched"] == 0
        assert (warm.stats()["traces"]["recordings_aborted"]
                == cold.stats()["traces"]["recordings_aborted"])
        assert trace_set(warm) == trace_set(cold)
        if at == 1:
            live = warm.core.scheduler.traces.traces.values()
            assert live and all(len(tr.members) == 2 for tr in live)


class TestInvalidation:
    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        run_cached(tmp_path)
        import repro.frontend.spec as spec

        monkeypatch.setattr(spec, "SPEC_VERSION", spec.SPEC_VERSION + 1)
        warm = run_cached(tmp_path)
        c = warm.stats()["cache"]
        assert c["hits"] == 0 and c["misses"] > 0

    def test_other_interpreter_bytecode_is_a_miss(self, tmp_path,
                                                  monkeypatch):
        """``p/`` keys carry the interpreter's bytecode magic number: an
        entry another Python version stored is a miss, never exec'd."""
        drop_in_memory_caches()
        with monkeypatch.context() as m:
            m.setattr(_codecache, "_PY_MAGIC", b"\xff\xff\r\n")
            cold = run_cached(tmp_path, codegen="pygen")
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["hits"] > 0  # t/ entries do not depend on the interpreter
        assert c["pygen_hits"] == 0 and c["pygen_misses"] > 0
        assert compiles(warm) > 0

    def test_tool_options_invalidate(self, tmp_path):
        run_cached(tmp_path, "taintcheck", codegen="pygen")
        warm = run_cached(tmp_path, "taintcheck", codegen="pygen",
                          tool_options=["--taint-addr=no"])
        assert warm.stats()["cache"]["hits"] == 0

    def test_guest_bytes_verified(self, tmp_path):
        """Two different programs assembling blocks at the same address
        must not share entries: the guest-byte digest re-check makes the
        stale entry a miss, never a wrong translation."""
        other = SRC.replace("movi r7, 60", "movi r7, 61")
        a = run_cached(tmp_path, src=SRC)
        b = run_cached(tmp_path, src=other)
        plain = run_cached(None, src=other)
        assert_same_run(b, plain)
        # Shared blocks (libc prelude) may hit; the changed block cannot.
        assert b.stats()["cache"]["stores"] > 0


class TestCorruption:
    def _entries(self, tmp_path):
        base = tmp_path / f"v{CACHE_FORMAT_VERSION}"
        out = []
        for sub in ("t", "p", "x"):
            for dirpath, _dirs, files in os.walk(base / sub):
                out += [os.path.join(dirpath, f) for f in files]
        return out

    def test_tampered_entry_quarantined(self, tmp_path):
        cold = run_cached(tmp_path, codegen="pygen")
        entries = self._entries(tmp_path)
        assert entries
        for path in entries:  # flip one byte in every entry payload
            with open(path, "rb") as f:
                raw = bytearray(f.read())
            raw[len(raw) // 2] ^= 0xFF
            with open(path, "wb") as f:
                f.write(bytes(raw))
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] > 0
        assert c["hits"] == 0
        qdir = tmp_path / f"v{CACHE_FORMAT_VERSION}" / "quarantine"
        assert any(qdir.iterdir())

    def test_tampered_bytecode_quarantined(self, tmp_path):
        """A flipped byte inside a stored code object fails the payload
        digest: the entry is quarantined and the block recompiled."""
        drop_in_memory_caches()
        cold = run_cached(tmp_path, codegen="pygen")
        paths = p_entries(tmp_path)
        assert paths
        for path in paths:
            with open(path, "rb") as f:
                raw = bytearray(f.read())
            _src, _enc, blob = pickle.loads(bytes(raw[36:]))
            at = bytes(raw).index(blob) + len(blob) // 2
            raw[at] ^= 0xFF
            with open(path, "wb") as f:
                f.write(bytes(raw))
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] == len(paths)
        assert c["pygen_hits"] == 0
        assert compiles(warm) > 0

    @pytest.mark.parametrize("blob_fn", [
        lambda blob: marshal.dumps(42),
        lambda blob: blob[: len(blob) // 2],
    ], ids=["not-code", "truncated"])
    def test_bad_bytecode_quarantined(self, tmp_path, blob_fn):
        """A digest-valid entry whose bytecode does not unmarshal to a
        code object is quarantined, and the job takes the cold path."""
        drop_in_memory_caches()
        cold = run_cached(tmp_path, codegen="pygen")
        n = rewrite_p_entries(tmp_path, blob_fn)
        assert n > 0
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] == n
        assert c["pygen_hits"] == 0
        assert compiles(warm) > 0

    def test_truncated_entry_quarantined(self, tmp_path):
        cold = run_cached(tmp_path)
        path = self._entries(tmp_path)[0]
        with open(path, "wb") as f:
            f.write(b"RC")  # shorter than the header
        warm = run_cached(tmp_path)
        assert_same_run(cold, warm)
        assert warm.stats()["cache"]["quarantined"] >= 1

    def test_unreadable_cache_dir_disables_cache(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go\n")
        res = run_cached(target)  # OSError on open -> cache disabled
        assert res.exit_code == 0
        assert res.stats()["cache"] is None


class TestBudget:
    def test_lru_eviction(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_mb=1)
        blob = os.urandom(200 * 1024)

        def fetch(start, length):
            return blob[start:start + length]

        stored = 0
        for i in range(30):  # ~6MB through a 1MB budget
            cache.store_translation(
                b"\x01" * 32, 0x1000 + i, fetch,
                code=blob, ranges=((i, 1024),), stats=None,
            )
            stored += 1
        assert cache.stats.evictions > 0
        assert cache.stats.evicted_bytes > 0
        cache._enforce_budget()  # settle the periodic check interval
        total = 0
        for dirpath, _dirs, files in os.walk(tmp_path):
            for f in files:
                total += os.path.getsize(os.path.join(dirpath, f))
        assert total <= cache.max_bytes + 256 * 1024  # budget + 1 entry

    def test_recent_entries_survive(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_mb=1)
        raw = os.urandom(300 * 1024)

        def fetch(start, length):
            return raw[start:start + length]

        now = 1_700_000_000
        for i in range(20):
            cache.store_translation(
                b"\x02" * 32, 0x2000 + i, fetch,
                code=raw, ranges=((i, 64),), stats=None,
            )
            # Deterministic mtimes: later stores look more recent.
            d = cache._t_dir(b"\x02" * 32)
            name = cache._t_index[d][0x2000 + i][0]
            os.utime(os.path.join(d, name), (now + i, now + i))
        cache._enforce_budget()
        hit = cache.lookup_translation(b"\x02" * 32, 0x2000 + 19, fetch)
        assert hit is not None  # newest survived
        assert cache.lookup_translation(b"\x02" * 32, 0x2000, fetch) is None

    def test_orphans_and_quarantine_evicted_first(self, tmp_path):
        """Entries of an older format and quarantined entries count
        against the budget and, being oldest, are evicted first; files
        outside the cache's ``v<N>/`` trees are never touched."""
        kb = 128 * 1024
        now = 1_700_000_000

        def seed(path, age):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(os.urandom(kb))
            os.utime(path, (now - age, now - age))
            return path

        old = f"v{CACHE_FORMAT_VERSION - 1}"
        orphans = [seed(str(tmp_path / old / "t" / "ab" / f"{i}.tce"),
                        1000 - i) for i in range(8)]
        bad = [seed(str(tmp_path / f"v{CACHE_FORMAT_VERSION}" / "quarantine"
                        / f"{i}.tcp.1.bad"), 500 - i) for i in range(4)]
        foreign = seed(str(tmp_path / "notes.bin"), 5000)
        seeded = orphans + bad

        cache = CodeCache(str(tmp_path), max_mb=1)
        assert all(os.path.exists(p) for p in seeded)  # open walks nothing
        blob = os.urandom(kb)

        def fetch(start, length):
            return blob[start:start + length]

        def store(i):
            assert cache.store_translation(
                b"\x04" * 32, 0x4000 + i, fetch,
                code=blob, ranges=((i, 64),), stats=None,
            )

        def cache_bytes():
            return sum(os.path.getsize(os.path.join(d, f))
                       for d, _dirs, files in os.walk(tmp_path)
                       for f in files if os.path.join(d, f) != foreign)

        store(0)  # the first write walks the 1.5 MB store first
        gone = [p for p in seeded if not os.path.exists(p)]
        assert gone == orphans[:len(gone)] and gone  # oldest first
        assert cache.lookup_translation(b"\x04" * 32, 0x4000, fetch)
        assert cache_bytes() <= cache.max_bytes + kb + 1024

        for i in range(1, 10):
            store(i)
        cache._enforce_budget()
        assert not any(os.path.exists(p) for p in seeded)
        assert cache_bytes() <= cache.max_bytes + kb + 1024
        assert os.path.exists(foreign)

    def test_emit_cache_lru_counts_evictions(self, monkeypatch):
        stats0 = dict(_pygen._EMIT_CACHE_STATS)
        monkeypatch.setattr(_pygen, "_EMIT_CACHE_BUDGET", 2048)
        drop_in_memory_caches()
        vg(SRC, "memcheck", codegen="pygen", cache_dir=None)
        s = _pygen.emit_cache_stats()
        assert s["evictions"] > stats0.get("evictions", 0)
        assert s["bytes"] <= 2048

    def test_emit_cache_cap_bounds_code_objects(self, monkeypatch):
        """The emit cache's entry cap bounds the compiled code objects
        too: nothing else keeps an evicted entry's bytecode alive."""
        cap = 4
        monkeypatch.setattr(_pygen, "_PYGEN_EMIT_CACHE_MAX", cap)
        drop_in_memory_caches()
        made = []

        def compile_and_watch(*args, **kw):
            code = compile(*args, **kw)
            made.append(weakref.ref(code))
            return code

        monkeypatch.setattr(_pygen, "compile", compile_and_watch,
                            raising=False)
        vg(SRC, "memcheck", codegen="pygen", cache_dir=None)
        gc.collect()
        assert len(made) > cap
        assert sum(ref() is not None for ref in made) <= cap

    def test_cache_max_mb_leaves_the_emit_cache_budget(self, tmp_path):
        """``--cache-max-mb`` bounds the disk store only: a later run in
        the same process keeps the emit cache's own budget."""
        budget = _pygen._EMIT_CACHE_BUDGET
        run_cached(tmp_path, codegen="pygen", cache_max_mb=1)
        run_cached(None, codegen="pygen")
        assert _pygen._EMIT_CACHE_BUDGET == budget

    def test_emit_cache_stats_in_codegen_section(self, tmp_path):
        res = run_cached(tmp_path, codegen="pygen")
        emit = res.stats()["codegen"]["emit_cache"]
        assert {"hits", "misses", "evictions", "entries",
                "bytes"} <= set(emit)


class TestConcurrentFleet:
    def test_kill_hammered_fleet_never_corrupts(self, tmp_path):
        """Workers SIGKILLed mid-run while sharing one cache directory:
        survivors and the follow-up warm run must still be byte-correct,
        and no entry may be quarantined afterwards (atomic writes mean a
        killed writer leaves at worst an orphaned temp file)."""
        program = str(tmp_path / "prog.s")
        with open(program, "w") as f:
            f.write("""\
main:
        movi r0, 600
loop:
        sub  r0, 1
        jnz  loop
        movi r0, 7
        ret
""")
        cache_dir = str(tmp_path / "cache")
        jobs = [
            api.JobSpec(job_id=i, program=program, tool="none",
                        flags=["--codegen=pygen", "--stats=json"])
            for i in range(8)
        ]
        report = api.run_fleet(
            jobs,
            workers=3,
            policy=api.RetryPolicy(max_retries=3, backoff_base=0.01,
                                   seed=11),
            inject="kill:0.3,seed=11",
            record_bundles=False,
            cache_dir=cache_dir,
            cache_max_mb=64,
        )
        assert report.summary["terminal-failure"] == 0

        plain = run_cached(None, "none", codegen="pygen",
                           src="""
        .text
main:   movi r0, 600
loop:   sub  r0, 1
        jnz  loop
        movi r0, 7
        push r0
        call exit
""")
        # The real check: a warm in-process run over the hammered cache.
        opts = repro.Options(log_target="capture", stats_format="json",
                             cache_dir=cache_dir, codegen="pygen")
        warm = api.run(program, "none", opts, argv=[program])
        assert warm.exit_code == 7
        assert warm.stats["cache"]["quarantined"] == 0
        assert warm.stats["cache"]["hits"] > 0

    def test_fleet_aggregates_cache_stats(self, tmp_path):
        program = str(tmp_path / "prog.s")
        with open(program, "w") as f:
            f.write("main:\n        movi r0, 7\n        ret\n")
        cache_dir = str(tmp_path / "cache")

        def fleet():
            return api.run_fleet(
                [program] * 4, tool="none",
                flags=["--stats=json"], workers=2,
                record_bundles=False, cache_dir=cache_dir,
            )

        fleet()
        warm = fleet()
        assert warm.cache is not None
        assert warm.cache["hits"] > 0  # fleet-aggregated, across workers

    def test_supervisor_injects_cache_flags_once(self, tmp_path):
        spec = api.JobSpec(job_id=0, program="x.s", tool="none",
                           flags=["--cache-dir=/elsewhere"])
        sup = api.FleetSupervisor(
            [spec], cache_dir=str(tmp_path), record_bundles=False,
        )
        assert spec.flags.count("--cache-dir=/elsewhere") == 1
        assert not any(f == f"--cache-dir={tmp_path}" for f in spec.flags)
        spec2 = api.JobSpec(job_id=0, program="x.s", tool="none")
        api.FleetSupervisor([spec2], cache_dir=str(tmp_path),
                            record_bundles=False)
        assert f"--cache-dir={tmp_path}" in spec2.flags


class TestSmcInteraction:
    def test_smc_crc_recomputed_on_hit(self, tmp_path):
        """A hit's SMC hash comes from the *re-fetched* bytes, so the
        stored entry can never carry a stale CRC."""
        cache = CodeCache(str(tmp_path))
        raw = b"\x90" * 64

        def fetch(start, length):
            return raw[start:start + length]

        cache.store_translation(
            b"\x03" * 32, 0x3000, fetch,
            code=b"CODE", ranges=((0, 64),), stats=None,
        )
        hit = cache.lookup_translation(b"\x03" * 32, 0x3000, fetch)
        assert hit is not None
        assert hit["smc_crc"] == zlib.crc32(raw)

    def test_smc_warm_run_identical(self, tmp_path):
        smc = """
        .text
main:   movi r6, 0
        movi r7, 10
loop:   add  r6, r7
        dec  r7
        jnz  loop
        push r6
        call putint
        movi r0, 0
        push r0
        call exit
"""
        cold = run_cached(tmp_path, "memcheck", src=smc, smc_check="all")
        warm = run_cached(tmp_path, "memcheck", src=smc, smc_check="all")
        assert_same_run(cold, warm)
        assert warm.stats()["cache"]["hits"] > 0
        assert warm.stats()["smc"]["checks"] == cold.stats()["smc"]["checks"]
