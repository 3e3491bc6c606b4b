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
import json
import marshal
import os
import pickle
import signal
import time
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
from repro.core.codegen import CODEGEN_MODES
from repro.workloads import suite

from .helpers import asm_image, cache_entries, vg

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
    return [e for e in cache_entries(cache_dir) if e[1] == "p"]


def packs(cache_dir):
    base = cache_dir / f"v{CACHE_FORMAT_VERSION}"
    return sorted(str(base / n) for n in os.listdir(base)
                  if n.endswith(".pack"))


def flip_byte(path, at):
    with open(path, "r+b") as f:
        f.seek(at)
        b = f.read(1)
        f.seek(at)
        f.write(bytes([b[0] ^ 0xFF]))


def rewrite_p_entries(cache_dir, blob_fn):
    """Replace every ``p/`` entry's bytecode blob by ``blob_fn(blob)``,
    re-sealed with a valid digest (only the decode checks can catch it).
    Returns the number of packs rewritten."""
    cache = CodeCache(str(cache_dir))
    rewritten = [pack for pack in cache._sources()[1:] if pack.p]
    for pack in rewritten:
        out = _codecache._Pack(index=(pack.t, {}, pack.x))
        with open(pack.path, "rb") as f:
            out.buf += f.read()[pack.base:]  # t/ and x/ blobs stay put
        for key, (off, length) in pack.p.items():
            src, enc, blob = cache._read(pack, off, length)
            out.put(out.p, key, _codecache._seal((src, enc, blob_fn(blob))))
        assert cache._write_pack(out)
        os.remove(pack.path)
    cache.flush()
    return len(rewritten)


def trace_set(res):
    """The live traces of a run: head, member addresses and sizes."""
    mgr = res.core.scheduler.traces
    return (len(mgr.built), {
        (head, tuple(m.guest_addr for m in tr.members), tr.n_blocks,
         tr.total_insns)
        for head, tr in mgr.traces.items()
    })


def run_traced(cache_dir, src=CALL_LOOP_SRC, tool="memcheck", **kw):
    return run_cached(cache_dir, tool, src=src, codegen="traces", **kw)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("tool", ["none", "memcheck", "cachegrind"])
    @pytest.mark.parametrize("codegen", CODEGEN_MODES)
    def test_warm_byte_identical(self, tmp_path, tool, codegen):
        drop_in_memory_caches()  # the cold run stores every pygen block
        cold = run_cached(tmp_path, tool, codegen=codegen)
        drop_in_memory_caches()
        warm = run_cached(tmp_path, tool, codegen=codegen)
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
            assert warm.stats()["traces"]["spliced"] == 0
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
        assert cold.stats()["traces"]["spliced"] > 0
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
        assert first.stats()["traces"]["spliced"] > 0
        drop_in_memory_caches()
        second = run_traced(tmp_path)
        assert second.stats()["cache"]["trace_misses"] == 0
        assert second.stats()["traces"]["spliced"] == 0
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
        assert warm.stats()["traces"]["spliced"] == 0
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
        assert changed.stats()["traces"]["spliced"] > 0
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
        assert warm.stats()["traces"]["spliced"] == 0
        assert (warm.stats()["traces"]["recordings_aborted"]
                == cold.stats()["traces"]["recordings_aborted"])
        assert trace_set(warm) == trace_set(cold)
        if at == 1:
            live = warm.core.scheduler.traces.traces.values()
            assert live and all(len(tr.members) == 2 for tr in live)


class TestInvalidation:
    def test_version_file_follows_the_format(self, tmp_path):
        """A directory an older format used says so until a run writes
        its first pack; a warm run then leaves the file alone."""
        version = tmp_path / "VERSION"
        version.write_text('{"cache": "repro-codecache", "format": 5}\n')
        run_cached(tmp_path, codegen="pygen")
        assert json.loads(version.read_text())["format"] == \
            CACHE_FORMAT_VERSION == 6
        before = version.stat()
        warm = run_cached(tmp_path, codegen="pygen")
        assert warm.stats()["cache"]["bytes_written"] == 0
        after = version.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)

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
    """``quarantined`` counts packs: a damaged entry, index or header
    sets its whole pack aside, and nothing it held is served again."""

    def test_tampered_entry_quarantined(self, tmp_path):
        cold = run_cached(tmp_path, codegen="pygen")
        entries = cache_entries(tmp_path)
        assert entries
        for path, _ns, off, length, _obj in entries:
            flip_byte(path, off + length // 2)  # every entry's payload
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] == len({e[0] for e in entries}) == 1
        assert c["hits"] == 0 and c["pygen_hits"] == 0
        qdir = tmp_path / f"v{CACHE_FORMAT_VERSION}" / "quarantine"
        assert any(qdir.iterdir())

    @pytest.mark.parametrize("at", [10, 50], ids=["header", "index"])
    def test_tampered_index_quarantined(self, tmp_path, at):
        """A flipped byte in a pack's header digest or its index: the
        pack is quarantined when it is opened, before any entry is read."""
        cold = run_cached(tmp_path, codegen="pygen")
        (path,) = packs(tmp_path)
        flip_byte(path, at)
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] == 1
        assert c["hits"] == 0 and c["pygen_hits"] == 0
        assert c["bytes_read"] == 0  # no blob of it was read

    def test_tampered_bytecode_quarantined(self, tmp_path):
        """A flipped byte inside a stored code object fails the payload
        digest: the entry is quarantined and the block recompiled."""
        drop_in_memory_caches()
        cold = run_cached(tmp_path, codegen="pygen")
        entries = p_entries(tmp_path)
        assert entries
        for path, _ns, off, length, (_src, _enc, blob) in entries:
            with open(path, "rb") as f:
                sealed = f.read()[off:off + length]
            assert pickle.loads(sealed[36:])[2] == blob
            flip_byte(path, off + sealed.index(blob) + len(blob) // 2)
        drop_in_memory_caches()
        warm = run_cached(tmp_path, codegen="pygen")
        assert_same_run(cold, warm)
        c = warm.stats()["cache"]
        assert c["quarantined"] == len({e[0] for e in entries})
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
        (path,) = packs(tmp_path)
        with open(path, "wb") as f:
            f.write(b"RC")  # shorter than the header
        warm = run_cached(tmp_path)
        assert_same_run(cold, warm)
        assert warm.stats()["cache"]["quarantined"] == 1

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
        cache.flush()
        total = 0
        for dirpath, _dirs, files in os.walk(tmp_path):
            for f in files:
                total += os.path.getsize(os.path.join(dirpath, f))
        largest = max(os.path.getsize(p) for p in packs(tmp_path))
        assert total <= cache.max_bytes + largest  # budget + one pack

    def test_recent_entries_survive(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_mb=1)
        raw = os.urandom(300 * 1024)

        def fetch(start, length):
            return raw[start:start + length]

        now = 1_700_000_000
        for i in range(20):
            # Each entry passes the flush threshold: one pack per store.
            cache.store_translation(
                b"\x02" * 32, 0x2000 + i, fetch,
                code=raw, ranges=((i, 64),), stats=None,
            )
            assert cache.stats.bytes_written > 0
            # Deterministic mtimes: later stores look more recent.
            (newest,) = {e[0] for e in cache_entries(tmp_path)
                         if e[4]["addr"] == 0x2000 + i}
            os.utime(newest, (now + i, now + i))
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
                        / f"{i}.pack.1.bad"), 500 - i) for i in range(4)]
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
        assert not (tmp_path / old).exists()  # emptied orphan tree removed
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
        too: nothing else keeps an evicted entry's bytecode alive.  The
        program prints twice, so putint's blocks run twice and compile
        (a block that runs once is only interpreted)."""
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
        twice = SRC.replace("main:   movi r6, 0", "main:   movi r5, 2\n"
                            "again:  movi r6, 0").replace(
            "        addi sp, 4\n", "        addi sp, 4\n"
            "        dec  r5\n        jnz  again\n")
        vg(twice, "memcheck", codegen="pygen", cache_dir=None)
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


def listing(root):
    """Every file and directory under *root* with its inode, size and
    mtime: a rename, rewrite or touch changes it."""
    out = {}
    for dirpath, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            out[os.path.relpath(path, root)] = (st.st_ino, st.st_size,
                                                st.st_mtime_ns)
    return out


class TestPacks:
    """A run's stores stay in memory and reach the store as one pack."""

    def test_cold_run_writes_one_pack(self, tmp_path):
        cache_dir = tmp_path / "cache"
        drop_in_memory_caches()
        cold = run_traced(cache_dir)
        c = cold.stats()["cache"]
        assert c["stores"] > 0 and c["trace_stores"] > 0
        assert c["bytes_written"] == os.path.getsize(packs(cache_dir)[0])
        objects = 1 + sum(len(dirs) + len(files)
                          for _d, dirs, files in os.walk(cache_dir))
        assert objects <= 4  # the directory, VERSION, v<N>/ and the pack
        assert len(packs(cache_dir)) == 1

    def test_warm_run_changes_nothing(self, tmp_path):
        """A warm run creates, renames, touches and merges nothing, and
        closes every pack it opened."""
        drop_in_memory_caches()
        run_traced(tmp_path)
        before = listing(tmp_path)
        fds = len(os.listdir("/proc/self/fd"))
        drop_in_memory_caches()
        warm = run_traced(tmp_path)
        c = warm.stats()["cache"]
        assert c["hits"] > 0 and c["trace_hits"] > 0
        assert c["misses"] == c["pygen_misses"] == c["trace_misses"] == 0
        assert c["stores"] == c["bytes_written"] == c["merges"] == 0
        assert listing(tmp_path) == before
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_run_sees_its_own_pending_stores(self, tmp_path):
        """With the memory tier cleared and every translation discarded
        mid-run, the run's lookups hit the entries it stored earlier,
        which are not on disk until it ends."""
        from repro.core.valgrind import Valgrind

        drop_in_memory_caches()
        core = Valgrind("none", repro.Options(
            log_target="capture", stats_format="json",
            cache_dir=str(tmp_path), dispatch_quantum=20))
        on_disk = []

        def forget(_insns):
            on_disk.append(packs(tmp_path))
            _translate.clear_translation_cache()
            table = core.scheduler.transtab
            for t in table.all_translations():
                table.discard(t.guest_addr)

        core.on_progress = forget
        res = core.run(asm_image(SRC))
        assert_same_run(res, run_cached(None, "none"))
        c = res.stats()["cache"]
        assert on_disk and not any(on_disk)
        assert c["hits"] > 0 and c["bytes_read"] == 0
        assert len(packs(tmp_path)) == 1

    def test_many_flushes_stay_within_the_merge_bound(self, tmp_path):
        """100 one-entry flushes: every entry still hits, and the pack
        count never passes the merge bound."""
        cache = CodeCache(str(tmp_path))
        raw = os.urandom(4096)

        def fetch(start, length):
            return raw[start:start + length]

        for i in range(100):
            assert cache.store_translation(
                b"\x05" * 32, 0x5000 + i, fetch,
                code=raw[i:i + 256], ranges=((i, 16),), stats=None,
            )
            cache.flush()
            assert len(packs(tmp_path)) <= _codecache._MAX_PACKS
        s = cache.stats
        flushed = s.bytes_written - s.merged_bytes
        print(f"100 flushes: {flushed} bytes in packs, {s.merges} merges "
              f"rewrote {s.merged_bytes} bytes")
        assert s.merges > 0
        assert s.merged_bytes <= 4 * flushed
        reader = CodeCache(str(tmp_path))
        assert all(reader.lookup_translation(b"\x05" * 32, 0x5000 + i, fetch)
                   for i in range(100))
        assert reader.stats.hits == 100

    def test_warm_lookup_reads_only_the_entry_it_hits(self, tmp_path,
                                                      monkeypatch):
        """Ten programs store ten versions of the blocks at shared
        addresses; the index carries each version's ranges and guest
        digest, so a warm run reads one ``t/`` blob per hit."""
        progs = [SRC.replace("movi r7, 60", f"movi r7, {60 + i}")
                 for i in range(10)]
        for src in progs:
            run_cached(tmp_path, "none", src=src, codegen="closures")
        by_addr = {}
        for _path, ns, _off, _len, obj in cache_entries(tmp_path):
            if ns == "t":
                by_addr[obj["addr"]] = by_addr.get(obj["addr"], 0) + 1
        assert max(by_addr.values()) >= 10
        reads = []
        read = CodeCache._read

        def counted(cache, pack, off, length):
            reads.append(pack.path)
            return read(cache, pack, off, length)

        monkeypatch.setattr(CodeCache, "_read", counted)
        warm = run_cached(tmp_path, "none", src=progs[3], codegen="closures")
        c = warm.stats()["cache"]
        assert c["hits"] > 0 and c["misses"] == 0
        assert len(reads) == c["hits"]

    def test_killed_writer_leaves_no_pack(self, tmp_path):
        """A process SIGKILLed after storing, before its flush, leaves
        nothing a reader could open."""
        pid = os.fork()
        if pid == 0:
            try:
                cache = CodeCache(str(tmp_path))
                raw = bytes(range(256))
                for i in range(20):
                    cache.store_translation(
                        b"\x07" * 32, 0x7000 + i, lambda s, n: raw[s:s + n],
                        code=raw, ranges=((i, 8),), stats=None)
                cache.store_trace(b"key", None, 0, 0)
            finally:
                os.kill(os.getpid(), signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.listdir(tmp_path / f"v{CACHE_FORMAT_VERSION}") == []
        assert CodeCache(str(tmp_path)).load_trace(b"key") is None

    def test_concurrent_flushes_lose_nothing(self, tmp_path):
        """More writers than cores flush and merge one directory at once:
        a merge deletes its inputs only after the merged pack is in
        place, so every entry survives and no pack is damaged."""
        writers, per_writer = 4, 25
        pids = []
        for i in range(writers):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    cache = CodeCache(str(tmp_path))
                    for j in range(per_writer):
                        cache.store_trace(b"%d/%d" % (i, j), None, 0, 0)
                        cache.flush()
                    status = 0 if cache.stats.store_errors == 0 else 2
                finally:
                    os._exit(status)
            pids.append(pid)
        deadline = time.monotonic() + 60
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    pids.remove(pid)
                    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            time.sleep(0.01)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert not pids, "a writer did not finish in time"
        reader = CodeCache(str(tmp_path))
        assert all(reader.load_trace(b"%d/%d" % (i, j)) == (None, 0, 0)
                   for i in range(writers) for j in range(per_writer))
        assert reader.stats.quarantined == 0

    def test_pack_gone_is_a_plain_miss(self, tmp_path, monkeypatch):
        """A pack another process merged or evicted away: an open one
        still serves its entries, a listed but vanished one is a miss."""
        writer = CodeCache(str(tmp_path))
        writer.store_trace(b"key", None, 0, 0)
        writer.flush()
        (path,) = packs(tmp_path)
        reader = CodeCache(str(tmp_path))
        assert reader.load_trace(b"other") is None  # opens every pack
        os.remove(path)
        assert reader.load_trace(b"key") == (None, 0, 0)
        late = CodeCache(str(tmp_path))
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir",
                            lambda d: listdir(d) + [os.path.basename(path)])
        assert late.load_trace(b"key") is None
        assert late.stats.quarantined == reader.stats.quarantined == 0


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
        """A translation made from a ``t/`` hit hashes the guest bytes now
        in memory, so the stored entry can never carry a stale CRC."""
        run_cached(tmp_path)
        warm = run_cached(tmp_path)
        cache = warm.stats()["cache"]
        assert cache["hits"] > 0 and cache["misses"] == 0, cache
        mem = warm.core.memory
        made = warm.core.scheduler.transtab.all_translations()
        assert made
        for t in made:
            raw = b"".join(mem.read_raw(s, n) for s, n in t.ranges)
            assert t.smc_hash == zlib.crc32(raw)

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
