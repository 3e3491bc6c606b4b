"""Cross-engine replay oracle: a run recorded under the paper engine must
replay bit-exactly under every registry engine.

The event log captures only architected decisions, so the recording made
under the paper engine is an executable oracle for the chained, pygen
and fast engines: same RunOutcome, same (signal, pc, addr, access) fault
quadruple, same guest_insns, zero divergences.  This subsumes the older
differential suites — instead of comparing two live runs' final states,
every scheduler pick, syscall result and signal delivery is verified at
the moment it is replayed.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Options, assemble, build_source, run_tool
from repro.core.engines import ENGINES
from repro.core.replay import ReplayDivergence

from .helpers import asm_image, programs

_QUICK = os.environ.get("REPRO_TEST_QUICK") == "1"
N_EXAMPLES = 25 if _QUICK else 100

MAX_BLOCKS = 200_000


def _fingerprint(res):
    o = res.outcome
    fault = None
    if o.fault_info is not None:
        fi = o.fault_info
        fault = (fi.sig, fi.addr, fi.access, fi.pc)
    return (
        o.exit_code,
        o.fatal_signal,
        o.stopped_reason,
        o.guest_insns,
        o.blocks_executed,
        fault,
        res.stdout,
        res.stderr,
    )


def _record(img, path, **opt_kw):
    opts = Options(log_target="capture", record=path,
                   **ENGINES["paper"].options, **opt_kw)
    return run_tool("none", img, options=opts, max_blocks=MAX_BLOCKS)


def _replay(img, path, engine, **opt_kw):
    opts = Options(log_target="capture", replay=path,
                   **{**ENGINES[engine].options, **opt_kw})
    return run_tool("none", img, options=opts, max_blocks=MAX_BLOCKS)


def _assert_replays_everywhere(img, **opt_kw):
    """Record under the paper engine; replay under every engine; compare."""
    path = tempfile.mktemp(suffix=".rrlog")
    try:
        rec = _record(img, path, **opt_kw)
        want = _fingerprint(rec)
        # Replay must consume the whole log: divergence raises, and the
        # final EV_EXIT event cross-checks outcome counters in-engine.
        for engine in ENGINES:
            rep = _replay(img, path, engine,
                          **{k: v for k, v in opt_kw.items()
                             if k not in ("inject", "checkpoint_every")})
            assert _fingerprint(rep) == want, engine
            stats = rep.stats()["replay"]
            assert stats["divergences"] == 0, engine
            assert stats["events_consumed"] == stats["log_events"], engine
        return rec
    finally:
        if os.path.exists(path):
            os.unlink(path)


# ---------------------------------------------------------------------------
# randomized workloads
# ---------------------------------------------------------------------------


class TestRandomPrograms:
    @given(src=programs())
    @settings(max_examples=N_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    def test_random_program_replays_in_every_tier(self, src):
        _assert_replays_everywhere(assemble(src, filename="rand"))


# ---------------------------------------------------------------------------
# faulting programs: the (signal, addr, access, pc) quadruple is the
# contract — replay must reproduce the exact faulting instruction.
# ---------------------------------------------------------------------------

_FAULT_PROGRAMS = {
    "bad-read": """
        .text
main:   movi r1, 5
floop:  dec  r1
        jnz  floop
        movi r2, 0x9fff0000
        ld   r3, [r2]
        ret
""",
    "bad-write": """
        .text
main:   movi r1, 3
        movi r2, 0x9fff1000
        st   [r2], r1
        ret
""",
    "bad-exec": """
        .text
main:   movi r2, 0x9fff2000
        jmpr r2
        ret
""",
    "div-zero": """
        .text
main:   movi r1, 10
        movi r2, 0
        divu r1, r2
        ret
""",
    "mid-loop-fault": """
        .text
main:   movi r1, 0
        movi r2, 64
loop:   add  r1, r2
        dec  r2
        cmp  r2, 30
        jnz  loop
        movi r3, 0x9fff3000
        ldb  r0, [r3]
        ret
""",
}


class TestFaultQuadruple:
    @pytest.mark.parametrize("name", sorted(_FAULT_PROGRAMS))
    def test_fault_replays_exactly(self, name):
        img = asm_image(_FAULT_PROGRAMS[name])
        rec = _assert_replays_everywhere(img)
        assert rec.outcome.fatal_signal is not None, name

    def test_unmapped_jump_faults_identically(self):
        # Jump into an address that was mapped, then unmapped: the
        # translate-time fault path (exec access) must replay too.
        src = """
        .text
main:   movi r0, 7           ; mmap(0, 4096, rwx)
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        movi r1, 0xc3c3c3c3  ; scribble something undecodable
        st   [r6], r1
        movi r0, 8           ; munmap it again
        mov  r1, r6
        movi r2, 4096
        syscall
        jmpr r6              ; exec of unmapped page
        ret
"""
        rec = _assert_replays_everywhere(asm_image(src))
        fi = rec.outcome.fault_info
        assert fi is not None and fi.access == "exec"


# ---------------------------------------------------------------------------
# threads + signals (the scheduler-decision and arrival-point events)
# ---------------------------------------------------------------------------

_MULTI_SIGNAL_SRC = """
        .text
main:   movi  r0, 11          ; sigaction(SIGALRM, handler)
        movi  r1, 14
        movi  r2, handler
        syscall
        movi  r0, 13          ; alarm(150)
        movi  r1, 150
        syscall
        movi  r0, 14          ; thread_create(worker, 0, 9)
        movi  r1, worker
        movi  r2, 0
        movi  r3, 9
        syscall
        mov   r6, r0
        movi  r2, 0
        movi  r3, 800
mloop:  add   r2, r3
        dec   r3
        jnz   mloop
        mov   r1, r6
        movi  r0, 16          ; join
        syscall
        add   r0, r2
        ld    r1, [hits]
        add   r0, r1
        andi  r0, 255
        ret
worker: ld    r1, [sp+4]
        movi  r2, 0
wl:     add   r2, r1
        movi  r0, 17          ; yield inside the worker loop
        syscall
        dec   r1
        jnz   wl
        mov   r1, r2
        movi  r0, 15          ; thread_exit(sum)
        syscall
handler:
        ld    r1, [hits]
        inc   r1
        st    [hits], r1
        movi  r0, 13          ; re-arm alarm(200)
        movi  r1, 200
        syscall
        ret
.data
hits:   .word 0
"""

_KILL_SRC = """
        .text
main:   movi r0, 18           ; getpid
        syscall
        movi r1, 0
        movi r2, 40
kl:     add  r1, r2
        dec  r2
        jnz  kl
        movi r0, 12           ; kill(self, SIGTERM=15): default-fatal
        movi r1, 0
        movi r2, 15
        syscall
        ret
"""


class TestThreadsAndSignals:
    def test_multi_signal_multi_thread_replays(self):
        img = asm_image(_MULTI_SIGNAL_SRC)
        rec = _assert_replays_everywhere(img, thread_timeslice=300)
        events = rec.core.scheduler.rr.log.events
        from repro.core.replay import EV_SCHED, EV_SIGNAL

        assert sum(1 for e in events if e.kind == EV_SIGNAL) >= 2
        assert sum(1 for e in events if e.kind == EV_SCHED) >= 2
        assert rec.outcome.fatal_signal is None

    def test_self_kill_replays(self):
        rec = _assert_replays_everywhere(asm_image(_KILL_SRC))
        assert rec.outcome.fatal_signal == 15


# ---------------------------------------------------------------------------
# fault-injection plans: recorded dispatch-level events replay across
# tiers — a capability the live injector alone cannot provide, because
# its dispatch-step stream is tier-dependent.
# ---------------------------------------------------------------------------

_INJECT_TARGET_SRC = """
        .text
main:   movi r6, 0
        movi r7, 6
mloop:  movi r0, 7            ; mmap (mmap-enomem opportunity)
        movi r1, 0
        movi r2, 4096
        movi r3, 6
        syscall
        test r0, r0
        js   mf
        inc  r6
mf:     movi r0, 3            ; write (eintr opportunity)
        movi r1, 1
        movi r2, msg
        movi r3, 2
        syscall
        dec  r7
        jnz  mloop
        mov  r0, r6
        andi r0, 255
        ret
.data
msg:    .ascii "ok"
"""

_PLANS = [
    "mmap-enomem@2,seed=3",
    "eintr:0.4,seed=7",
    "smc-flush:0.02,evict:0.02,seed=5",
    "segv@25,seed=9",
    "isel@2,seed=4",
    "mmap-enomem@1,eintr:0.2,smc-flush:0.01,evict:0.01,seed=13",
]


class TestInjectionReplay:
    @pytest.mark.parametrize("plan", _PLANS)
    def test_injected_run_replays_in_every_tier(self, plan):
        img = asm_image(_INJECT_TARGET_SRC)
        _assert_replays_everywhere(img, inject=plan)


# ---------------------------------------------------------------------------
# checkpoints and restore
# ---------------------------------------------------------------------------


class TestCheckpointRestore:
    def test_checkpoints_verify_across_tiers(self, tmp_path):
        img = asm_image(_MULTI_SIGNAL_SRC)
        path = str(tmp_path / "ckpt.rrlog")
        rec = _record(img, path, checkpoint_every=500, thread_timeslice=300)
        assert rec.stats()["replay"]["checkpoints"] > 0
        for engine in ("pygen", "chained"):
            rep = _replay(img, path, engine, thread_timeslice=300)
            stats = rep.stats()["replay"]
            assert stats["checkpoints_verified"] == \
                rec.stats()["replay"]["checkpoints"]
            assert _fingerprint(rep) == _fingerprint(rec)

    def test_restore_continues_to_identical_outcome(self, tmp_path):
        img = asm_image(_MULTI_SIGNAL_SRC)
        path = str(tmp_path / "ckpt.rrlog")
        rec = _record(img, path, checkpoint_every=400, thread_timeslice=300)
        res = run_tool(
            "none", img,
            options=Options(log_target="capture", restore=path,
                            thread_timeslice=300),
            max_blocks=MAX_BLOCKS,
        )
        assert _fingerprint(res) == _fingerprint(rec)

    def test_record_from_restore_is_replayable(self, tmp_path):
        img = asm_image(_MULTI_SIGNAL_SRC)
        first = str(tmp_path / "first.rrlog")
        second = str(tmp_path / "second.rrlog")
        rec = _record(img, first, checkpoint_every=400, thread_timeslice=300)
        cont = run_tool(
            "none", img,
            options=Options(log_target="capture", restore=first,
                            record=second, thread_timeslice=300),
            max_blocks=MAX_BLOCKS,
        )
        assert _fingerprint(cont) == _fingerprint(rec)
        # The continuation's own log replays (restore from its bootstrap
        # checkpoint, then verify the recorded tail) — under another tier.
        rep = run_tool(
            "none", img,
            options=Options(log_target="capture", replay=second,
                            restore=second, codegen="pygen",
                            thread_timeslice=300),
            max_blocks=MAX_BLOCKS,
        )
        assert _fingerprint(rep) == _fingerprint(rec)
        assert rep.stats()["replay"]["divergences"] == 0

    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    def test_restore_reaches_the_recorded_translations(self, tmp_path,
                                                       policy):
        """A restored run makes the translations the recorded one made,
        under LRU too: the checkpoint carries the dispatcher's fast
        cache, whose misses reorder an LRU table."""
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                        "benchmarks"))
        from bench_transtab import _churn_program

        img = assemble(build_source(_churn_program()), filename="churn")
        path = str(tmp_path / "churn.rrlog")
        runs = []
        for mode in ({"record": path}, {"restore": path}):
            opts = Options(log_target="capture", stats_format="json",
                           transtab_entries=64, checkpoint_every=3000,
                           transtab_policy=policy, **mode)
            runs.append(run_tool("none", img, options=opts))
        rec, res = runs
        assert rec.stats()["replay"]["checkpoints"] > 0
        assert (res.stdout, res.stats()["translations_made"]) == (
            rec.stdout, rec.stats()["translations_made"])

    def test_restore_without_checkpoints_is_rejected(self, tmp_path):
        from repro.core.replay import ReplayFormatError

        img = asm_image("""
        .text
main:   movi r0, 1
        ret
""")
        path = str(tmp_path / "plain.rrlog")
        _record(img, path)
        with pytest.raises(ReplayFormatError, match="no checkpoints"):
            run_tool("none", img,
                     options=Options(log_target="capture", restore=path))


# ---------------------------------------------------------------------------
# divergence is loud
# ---------------------------------------------------------------------------


class TestDivergenceDetection:
    def test_wrong_program_diverges_with_location(self, tmp_path):
        img = asm_image(_INJECT_TARGET_SRC)
        path = str(tmp_path / "run.rrlog")
        _record(img, path)
        other = asm_image("""
        .text
main:   movi r1, 3
xl:     dec  r1
        jnz  xl
        movi r0, 0
        ret
""")
        with pytest.raises(ReplayDivergence) as exc_info:
            _replay(other, path, "paper")
        err = exc_info.value
        assert err.index >= 0
        assert "event #" in str(err)
        assert "pc=" in str(err)

    def test_tampered_event_diverges(self, tmp_path):
        from repro.core.replay import EV_SYSCALL, Event, EventLog

        img = asm_image(_INJECT_TARGET_SRC)
        path = str(tmp_path / "run.rrlog")
        _record(img, path)
        log = EventLog.load(path)
        # Corrupt the first syscall result, re-sign the log (valid hash,
        # wrong content): replay must catch the divergence itself.
        for i, ev in enumerate(log.events):
            if ev.kind == EV_SYSCALL:
                args = (ev.args[0], ev.args[1], ev.args[2],
                        (ev.args[3] + 1) & 0xFFFFFFFF)
                log.events[i] = Event(ev.kind, ev.tid, ev.insns, args,
                                      ev.blob)
                break
        log.save(path)
        with pytest.raises(ReplayDivergence):
            _replay(img, path, "paper")
