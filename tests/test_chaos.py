"""Chaos harness: seeded fault-injection runs must always end cleanly.

Every run below executes under an --inject plan that fails syscalls,
posts synthetic faults, flushes translations, evicts table chunks or
breaks the JIT mid-run.  The contract being tested is the paper's
robustness requirement: whatever happens to the guest, the framework
itself finishes with a well-formed RunOutcome (normal exit or a guest
signal) — never a host traceback — and identical plans replay
identically.
"""

from __future__ import annotations

import itertools

import pytest

from repro import Options, run_tool
from repro.core.errors import ExitCode
from repro.core.faultinject import BadInjectSpec, FaultInjector

from .helpers import asm_image

MAX_BLOCKS = 200_000

#: Exercises the syscall-failure injections: a guest that retries EINTR
#: and tolerates ENOMEM, so a fault-free plan and a firing plan both end
#: in a normal exit (with different printed counts).
ALLOC_IO_SRC = """
        .text
main:   movi r6, 0           ; successful mmaps
        movi r7, 6           ; attempts
mloop:  movi r0, 7           ; mmap(0, 4096, rw)
        movi r1, 0
        movi r2, 4096
        movi r3, 6
        syscall
        test r0, r0
        js   mfail           ; -ENOMEM: tolerated
        sti  [r0], 77        ; touch the new page
        inc  r6
mfail:  dec  r7
        jnz  mloop
        movi r0, 6           ; brk(0): query (also an injection point)
        movi r1, 0
        syscall
        movi r7, 5           ; EINTR-retried writes
wloop:  movi r3, 3           ; bounded retries per write
retry:  movi r0, 3           ; write(1, msg, 2)
        movi r1, 1
        movi r2, msg
        push r3
        movi r3, 2
        syscall
        pop  r3
        test r0, r0
        jns  wok
        dec  r3
        jnz  retry
wok:    dec  r7
        jnz  wloop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
        .data
msg:    .asciz "x\\n"
"""

#: Exercises the dispatch-level injections (segv / smc-flush / evict /
#: isel): pure compute with a SIGSEGV handler, so even synthetic faults
#: are absorbed and the final sum is deterministic.
CPU_SRC = """
        .text
main:   movi r0, 11          ; sigaction(SIGSEGV, handler)
        movi r1, 11
        movi r2, handler
        syscall
        movi r6, 0
        movi r7, 400
loop:   mov  r1, r7
        mul  r1, r7
        add  r6, r1
        andi r6, 0xFFFFF
        dec  r7
        jnz  loop
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
handler:
        ld   r1, [counter]   ; count absorbed synthetic faults
        inc  r1
        st   [counter], r1
        ret
        .data
counter: .word 0
"""

SPECS = [
    "mmap-enomem@2,eintr:0.2,seed={seed}",
    "segv@3,smc-flush:0.05,evict:0.02,seed={seed}",
    "isel@1,eintr:0.1,evict:0.02,mmap-enomem:0.2,seed={seed}",
]
SEEDS = range(6)

#: Execution engines: the paper loop, the chained loop (``--perf``, an
#: alias of ``--chaining``), the pygen tier under chaining, and the trace
#: tier under chaining (the repo benchmark's ``fast`` engine).  traces
#: uses a low threshold so chaos runs actually stitch superblocks while
#: injections are firing around them.
MODES = {
    "plain": {},
    "perf": {"chaining": True},
    "pygen": {"chaining": True, "codegen": "pygen"},
    "traces": {"chaining": True, "codegen": "traces", "trace_threshold": 3},
}

CONFIGS = list(itertools.product(
    [("alloc-io", ALLOC_IO_SRC), ("cpu", CPU_SRC)],
    ["none", "memcheck"],
    list(MODES),
))


def chaos_run(img, tool, mode, inject, record=None, replay=None):
    opts = Options(log_target="capture", inject=inject, record=record,
                   replay=replay, **MODES[mode])
    return run_tool(tool, img, options=opts, max_blocks=MAX_BLOCKS)


def outcome_fingerprint(res):
    o = res.outcome
    return (res.exit_code, res.stdout, o.fatal_signal, o.stopped_reason,
            o.blocks_executed, o.guest_insns)


def assert_well_formed(res, ctx):
    """The run finished with a legal outcome — never a host crash."""
    o = res.outcome
    assert res.exit_code == o.exit_code, ctx
    if o.fatal_signal is not None:
        assert 1 <= o.fatal_signal < 32, ctx
        assert res.exit_code == ExitCode.for_signal(o.fatal_signal), ctx
    elif o.stopped_reason is not None:
        assert o.stopped_reason in ("deadlock", "block-budget"), ctx
        assert res.exit_code in (ExitCode.BLOCK_BUDGET, ExitCode.DEADLOCK), ctx


@pytest.mark.parametrize(
    "prog,tool,mode", CONFIGS,
    ids=[f"{p[0]}-{t}-{m}" for p, t, m in CONFIGS],
)
class TestChaosMatrix:
    """2 programs x 2 tools x 4 engines x 18 seeded plans, each run
    recorded and then replayed once (the replay oracle verifies every
    scheduler pick, syscall result and injection event in-engine — a far
    stronger determinism check than re-running and comparing the end
    state)."""

    def test_injected_runs_end_cleanly_and_replay(self, prog, tool, mode,
                                                  tmp_path):
        _, src = prog
        img = asm_image(src)
        log = str(tmp_path / "chaos.rrlog")
        for spec_tpl in SPECS:
            for seed in SEEDS:
                inject = spec_tpl.format(seed=seed)
                ctx = (prog[0], tool, mode, inject)
                res = chaos_run(img, tool, mode, inject, record=log)
                assert_well_formed(res, ctx)
                rep = chaos_run(img, tool, mode, None, replay=log)
                assert outcome_fingerprint(rep) == \
                    outcome_fingerprint(res), ctx
                assert rep.stats()["replay"]["divergences"] == 0, ctx


class TestDeterminism:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_identical_plans_record_byte_identical_logs(self, mode, tmp_path):
        # Regression guard for nondeterminism leaks: two runs under the
        # same plan must produce *byte-identical* event logs — every
        # decision, not just the final fingerprint, must match.
        img = asm_image(ALLOC_IO_SRC)
        for spec_tpl in SPECS:
            inject = spec_tpl.format(seed=3)
            pa = str(tmp_path / "a.rrlog")
            pb = str(tmp_path / "b.rrlog")
            a = chaos_run(img, "none", mode, inject, record=pa)
            b = chaos_run(img, "none", mode, inject, record=pb)
            assert outcome_fingerprint(a) == outcome_fingerprint(b), inject
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), inject

    @pytest.mark.parametrize("mode", list(MODES))
    def test_neverfiring_plan_is_bit_identical_to_no_plan(self, mode):
        # An injector whose rules never fire must not perturb the run at
        # all: fault-free replays stay bit-identical.
        for src in (ALLOC_IO_SRC, CPU_SRC):
            img = asm_image(src)
            base = chaos_run(img, "none", mode, inject=None)
            armed = chaos_run(img, "none", mode,
                              inject="mmap-enomem@999999,segv@999999,seed=5")
            assert outcome_fingerprint(base) == outcome_fingerprint(armed)
            assert base.exit_code == 0

    def test_engines_agree_under_injection(self):
        # The same syscall-level plan must produce the same architected
        # outcome whichever engine executes the guest (dispatch-level
        # events like evict change block counts, so use a syscall plan).
        for src in (ALLOC_IO_SRC, CPU_SRC):
            img = asm_image(src)
            inject = "mmap-enomem@2,eintr:0.2,seed=7"
            runs = {m: chaos_run(img, "none", m, inject) for m in MODES}
            ref = runs["plain"]
            for mode, res in runs.items():
                assert res.exit_code == ref.exit_code, mode
                assert res.stdout == ref.stdout, mode
                assert res.outcome.guest_insns == ref.outcome.guest_insns, mode


class TestJitQuarantine:
    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("tool", ["none", "memcheck"])
    def test_isel_failure_degrades_to_interpreter(self, tool, mode):
        # Acceptance: an injected isel failure quarantines the block into
        # the IR interpreter; the run finishes with the *correct* output.
        img = asm_image(CPU_SRC)
        clean = chaos_run(img, tool, mode, inject=None)
        assert clean.exit_code == 0
        broken = chaos_run(img, tool, mode, inject="isel@1,seed=1")
        assert broken.exit_code == 0
        assert broken.stdout == clean.stdout
        assert "quarantining to IR interpreter" in broken.log
        rob = broken.stats()["robustness"]
        assert rob["quarantined_blocks"] >= 1
        assert rob["injection"]["isel"]["fired"] == 1

    def test_every_block_quarantined_still_correct(self):
        # Degenerate degradation: *every* translation falls back to the
        # interpreter (isel fails 100% of the time) and the program still
        # produces the right answer under instrumentation.
        img = asm_image(CPU_SRC)
        clean = chaos_run(img, "memcheck", "plain", inject=None)
        broken = chaos_run(img, "memcheck", "plain", inject="isel:1.0,seed=2")
        assert broken.exit_code == clean.exit_code == 0
        assert broken.stdout == clean.stdout
        rob = broken.stats()["robustness"]
        assert rob["quarantined_blocks"] >= rob["injection"]["isel"]["fired"] > 0


class TestPygenDemotion:
    @pytest.mark.parametrize("mode", ["pygen", "traces"])
    @pytest.mark.parametrize("tool", ["none", "memcheck"])
    def test_pygen_failure_demotes_to_closures(self, tool, mode):
        # Acceptance: an injected pygen compile failure demotes the block
        # to the closure tier — correct output, counted in both the
        # robustness and codegen stats, never a host traceback.
        img = asm_image(CPU_SRC)
        clean = chaos_run(img, tool, mode, inject=None)
        assert clean.exit_code == 0
        broken = chaos_run(img, tool, mode, inject="pygen@1,seed=1")
        assert broken.exit_code == 0
        assert broken.stdout == clean.stdout
        assert "pygen compile failure" in broken.log
        stats = broken.stats()
        assert stats["robustness"]["pygen_demotions"] >= 1
        assert stats["robustness"]["injection"]["pygen"]["fired"] == 1
        assert stats["codegen"]["demotions"] >= 1
        assert stats["codegen"]["tier_attaches"]["closures"] >= 1

    def test_every_pygen_compile_failing_still_correct(self):
        # Degenerate degradation: *every* pygen compile fails and the
        # whole program runs in the closure tier, still correct.
        img = asm_image(CPU_SRC)
        clean = chaos_run(img, "memcheck", "pygen", inject=None)
        broken = chaos_run(img, "memcheck", "pygen", inject="pygen:1.0,seed=2")
        assert broken.exit_code == clean.exit_code == 0
        assert broken.stdout == clean.stdout
        stats = broken.stats()
        assert stats["codegen"]["tier_attaches"]["pygen"] == 0
        assert (stats["codegen"]["demotions"]
                == stats["robustness"]["injection"]["pygen"]["fired"] > 0)


class TestInjectSpecValidation:
    def test_bad_specs_rejected(self):
        for bad in ("frobnicate@1", "mmap-enomem@0", "eintr:1.5",
                    "segv@x", "seed=zz"):
            with pytest.raises(BadInjectSpec):
                FaultInjector(bad)

    def test_option_validates_eagerly(self):
        from repro.core.options import BadOption, Options as O

        o = O()
        with pytest.raises(BadOption):
            o.set("--inject=unknown-event@1")
        assert o.set("--inject=mmap-enomem@2,seed=4")
        assert o.inject == "mmap-enomem@2,seed=4"

    def test_stats_report_counts(self):
        inj = FaultInjector("eintr@2,seed=0")
        assert inj.eintr() is False
        assert inj.eintr() is True
        assert inj.eintr() is False
        assert inj.stats() == {"eintr": {"seen": 3, "fired": 1}}
