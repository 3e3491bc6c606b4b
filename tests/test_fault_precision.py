"""Precise synchronous faults: the (signal, fault PC, fault address)
triple must be identical across the reference CPU, the dispatch loop
with and without chaining, and the pygen/traces codegen tiers, and
guest handlers must be able to inspect the siginfo words and recover by
patching the saved PC."""

from __future__ import annotations

import pytest

from repro import Options, run_tool
from repro.core.errors import ExitCode
from repro.kernel.kernel import SIGFPE, SIGILL, SIGKILL, SIGSEGV, SIGTERM
from repro.core.tool import Tool

from .helpers import asm_image, native, vg

BAD = 0x90000000  # never mapped


def _quad(si):
    assert si is not None, "fault_info missing"
    return (si.sig, si.pc, si.addr, si.access)


def run_three(src):
    """Run under the native engine, the default loop and the chained loop."""
    img = asm_image(src)
    return native(img), vg(img), vg(img, chaining=True)


#: Codegen-tier engines: every fault quadruple must match the reference
#: CPU under these too ("-perf" marks chaining on, "-noperf" off).
CODEGEN_ENGINES = {
    "pygen": {"chaining": True, "codegen": "pygen"},
    "pygen-noperf": {"codegen": "pygen"},
    # trace_threshold 2: handler-adjacent chains really get recorded, so
    # faults can strike *inside* a stitched superblock.
    "traces": {"codegen": "traces", "trace_threshold": 2},
    "traces-perf": {"chaining": True, "codegen": "traces",
                    "trace_threshold": 2},
}


def run_codegen_engines(src):
    img = asm_image(src)
    return {name: vg(img, **kw) for name, kw in CODEGEN_ENGINES.items()}


class TestFaultDifferential:
    """Acceptance: identical fault triples across all three engines."""

    CASES = {
        "bad-load": f"""
        .text
main:   movi r6, 1
        movi r7, 2
        ld   r0, [{BAD:#x}]
        halt
""",
        "bad-store": f"""
        .text
main:   movi r6, 3
        st   [{BAD:#x}], r6
        halt
""",
        "div-zero": """
        .text
main:   movi r0, 5
        movi r1, 0
        divu r0, r1
        halt
""",
        "undecodable": """
        .text
main:   jmp bad
bad:    .byte 0xff, 0xff, 0xff, 0xff, 0xff, 0xff
""",
        "bad-jump": f"""
        .text
main:   movi r2, {BAD:#x}
        jmp  r2
""",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_triple_identical_across_engines(self, name):
        nat, dflt, perf = run_three(self.CASES[name])
        assert nat.fatal_signal is not None
        assert nat.exit_code == ExitCode.for_signal(nat.fatal_signal)
        assert dflt.exit_code == nat.exit_code == perf.exit_code
        assert (dflt.outcome.fatal_signal == nat.fatal_signal
                == perf.outcome.fatal_signal)
        ref = _quad(nat.fault_info)
        assert _quad(dflt.outcome.fault_info) == ref
        assert _quad(perf.outcome.fault_info) == ref

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_quad_identical_across_codegen_tiers(self, name):
        nat, dflt, _ = run_three(self.CASES[name])
        ref = _quad(nat.fault_info)
        for engine, res in run_codegen_engines(self.CASES[name]).items():
            assert res.exit_code == nat.exit_code, engine
            assert res.outcome.fatal_signal == nat.fatal_signal, engine
            assert _quad(res.outcome.fault_info) == ref, engine
            # Bit-identical architected effect: same completed guest
            # instruction count and output as the closure-tier run.
            assert res.outcome.guest_insns == dflt.outcome.guest_insns, engine
            assert res.stdout == dflt.stdout, engine

    def test_bad_load_fault_details(self):
        nat, dflt, perf = run_three(self.CASES["bad-load"])
        for si in (nat.fault_info, dflt.outcome.fault_info,
                   perf.outcome.fault_info):
            assert si.sig == SIGSEGV
            assert si.addr == BAD
            assert si.access == "read"

    def test_div_zero_fault_is_at_the_div(self):
        nat, dflt, perf = run_three(self.CASES["div-zero"])
        for si in (nat.fault_info, dflt.outcome.fault_info,
                   perf.outcome.fault_info):
            assert si.sig == SIGFPE
            assert si.access == "fpe"
            assert si.pc == si.addr

    def test_fatal_report_is_logged(self):
        res = vg(self.CASES["bad-load"])
        assert "terminating with default action of signal 11" in res.log
        assert f"{BAD:#x}" in res.log


#: Handler reads the siginfo words ([sp+64] fault addr, [sp+68] access
#: code) and recovers by patching the saved PC ([sp+56]) past the
#: faulting instruction, then proves register/thunk restore.
RECOVER_SRC = f"""
        .text
main:   movi r0, 11          ; sigaction(SIGSEGV, handler)
        movi r1, 11
        movi r2, handler
        syscall
        movi r6, 7
        cmp  r6, 7           ; set Z; must survive the handler
        ld   r0, [{BAD:#x}]  ; faults; handler resumes at `after`
after:  jnz  bad_flags
        push r6
        call putint          ; prints 7: r6 restored
        addi sp, 4
        movi r0, 0
        push r0
        call exit
bad_flags:
        movi r0, 33
        push r0
        call exit
handler:
        ld   r1, [sp+64]     ; siginfo: faulting address
        push r1
        call putint
        addi sp, 4
        ld   r1, [sp+68]     ; siginfo: access code (1 = read)
        push r1
        call putint
        addi sp, 4
        movi r1, after
        st   [sp+56], r1     ; patch saved pc: resume after the load
        ret
"""


class TestHandlerRecovery:
    def test_handler_sees_siginfo_and_resumes(self):
        nat, dflt, perf = run_three(RECOVER_SRC)
        want = f"{BAD - (1 << 32)}\n1\n7\n"  # putint prints signed
        assert nat.stdout == want
        assert dflt.stdout == want
        assert perf.stdout == want
        assert nat.exit_code == dflt.exit_code == perf.exit_code == 0

    def test_handler_recovery_under_codegen_tiers(self):
        want = f"{BAD - (1 << 32)}\n1\n7\n"
        for engine, res in run_codegen_engines(RECOVER_SRC).items():
            assert res.stdout == want, engine
            assert res.exit_code == 0, engine

    def test_midblock_registers_committed_at_fault(self):
        # The movi writes precede the fault inside one block; the handler
        # must see them committed in the saved frame even though opt2 may
        # have sunk the PUTs.
        src = f"""
        .text
main:   movi r0, 11
        movi r1, 11
        movi r2, handler
        syscall
        movi r6, 41
        inc  r6              ; r6 = 42, same block as the fault
        ld   r0, [{BAD:#x}]
        halt
handler:
        ld   r1, [sp+32]     ; saved r6
        push r1
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
"""
        nat, dflt, perf = run_three(src)
        assert nat.stdout == dflt.stdout == perf.stdout == "42\n"
        for engine, res in run_codegen_engines(src).items():
            assert res.stdout == "42\n", engine

    def test_nested_fault_in_handler(self):
        # A SIGFPE handler faults with SIGSEGV; the nested handler patches
        # the *inner* frame's saved pc, both sigreturns unwind in order.
        src = f"""
        .text
main:   movi r0, 11
        movi r1, 8           ; SIGFPE
        movi r2, fpe_h
        syscall
        movi r0, 11
        movi r1, 11          ; SIGSEGV
        movi r2, segv_h
        syscall
        movi r0, 9
        movi r1, 0
        divu r0, r1          ; -> fpe_h
        halt
fpe_h:
        ld   r2, [{BAD:#x}]  ; nested fault -> segv_h
fpe_resume:
        pushi msg1
        call puts
        addi sp, 4
        movi r1, done
        st   [sp+56], r1     ; outer frame: skip the faulting divu block
        ret
segv_h:
        movi r1, fpe_resume
        st   [sp+56], r1
        ret
done:
        movi r0, 0
        push r0
        call exit
        .data
msg1:   .asciz "unwound"
"""
        nat, dflt, perf = run_three(src)
        assert "unwound" in nat.stdout
        assert nat.stdout == dflt.stdout == perf.stdout
        assert nat.exit_code == dflt.exit_code == perf.exit_code == 0
        for engine, res in run_codegen_engines(src).items():
            assert res.stdout == nat.stdout, engine
            assert res.exit_code == 0, engine

    def test_handler_modifies_saved_registers(self, run_both):
        # Writes into the frame become the restored register values.
        src = """
        .text
main:   movi r0, 11
        movi r1, 8
        movi r2, handler
        syscall
        movi r6, 1
        movi r0, 1
        movi r1, 0
        divu r0, r1
resume: push r6
        call putint
        addi sp, 4
        movi r0, 0
        ret
handler:
        movi r1, 1234
        st   [sp+32], r1     ; saved r6 := 1234
        movi r1, resume
        st   [sp+56], r1
        ret
"""
        nat, res = run_both(src)
        assert nat.stdout.strip() == "1234"


class TestSignalLatencyPerf:
    def test_alarm_observed_mid_quantum_under_chaining(self):
        # A self-chaining wait loop must not outrun a pending SIGALRM by a
        # whole dispatch quantum: the poll hook bounds the latency to
        # --signal-poll blocks.
        src = """
        .text
main:   movi r0, 11
        movi r1, 14
        movi r2, handler
        syscall
        movi r0, 13          ; alarm in 5000 guest instructions
        movi r1, 5000
        syscall
wait:   ld   r1, [flag]
        test r1, r1
        jz   wait
        movi r0, 0
        push r0
        call exit
handler:
        sti  [flag], 1
        ret
        .data
flag:   .word 0
"""
        res = run_tool(
            "none", asm_image(src),
            options=Options(log_target="capture", chaining=True,
                            dispatch_quantum=10**6, thread_timeslice=10**6),
            max_blocks=200_000,
        )
        assert res.exit_code == 0, res.outcome
        assert res.outcome.stopped_reason is None
        # ~1700 wait-loop blocks until the timer is due, observed within
        # one poll interval; far below the quantum (and the budget).
        assert res.outcome.blocks_executed < 50_000


class TestCleanStops:
    def test_deadlock_is_a_clean_outcome(self):
        src = """
        .text
main:   movi r0, 16          ; thread_join(99): never satisfied
        movi r1, 99
        syscall
        halt
"""
        res = vg(src)
        assert res.exit_code == ExitCode.DEADLOCK
        assert res.outcome.stopped_reason == "deadlock"
        assert "deadlocked" in res.log

    def test_block_budget_is_a_clean_outcome(self):
        src = """
        .text
main:   jmp main
"""
        res = run_tool("none", asm_image(src),
                       options=Options(log_target="capture"), max_blocks=50)
        assert res.exit_code == ExitCode.BLOCK_BUDGET
        assert res.outcome.stopped_reason == "block-budget"


class TestHandlerValidation:
    def test_unmapped_handler_falls_back_to_default(self):
        # The registration succeeds (matching real sigaction), but at
        # delivery the bogus address is rejected and SIGTERM is fatal.
        src = f"""
        .text
main:   movi r0, 11
        movi r1, 15          ; SIGTERM
        movi r2, {BAD:#x}    ; not in executable memory
        syscall
        movi r0, 12          ; kill(self, SIGTERM)
        movi r1, 0
        movi r2, 15
        syscall
wait:   jmp wait
"""
        for chaining in (False, True):
            res = vg(src, chaining=chaining)
            assert res.exit_code == ExitCode.for_signal(SIGTERM)
            assert res.outcome.fatal_signal == SIGTERM
            assert "not in executable memory" in res.log

    def test_sigkill_fatal_despite_stale_handler_entry(self):
        # A corrupt handler-table entry for SIGKILL must not make it
        # catchable: delivery is unconditionally fatal.
        class StaleKill(Tool):
            name = "stalekill"

            def post_clo_init(self):
                # White-box: plant a stale handler entry the syscall
                # interface refuses to create.
                self.core.kernel.handlers[SIGKILL] = 0x1000

        src = """
        .text
main:   movi r0, 12          ; kill(self, SIGKILL)
        movi r1, 0
        movi r2, 9
        syscall
wait:   jmp wait
"""
        res = run_tool(StaleKill(), asm_image(src),
                       options=Options(log_target="capture"))
        assert res.exit_code == ExitCode.for_signal(SIGKILL)
        assert res.outcome.fatal_signal == SIGKILL
