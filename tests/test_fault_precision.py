"""Precise synchronous faults: the (signal, fault PC, fault address)
triple must be identical across the reference CPU and every registry
engine, and guest handlers must be able to inspect the siginfo words and
recover by patching the saved PC."""

from __future__ import annotations

import pytest

from repro import Options, run_tool
from repro.core.dispatch import SIGNAL_POLL_BLOCKS
from repro.core.engines import ENGINES
from repro.core.errors import ExitCode
from repro.kernel.kernel import SIGFPE, SIGILL, SIGKILL, SIGSEGV, SIGTERM
from repro.core.tool import Tool

from .helpers import asm_image, native, vg

BAD = 0x90000000  # never mapped


def _quad(si):
    assert si is not None, "fault_info missing"
    return (si.sig, si.pc, si.addr, si.access)


def run_engines(src):
    """The reference CPU's run, and each registry engine's by name.  The
    shared trace threshold records handler-adjacent chains, so faults
    can strike *inside* a spliced superblock."""
    img = asm_image(src)
    return native(img), {name: vg(img, **ENGINES[name].options)
                         for name in ENGINES}


class TestFaultDifferential:
    """Acceptance: identical fault triples across all engines."""

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
        nat, runs = run_engines(self.CASES[name])
        assert nat.fatal_signal is not None
        assert nat.exit_code == ExitCode.for_signal(nat.fatal_signal)
        ref = _quad(nat.fault_info)
        paper = runs["paper"]
        for engine, res in runs.items():
            assert res.exit_code == nat.exit_code, engine
            assert res.outcome.fatal_signal == nat.fatal_signal, engine
            assert _quad(res.outcome.fault_info) == ref, engine
            # Bit-identical architected effect: same completed guest
            # instruction count and output as the paper engine's run.
            assert res.outcome.guest_insns == paper.outcome.guest_insns, \
                engine
            assert res.stdout == paper.stdout, engine

    def test_bad_load_fault_details(self):
        nat, runs = run_engines(self.CASES["bad-load"])
        for si in [nat.fault_info] + [r.outcome.fault_info
                                      for r in runs.values()]:
            assert si.sig == SIGSEGV
            assert si.addr == BAD
            assert si.access == "read"

    def test_div_zero_fault_is_at_the_div(self):
        nat, runs = run_engines(self.CASES["div-zero"])
        for si in [nat.fault_info] + [r.outcome.fault_info
                                      for r in runs.values()]:
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
        nat, runs = run_engines(RECOVER_SRC)
        want = f"{BAD - (1 << 32)}\n1\n7\n"  # putint prints signed
        assert (nat.stdout, nat.exit_code) == (want, 0)
        for engine, res in runs.items():
            assert (res.stdout, res.exit_code) == (want, 0), engine

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
        nat, runs = run_engines(src)
        assert nat.stdout == "42\n"
        for engine, res in runs.items():
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
        nat, runs = run_engines(src)
        assert "unwound" in nat.stdout and nat.exit_code == 0
        for engine, res in runs.items():
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
    WAIT_SRC = """
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

    @staticmethod
    def _wait(quantum, **engine):
        return run_tool(
            "none", asm_image(TestSignalLatencyPerf.WAIT_SRC),
            options=Options(log_target="capture", dispatch_quantum=quantum,
                            thread_timeslice=10**6, **engine),
            max_blocks=200_000,
        )

    @pytest.mark.parametrize("name", list(ENGINES))
    def test_alarm_observed_within_one_poll(self, name):
        # A wait loop must not outrun a pending SIGALRM by a whole
        # dispatch quantum: the dispatcher polls every SIGNAL_POLL_BLOCKS
        # blocks, and on the fast engine the loop runs as a trace that
        # must not cross a poll.  A one-block quantum returns to the
        # scheduler before every block, so its run counts the blocks
        # until the alarm is due plus those of the handler and the exit.
        ref = self._wait(1)
        assert ref.exit_code == 0, ref.outcome
        assert ref.outcome.blocks_executed > 1000  # ~1700 wait blocks
        res = self._wait(10**6, **ENGINES[name].options)
        assert res.exit_code == 0, res.outcome
        assert res.outcome.stopped_reason is None
        assert (res.outcome.blocks_executed
                <= ref.outcome.blocks_executed + SIGNAL_POLL_BLOCKS)


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
