"""Workload-suite and command-line launcher tests."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.workloads.suite import (
    ALL_WORKLOADS,
    FP_WORKLOADS,
    INT_WORKLOADS,
    build,
    run_reference,
    source_for,
)

from helpers import vg


class TestSuiteStructure:
    def test_25_programs_like_the_paper(self):
        # "We performed experiments on 25 of the 26 SPEC CPU2000 benchmarks".
        assert len(ALL_WORKLOADS) == 25
        assert len(INT_WORKLOADS) == 12 and len(FP_WORKLOADS) == 13

    def test_table2_names(self):
        assert INT_WORKLOADS[0] == "bzip2" and "mcf" in INT_WORKLOADS
        assert "swim" in FP_WORKLOADS and "galgel" not in ALL_WORKLOADS

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build("galgel")

    def test_scaling_changes_size(self):
        small = run_reference("vpr", scale=0.1)
        large = run_reference("vpr", scale=0.3)
        assert large.guest_insns > small.guest_insns


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_is_deterministic_and_clean(name):
    """Every workload runs to completion with output, natively."""
    r1 = run_reference(name, scale=0.1)
    r2 = run_reference(name, scale=0.1)
    assert r1.exit_code == 0 and r1.fatal_signal is None
    assert r1.stdout == r2.stdout and r1.stdout.strip()


@pytest.mark.parametrize("name", ["gzip", "mcf", "swim", "vortex", "lucas"])
def test_workload_matches_under_instrumentation(name):
    """Representative spot-check of the native/DBI equivalence (the full
    25x2 sweep lives in the benchmark harness)."""
    wl = build(name, scale=0.1)
    from helpers import native

    nat = native(wl.image)
    for tool in ("none", "memcheck"):
        res = vg(wl.image, tool)
        assert res.stdout == nat.stdout, (name, tool)
        if tool == "memcheck":
            assert res.errors == []


class TestCLI(object):
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    HELLO = """
        .text
main:   pushi msg
        call puts
        addi sp, 4
        movi r0, 3
        ret
        .data
msg:    .asciz "hi there"
"""

    def test_native_run(self, tmp_path, capsys):
        path = self._write(tmp_path, "hello.s", self.HELLO)
        rc = cli_main([path])
        assert rc == 3
        assert "hi there" in capsys.readouterr().out

    def test_tool_run_with_log_file(self, tmp_path, capsys):
        path = self._write(tmp_path, "hello.s", self.HELLO)
        log = tmp_path / "vg.log"
        rc = cli_main([f"--tool=memcheck", f"--log-file={log}", path])
        assert rc == 3
        assert "ERROR SUMMARY" in log.read_text()

    def test_tool_options_forwarded(self, tmp_path):
        path = self._write(tmp_path, "hello.s", self.HELLO)
        log = tmp_path / "vg.log"
        rc = cli_main(
            ["--tool=memcheck", "--leak-check=no", f"--log-file={log}", path]
        )
        assert rc == 3
        assert "LEAK SUMMARY" not in log.read_text()

    def test_unknown_tool(self, tmp_path, capsys):
        path = self._write(tmp_path, "hello.s", self.HELLO)
        assert cli_main(["--tool=nosuch", path]) == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_unknown_option(self, tmp_path, capsys):
        path = self._write(tmp_path, "hello.s", self.HELLO)
        assert cli_main(["--tool=none", "--bogus=1", path]) == 2

    def test_zero_dispatch_quantum_rejected(self, tmp_path):
        # A zero quantum used to spin forever without running a block;
        # the subprocess timeout turns a regression into a failure.
        path = self._write(tmp_path, "hello.s", self.HELLO)
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--tool=none",
             "--dispatch-quantum=0", path],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src_dir)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro:"), proc.stderr

    @pytest.mark.parametrize("flag", ["--megacache=8", "--jit-threshold=3",
                                      "--codegen=auto"])
    def test_retired_engine_flags_rejected(self, tmp_path, capsys, flag):
        # The megacache and the auto tier (with its threshold) are gone:
        # each spelling is refused with a one-line message, not run.
        path = self._write(tmp_path, "hello.s", self.HELLO)
        assert cli_main(["--tool=none", flag, path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro:"), captured.err
        assert flag.split("=")[0].lstrip("-") in captured.err
        assert "hi there" not in captured.out

    LOOP = """
        .text
main:   movi r0, 500
loop:   dec  r0
        jnz  loop
        movi r0, 0
        ret
"""

    def test_perf_flag_is_a_chaining_alias(self, tmp_path, capsys):
        # --perf=yes|no survives only as a second spelling of
        # --chaining=yes|no: the same value gives the same run.
        path = self._write(tmp_path, "loop.s", self.LOOP)
        out = tmp_path / "stats.json"
        runs = {}
        for flag in ("--perf=yes", "--chaining=yes",
                     "--perf=no", "--chaining=no"):
            rc = cli_main(["--tool=none", f"--stats-out={out}", flag, path])
            stats = json.loads(out.read_text())
            runs[flag] = (rc, capsys.readouterr().out,
                          stats["dispatch"], stats["chains"])
        assert runs["--perf=yes"] == runs["--chaining=yes"]
        assert runs["--perf=no"] == runs["--chaining=no"]
        assert runs["--chaining=yes"][2]["chained"] > 0
        assert runs["--chaining=no"][2]["chained"] == 0

    def test_client_args_passed(self, tmp_path, capsys):
        src = """
        .text
main:   ld   r0, [sp+4]
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
        path = self._write(tmp_path, "args.s", src)
        rc = cli_main([path, "a", "b", "c"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_script_hashbang(self, tmp_path, capsys):
        interp = self._write(
            tmp_path,
            "interp.s",
            """
        .text
main:   ld   r1, [sp+8]
        ld   r0, [r1+4]       ; argv[1] = script path
        push r0
        call puts
        addi sp, 4
        movi r0, 0
        ret
""",
        )
        script = self._write(tmp_path, "prog.script", f"#!{interp}\npayload\n")
        rc = cli_main(["--tool=none", script])
        assert rc == 0
        assert "prog.script" in capsys.readouterr().out

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "memcheck" in out and "--smc-check" in out

    def test_fatal_signal_reported(self, tmp_path, capsys):
        src = """
        .text
main:   ld r0, [0x90000000]
        ret
"""
        path = self._write(tmp_path, "crash.s", src)
        rc = cli_main(["--tool=none", path])
        assert rc == 128 + 11
        assert "signal 11" in capsys.readouterr().err
