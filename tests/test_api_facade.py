"""The stable embedding facade (:mod:`repro.api`).

The contract: ``repro.api`` is the one public entry surface — ``run``,
``run_fleet``, ``replay``, ``open_cache`` — the CLI and supervisor are
thin callers of it, and ``Options`` validates at construction, not
first use.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

import repro
from repro import api
from repro.core.errors import ExitCode
from repro.core.translate import clear_translation_cache

from .helpers import asm_image, vg

SRC = """
        .text
main:   movi r6, 41
        inc  r6
        push r6
        call putint
        addi sp, 4
        movi r0, 0
        push r0
        call exit
"""

LOOP_FILE_SRC = """\
main:
        movi r0, 300
loop:
        sub  r0, 1
        jnz  loop
        movi r0, 7
        ret
"""


class TestRun:
    def test_run_matches_run_tool(self):
        img = asm_image(SRC)
        direct = vg(SRC, "memcheck")
        job = api.run(img, "memcheck",
                      repro.Options(log_target="capture"))
        assert job.exit_code == direct.exit_code == 0
        assert job.stdout == direct.stdout == "42\n"
        assert job.log == direct.log

    def test_run_frees_the_finished_guest_memory(self, monkeypatch):
        """A finished job's guest pages go when ``run`` returns, not at
        the next cyclic collection of its core."""
        from repro.kernel.memory import GuestMemory

        freed = []
        unmap_all = GuestMemory.unmap_all

        def spy(mem):
            freed.append(len(list(mem.pages())))
            unmap_all(mem)

        monkeypatch.setattr(GuestMemory, "unmap_all", spy)
        job = api.run(asm_image(SRC), "memcheck",
                      repro.Options(log_target="capture"))
        assert job.stdout == "42\n"
        assert len(freed) == 1 and freed[0] > 0

    def test_run_native_baseline(self):
        job = api.run(asm_image(SRC))
        assert job.exit_code == 0 and job.stdout == "42\n"

    def test_run_classifies_bad_tool(self):
        job = api.run(asm_image(SRC), "no-such-tool")
        assert job.exit_code == int(ExitCode.USAGE)
        assert job.error is not None

    def test_run_classifies_unreadable_program(self, tmp_path):
        job = api.run(str(tmp_path / "missing.s"), "memcheck")
        assert job.exit_code == int(ExitCode.USAGE)
        assert job.error is not None

    def test_run_from_path(self, tmp_path):
        path = tmp_path / "p.s"
        path.write_text(LOOP_FILE_SRC)
        job = api.run(str(path), "none")
        assert job.exit_code == 7


class TestPackageAliases:
    def test_package_aliases_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.replay_bundle is api.replay_bundle
            assert repro.run is api.run
            assert repro.run_fleet is api.run_fleet


class TestOptions:
    def test_keyword_constructor_validates(self):
        with pytest.raises(repro.BadOption):
            repro.Options(codegen="llvm")
        with pytest.raises(repro.BadOption):
            repro.Options(smc_check="sometimes")
        with pytest.raises(repro.BadOption):
            repro.Options(codegen="auto")
        with pytest.raises(repro.BadOption):
            repro.Options(cache_max_mb=0)
        # Sizes the engine cannot run with: each used to crash or hang
        # the run instead of being rejected here.
        for bad in (dict(dispatch_cache_size=0), dict(dispatch_cache_size=3),
                    dict(dispatch_quantum=0), dict(dispatch_quantum=-1),
                    dict(transtab_entries=0), dict(stack_size=0),
                    dict(stack_size=-5)):
            with pytest.raises(repro.BadOption):
                repro.Options(**bad)
        repro.Options(codegen="pygen", cache_max_mb=1)  # valid
        repro.Options(dispatch_cache_size=1, dispatch_quantum=1,
                      transtab_entries=1, stack_size=4096)  # minimal

    def test_from_cli_args(self):
        opts = repro.Options.from_cli_args(
            ["--codegen=pygen", "--cache-dir=/tmp/cc",
             "--cache-max-mb=32", "--taint-addr=no"]
        )
        assert opts.codegen == "pygen"
        assert opts.cache_dir == "/tmp/cc"
        assert opts.cache_max_mb == 32
        assert opts.tool_options == ["--taint-addr=no"]

    def test_from_cli_args_rejects_non_options(self):
        with pytest.raises(repro.BadOption):
            repro.Options.from_cli_args(["prog.s"])

    def test_cache_flags(self):
        o = repro.Options()
        assert o.set("--cache-dir=/tmp/x") and o.cache_dir == "/tmp/x"
        assert o.set("--cache-max-mb=8") and o.cache_max_mb == 8
        with pytest.raises(repro.BadOption):
            o.set("--cache-max-mb=0")
        with pytest.raises(repro.BadOption):
            o.set("--cache-dir=")

    def test_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert repro.Options().cache_dir == str(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert repro.Options().cache_dir is None


class TestRunFleet:
    def test_string_jobs_promoted(self, tmp_path):
        program = str(tmp_path / "p.s")
        with open(program, "w") as f:
            f.write(LOOP_FILE_SRC)
        report = api.run_fleet([program, program], tool="none",
                               workers=2, record_bundles=False)
        assert isinstance(report, api.FleetReport)
        assert report.ok
        assert report.summary["succeeded"] == 2
        # Dict-style access stays available for raw-report consumers.
        assert report["summary"] is report.summary
        assert "jobs" in report and len(report.jobs) == 2
        json.dumps(report.raw)  # still plain JSON

    def test_fleet_report_cache_property(self, tmp_path):
        program = str(tmp_path / "p.s")
        with open(program, "w") as f:
            f.write(LOOP_FILE_SRC)
        report = api.run_fleet([program], tool="none", workers=1,
                               record_bundles=False)
        assert report.cache is None  # no --stats=json: no cache section


class TestReplayDispatch:
    class _KillInjector:
        """Duck-typed FleetInjector: SIGKILL every attempt at tick 4."""

        spec = "fixed:kill@4"

        def directive(self, job_id, attempt):
            return ("kill", 4)

        def corrupts(self, job_id, attempt):
            return False

        def stats(self):
            return {}

    def _terminal_failure_bundle(self, tmp_path):
        program = str(tmp_path / "p.s")
        with open(program, "w") as f:
            f.write(LOOP_FILE_SRC)
        bundles = str(tmp_path / "bundles")
        report = api.run_fleet(
            [api.JobSpec(job_id=0, program=program, tool="none",
                         flags=["--dispatch-quantum=50"])],
            workers=1,
            policy=api.RetryPolicy(max_retries=0, seed=3),
            inject=self._KillInjector(),
            bundle_dir=bundles,
        )
        job = report.jobs[0]
        assert job["terminal"] == "terminal-failure"
        assert job["bundle_status"] == "ok"
        return os.path.join(bundles, job["bundle"])

    def test_replay_accepts_manifest_and_log(self, tmp_path):
        manifest = self._terminal_failure_bundle(tmp_path)
        via_manifest = api.replay(manifest)
        assert via_manifest["status"] == "replayed"
        log = manifest[: -len(".bundle.json")] + ".rrlog"
        via_log = api.replay(log)
        assert via_log == via_manifest

    def test_replay_missing_manifest(self, tmp_path):
        orphan = tmp_path / "orphan.rrlog"
        orphan.write_bytes(b"whatever")
        out = api.replay(str(orphan))
        assert out["status"] == "error"
        assert "manifest" in out["error"]


class TestOpenCache:
    def test_open_cache_roundtrip(self, tmp_path):
        cache = api.open_cache(str(tmp_path / "cc"), max_mb=8)
        raw = b"\x42" * 32

        def fetch(start, length):
            return raw[start:start + length]

        assert cache.store_translation(
            b"\x07" * 32, 0x100, fetch,
            code=b"HOSTCODE", ranges=((0, 32),), stats=None,
        )
        early = api.open_cache(str(tmp_path / "cc"), max_mb=8)
        assert early.lookup_translation(b"\x07" * 32, 0x100, fetch) is None
        cache.flush()  # stores reach the directory as one pack
        again = api.open_cache(str(tmp_path / "cc"), max_mb=8)
        hit = again.lookup_translation(b"\x07" * 32, 0x100, fetch)
        assert hit is not None and hit["code"] == b"HOSTCODE"
        assert os.path.exists(tmp_path / "cc" / "VERSION")

    def test_exported_from_package(self):
        assert repro.open_cache is api.open_cache
        for name in ("run", "run_fleet", "replay", "open_cache",
                     "FleetReport"):
            assert name in repro.__all__


class TestCliIsThin:
    def test_cli_single_run(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        program = str(tmp_path / "p.s")
        with open(program, "w") as f:
            f.write(LOOP_FILE_SRC)
        code = cli_main([f"--tool=none", program])
        assert code == 7

    def test_cli_fleet_cache_flags(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        program = str(tmp_path / "p.s")
        with open(program, "w") as f:
            f.write(LOOP_FILE_SRC)
        cache_dir = str(tmp_path / "cc")
        # Workers fork from this process: start them from an empty memory
        # translation tier so the fleet translates and stores.
        clear_translation_cache()
        code = cli_main([
            "fleet", "--workers=2", "--repeat=2", "--tool=none",
            f"--cache-dir={cache_dir}", "--cache-max-mb=16",
            "--bundles=no", "--stats=json", program,
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fleet"]["cache_dir"] == cache_dir
        assert report["stats"]["cache"]["stores"] > 0

    def test_cli_rejects_bad_cache_max_mb(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["fleet", "--cache-max-mb=0", "x.s"]) == 2
