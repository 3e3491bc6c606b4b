"""Engines, workloads, the job runner and the correctness oracle.

Every job is one ``repro.api.run`` call on an image assembled during
set-up.  Jobs run one at a time: in this process, or (for the cold- and
warm-start workloads) each in a freshly forked process whose
process-wide caches are empty, which is what a new ``repro`` invocation
sees.  The parent never runs a job itself before forking one, so the
forked children start from caches nothing has filled.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import select
import shutil
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import hostspeed
from .layers import JOB_SPAN
from .spans import Tracer

#: The two engines the benchmark covers, as ``repro`` command-line flags.
ENGINES: Dict[str, List[str]] = {
    # The paper-faithful engine, i.e. the default Options(): closure
    # tier, direct-mapped dispatcher cache, no chaining.
    "paper": [],
    # The fastest engine today: perf dispatch loop, pygen blocks and
    # superblock traces.
    "fast": ["--perf=yes", "--codegen=traces"],
}

FOUR = ("gzip", "mcf", "twolf", "swim")
NUL_MEMCHECK = (("none", ()), ("memcheck", ("--leak-check=no",)))
TABLE2_TOOLS = (("none", ()), ("icnt-inline", ()), ("icnt-call", ()),
                ("memcheck", ()))

#: A forked job that has not answered after this many seconds is killed
#: and counted as failed.
JOB_TIMEOUT_S = 120.0

#: Host-speed probes at the start of each set-up, so a set-up that runs
#: no job is still rescaled by the host speed at its own time.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str
    tools: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: None: all 25 suite programs.
    programs: Optional[Tuple[str, ...]]
    scale: float
    #: Nominal wall seconds of one timed pass on the reference machine
    #: (2-core x86-64 container).  A run makes round(seconds / pass_s)
    #: passes, so a given --seconds always yields the same sample count.
    pass_s: float
    #: Set-up runs one untimed in-process pass (fills process-wide caches).
    warmup: bool = False
    #: None: jobs run in this process.  "cold": each job in a fresh
    #: process with its own empty --cache-dir.  "warm": each job in a
    #: fresh process against one --cache-dir that set-up filled.
    cache: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "exec-hot",
        "fast engine, hot in-process loop: time goes to dispatch and "
        "generated code, not translation",
        "fast", NUL_MEMCHECK, FOUR, scale=1.0, pass_s=1.3, warmup=True,
    ),
    Workload(
        "cold-start",
        "fast engine, fresh process and empty code cache per job: "
        "translation, compile and cache writes dominate",
        "fast", NUL_MEMCHECK, None, scale=0.05, pass_s=7.0, cache="cold",
    ),
    Workload(
        "warm-start",
        "same jobs as cold-start against a filled code cache: cache reads "
        "replace translation",
        "fast", NUL_MEMCHECK, None, scale=0.05, pass_s=2.6, cache="warm",
    ),
    Workload(
        "paper-engine",
        "paper engine, four Table-2 tools: closure tier, plain dispatch "
        "loop and the Memcheck leak check",
        "paper", TABLE2_TOOLS, FOUR, scale=0.2, pass_s=5.5,
    ),
)}


@dataclass(frozen=True)
class Job:
    program: str
    tool: str
    tool_flags: Tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.tool}/{self.program}"


@dataclass
class Outcome:
    """What one job produced, as the oracle and the metrics need it."""

    job: Job
    run_id: int
    wall: float = 0.0
    exit_code: int = -1
    stdout: str = ""
    guest_insns: int = 0
    log: str = ""
    stats: Optional[dict] = None
    error: Optional[str] = None
    maxrss_kb: int = 0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass
class Pass:
    wall: float
    outcomes: List[Outcome]


class PreconditionError(Exception):
    """A cold/warm pass did not start from the cache state it claims."""


def check(outcome: Outcome, ref) -> Optional[str]:
    """The oracle: None if *outcome* matches the reference-CPU run *ref*
    (stdout, exit code, exact guest instructions, and for Memcheck a
    clean error summary), else what differs."""
    job = outcome.job
    if outcome.error is not None:
        return f"{job.label}: {outcome.error}"
    if outcome.stdout != ref.stdout:
        return f"{job.label}: stdout differs from the reference CPU"
    if outcome.exit_code != ref.exit_code:
        return (f"{job.label}: exit code {outcome.exit_code}, "
                f"reference {ref.exit_code}")
    if outcome.guest_insns != ref.guest_insns:
        return (f"{job.label}: {outcome.guest_insns} guest insns, "
                f"reference {ref.guest_insns}")
    if job.tool == "memcheck" and "ERROR SUMMARY: 0 errors" not in outcome.log:
        return f"{job.label}: Memcheck reported errors"
    return None


def check_cache_state(outcome: Outcome, kind: str) -> None:
    """Raise PreconditionError unless the job started with empty
    process-wide caches and, for *kind* "cold", an empty code cache
    ("warm": a code cache that served every lookup and took no write)."""
    st = outcome.stats or {}
    label = outcome.job.label
    emit = st["codegen"]["emit_cache"]
    build = st["traces"]["build_cache"]
    if emit["hits"] or build["hits"]:
        raise PreconditionError(
            f"{label}: process-wide caches were not empty "
            f"(emit hits {emit['hits']}, trace-build hits {build['hits']})")
    c = st["cache"]
    if kind == "cold":
        hits = c["hits"] + c["pygen_hits"] + c["trace_hits"]
        if hits or not c["stores"]:
            raise PreconditionError(
                f"{label}: cold pass saw {hits} cache hits and "
                f"{c['stores']} stores")
    else:
        misses = c["misses"] + c["pygen_misses"] + c["trace_misses"]
        if misses or c["bytes_written"]:
            raise PreconditionError(
                f"{label}: warm pass saw {misses} cache misses and wrote "
                f"{c['bytes_written']} bytes")


def in_fresh_process(fn: Callable[[], dict],
                     timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run *fn* in a forked child and return its JSON-able result.

    Raises RuntimeError if the child fails, dies or overruns *timeout*
    (it is killed); the child is always waited for.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(wfd, "wb") as f:
                f.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout
    killed = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if killed:
        raise RuntimeError(f"killed after {timeout:.0f}s")
    if status != 0:
        raise RuntimeError(f"job process exited with status {status:#x}")
    return json.loads(b"".join(chunks))


class Bench:
    """One workload's jobs, references, set-up and passes."""

    def __init__(self, workload: Workload, seed: int, work_dir: str,
                 tracer: Tracer):
        self.wl = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        #: True while layer spans are installed: jobs then record a job
        #: span and ship their spans back from forked processes.
        self.tracing = False
        programs = workload.programs
        if programs is None:
            from repro.workloads.suite import ALL_WORKLOADS as programs
        self.jobs = [Job(p, tool, flags)
                     for p, (tool, flags) in itertools.product(
                         programs, workload.tools)]
        self.images: dict = {}
        self.refs: dict = {}
        #: Native (reference CPU) wall seconds per program, for the
        #: informational Table-2 slowdown.
        self.native_s: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: Host-speed probe seconds, one per job run (see hostspeed).
        self.probes: List[float] = []
        #: The --cache-dir the last warm-start set-up filled.
        self.warm_dir: Optional[str] = None
        self._run_ids = itertools.count()
        self._dir_ids = itertools.count()

    # -- inputs -------------------------------------------------------------

    def build_images(self) -> dict:
        from repro.workloads import suite

        return {p: suite.build(p, self.wl.scale).image
                for p in dict.fromkeys(j.program for j in self.jobs)}

    def compute_refs(self) -> None:
        """Run every program once on the reference CPU (the oracle)."""
        from repro.native import run_native

        for name, image in self.build_images().items():
            t0 = time.perf_counter()
            self.refs[name] = run_native(image, [name])
            self.native_s[name] = time.perf_counter() - t0

    def options(self, job: Job, cache_dir: Optional[str]):
        from repro.api import Options

        flags = ENGINES[self.wl.engine] + list(job.tool_flags) + ["--stats=json"]
        if cache_dir is not None:
            flags.append(f"--cache-dir={cache_dir}")
        opts = Options.from_cli_args(flags)
        opts.log_target = "capture"
        return opts

    # -- one job ------------------------------------------------------------

    def _call(self, job: Job, run_id: int, cache_dir: Optional[str]) -> Outcome:
        from repro import api

        out = Outcome(job, run_id)
        opts = self.options(job, cache_dir)
        image = self.images[job.program]
        tracer = self.tracer
        idx = None
        if self.tracing:
            tracer.job = run_id
            idx = tracer.open(JOB_SPAN)
        t0 = time.perf_counter()
        try:
            res = api.run(image, job.tool, opts, argv=[job.program])
        except Exception:  # an engine bug: a failed job, not a dead run
            out.wall = time.perf_counter() - t0
            out.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            return out
        finally:
            if idx is not None:
                tracer.close(idx)
                tracer.job = None
        out.wall = time.perf_counter() - t0
        out.exit_code = res.exit_code
        out.stdout = res.stdout
        out.guest_insns = res.guest_insns
        out.log = res.log
        out.stats = res.stats
        if res.error is not None:
            out.error = res.error
        return out

    def _call_fresh(self, job: Job, run_id: int,
                    cache_dir: Optional[str]) -> Outcome:
        def child() -> dict:
            self.tracer.reset()
            out = self._call(job, run_id, cache_dir)
            d = {k: getattr(out, k) for k in (
                "wall", "exit_code", "stdout", "guest_insns", "log",
                "stats", "error")}
            d["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if self.tracing:
                d["spans"] = [s.as_list() for s in self.tracer.spans]
                d["counters"] = self.tracer.counters
            return d

        try:
            d = in_fresh_process(child)
        except RuntimeError as exc:
            return Outcome(job, run_id, error=str(exc))
        return Outcome(job, run_id, **d)

    # -- passes -------------------------------------------------------------

    def cache_dirs(self, label: str) -> Tuple[str, Dict[Job, str]]:
        """A fresh base directory and, under it, a not yet existing
        --cache-dir per job."""
        base = os.path.join(self.work_dir, f"{label}-{next(self._dir_ids)}")
        return base, {job: os.path.join(base, str(i))
                      for i, job in enumerate(self.jobs)}

    def run_pass(self, label: str, dirs: Optional[Dict[Job, str]] = None,
                 expect: Optional[str] = None,
                 fresh: Optional[bool] = None) -> Pass:
        """Run every job once, in an order shuffled by the seed, each in a
        fresh process if *fresh* (default: the workload's choice); check
        each against the oracle (and, with *expect*, its cache state)."""
        order = list(self.jobs)
        random.Random(f"{self.seed}/{label}").shuffle(order)
        if fresh is None:
            fresh = self.wl.cache is not None
        outcomes = []
        probed = sum(self.probes)
        t0 = time.perf_counter()
        for job in order:
            cache_dir = dirs[job] if dirs is not None else None
            run_id = next(self._run_ids)
            if fresh:
                outcomes.append(self._call_fresh(job, run_id, cache_dir))
            else:
                outcomes.append(self._call(job, run_id, cache_dir))
            self.probes.append(hostspeed.probe())
        wall = time.perf_counter() - t0 - (sum(self.probes) - probed)
        for out in outcomes:
            if self.tracing and out.spans:
                self.tracer.merge(out.spans, out.counters)
            self.attempted += 1
            problem = check(out, self.refs[out.job.program])
            if problem is not None:
                self.failures.append(problem)
            elif expect is not None:
                check_cache_state(out, expect)
        return Pass(wall, outcomes)

    def setup(self) -> Tuple[float, float]:
        """Assemble the images and run the workload's warm-up.  Returns
        the seconds it took (host-speed probes excluded) and those
        seconds rescaled by the probes taken during this set-up."""
        first = len(self.probes)
        self.probes.extend(hostspeed.probe() for _ in range(SETUP_PROBES))
        probed = sum(self.probes)
        t0 = time.perf_counter()
        self.images = self.build_images()
        if self.wl.warmup:
            self.run_pass("warm-up")
        if self.wl.cache == "warm":
            self._fill_cache()
        seconds = time.perf_counter() - t0 - (sum(self.probes) - probed)
        return seconds, seconds * hostspeed.scale(self.probes[first:])

    def _fill_cache(self) -> None:
        """Fill one --cache-dir, shared by every warm job, from a fresh
        process (this one's process-wide caches must stay empty)."""
        base = os.path.join(self.work_dir, f"cache-{next(self._dir_ids)}")
        dirs = dict.fromkeys(self.jobs, base)

        def fill() -> None:
            self.run_pass("fill", dirs, fresh=False)
            # Trace builds are keyed by a pickle of the stitched IR, and
            # IR read back from the cache pickles differently from IR
            # fresh out of the translator, so the first warm run stores a
            # few more trace builds.  A settling pass writes them.
            self.run_pass("settle", dirs, fresh=False)

        self._in_child(fill)
        if self.warm_dir is not None:
            shutil.rmtree(self.warm_dir, ignore_errors=True)
        self.warm_dir = base

    def setup_fresh(self) -> Tuple[float, float]:
        """:meth:`setup` in a fresh process, so it too starts from empty
        process-wide caches."""
        return self._in_child(self.setup)

    def _in_child(self, fn: Callable):
        """Run *fn* in a fresh process; its return value and the jobs it
        checked come back here."""
        def child() -> dict:
            value = fn()
            return {"value": value, "attempted": self.attempted,
                    "failures": self.failures, "probes": self.probes}

        d = in_fresh_process(child, timeout=3 * JOB_TIMEOUT_S)
        self.attempted = d["attempted"]
        self.failures = d["failures"]
        self.probes = d["probes"]
        return d["value"]

    def timed_pass(self, index: int) -> Pass:
        if self.wl.cache == "cold":
            base, dirs = self.cache_dirs("cold")
            try:
                return self.run_pass(f"pass{index}", dirs, expect="cold")
            finally:
                shutil.rmtree(base, ignore_errors=True)
        if self.wl.cache == "warm":
            return self.run_pass(f"pass{index}",
                                 dict.fromkeys(self.jobs, self.warm_dir),
                                 expect="warm")
        return self.run_pass(f"pass{index}")
