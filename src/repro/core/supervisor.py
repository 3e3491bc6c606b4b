"""Self-healing fleet supervisor: a crash-isolated worker pool.

A *fleet* runs N guest jobs concurrently across a pool of forked worker
processes.  The supervisor owns the pool and guarantees that nothing a
single job does — segfault the worker, hang forever, blow its budget,
or raise an internal error — can take down the fleet:

* **Crash isolation** — each job runs inside a worker process; a worker
  that dies (any signal, any exit code) is reaped and replaced without
  disturbing the other workers.
* **Watchdog** — every running attempt has a wall-clock budget and a
  heartbeat: workers beat (via shared memory, so a wedged worker cannot
  fake liveness through a buffered pipe) at every dispatch-quantum
  boundary.  A stale heartbeat or an expired wall budget kills and
  reaps the worker.
* **Retry with seeded backoff** — infrastructure failures (worker death,
  watchdog kills) retry up to ``RetryPolicy.max_retries`` times with
  exponential backoff whose jitter is a pure function of
  ``(seed, job_id, failure#)``, so two fleet runs with the same seed
  produce the identical retry schedule.  Guest-caused exits (normal
  exits, fatal guest signals, block-budget/deadlock stops — see
  :meth:`ExitCode.is_guest_caused`) are *terminal*: re-running the same
  deterministic guest reproduces them, so retrying is pointless.
* **Tier degradation** — repeated pygen/JIT failures degrade the job to
  the closures codegen tier (``--codegen=closures``) before giving up.
* **Crash forensics** — every attempt records under ``--record`` with
  incremental flushing, so a worker killed mid-run leaves a loadable
  log prefix.  A job that exhausts its retries ships a *crash bundle*
  (manifest + event log) that any machine can replay — see
  :func:`replay_bundle` — to the exact event/pc/instruction where the
  recording stopped.

The public embedding API lives in :mod:`repro.api` (:func:`repro.api.run`
runs one guest job in the current process, :func:`repro.api.run_fleet`
wraps :class:`FleetSupervisor`, :func:`repro.api.replay` replays a
bundle).
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import multiprocessing
import os
import random
import signal as _signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mpc
from typing import Dict, List, Optional, Tuple, Union

from ..guest.asm import AsmError, assemble
from ..guest.program import VxImage
from ..libc.stubs import build_source
from .errors import ExitCode
from .faultinject import FleetInjector, InjectedJitError, InjectedPygenError
from .options import BadOption, Options
from .replay import EventLog, ReplayFormatError

#: Every state a job can end in.  The supervisor guarantees each job
#: reaches exactly one of these.
TERMINAL_STATES = (
    "succeeded",
    "retried-then-succeeded",
    "degraded-tier-succeeded",
    "terminal-failure",
)


def load_image(path: str, *, filename: Optional[str] = None) -> VxImage:
    """Assemble a .s file (with the libc prelude) into an image.

    Recognises the ``#!interpreter`` script convention.
    """
    with open(path) as f:
        source = f.read()
    name = filename or path
    if source.startswith("#!"):
        interp = source.split("\n", 1)[0][2:].strip()
        return VxImage(name=name, interpreter=interp)
    return assemble(build_source(source), filename=name)


# -- the embedding API ---------------------------------------------------------


@dataclass
class JobResult:
    """Everything one guest job produced.  Picklable: every field is a
    plain value, so results cross the worker pipe untouched."""

    exit_code: int
    stdout: str = ""
    stderr: str = ""
    log: str = ""
    fatal_signal: Optional[int] = None
    stopped_reason: Optional[str] = None
    guest_insns: int = 0
    blocks_executed: int = 0
    translations: int = 0
    #: The --stats=json payload, when stats were requested.
    stats: Optional[dict] = None
    #: Launcher-level failure (bad option, unknown tool, unloadable
    #: program, replay divergence...) — None for any completed guest run.
    error: Optional[str] = None
    #: (event index, pc, guest_insns) where a partial replay ran out of
    #: recorded events (exit code 96); None otherwise.
    replay_exhausted_at: Optional[Tuple[int, int, int]] = None


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


# -- fleet configuration -------------------------------------------------------


@dataclass
class JobSpec:
    """One job in a fleet: a program plus its launcher configuration."""

    job_id: int
    program: str
    tool: Optional[str] = None
    #: Core/tool ``--option`` flags (never ``--record``: the supervisor
    #: owns crash-bundle recording).
    flags: List[str] = field(default_factory=list)
    #: Client argv tail (after the program name).
    args: List[str] = field(default_factory=list)
    stdin: bytes = b""
    max_blocks: Optional[int] = None


@dataclass
class RetryPolicy:
    """When and how failed attempts retry.  Every delay is a pure
    function of ``(seed, job_id, failure#)`` — never of wall-clock time
    or of which worker ran the attempt — so the whole retry schedule is
    reproducible."""

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    #: Pygen/JIT failures tolerated before the job is degraded to the
    #: closures codegen tier.
    jit_degrade_after: int = 2
    seed: int = 0

    def backoff(self, job_id: int, failure_no: int) -> float:
        """Delay before retry *failure_no* (1-based) of *job_id*."""
        rng = random.Random(f"backoff:{self.seed}:{job_id}:{failure_no}")
        base = self.backoff_base * (self.backoff_factor ** (failure_no - 1))
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass
class WatchdogConfig:
    """Per-attempt liveness limits, enforced by the supervisor."""

    #: Wall-clock budget per attempt, seconds.
    wall_budget: float = 120.0
    #: Kill the worker when its heartbeat is older than this, seconds.
    heartbeat_timeout: float = 30.0
    #: Supervisor poll granularity, seconds.
    poll_interval: float = 0.02


# -- the worker side -----------------------------------------------------------


def _options_from_flags(flags: List[str]) -> Options:
    opts = Options(log_target="capture")
    for flag in flags:
        if not opts.set(flag):
            opts.tool_options.append(flag)
    return opts


def _worker_main(conn, hb_time, hb_insns) -> None:
    """Worker process main loop: receive a job, run it, send the result.

    Heartbeats go through shared memory (*hb_time*/*hb_insns*), written
    from the scheduler's progress hook — so the parent's watchdog sees
    liveness even while the result pipe is idle, and stops seeing it the
    moment the guest wedges the worker.
    """
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    images: Dict[str, VxImage] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg[0] == "stop":
            return
        _, spec, attempt, directive, bundle_path, flush_every = msg
        try:
            reply = _worker_run(
                spec, attempt, directive, bundle_path, flush_every,
                images, hb_time, hb_insns,
            )
        except (InjectedPygenError, InjectedJitError) as exc:
            reply = ("error", spec.job_id, attempt,
                     {"type": type(exc).__name__, "msg": str(exc),
                      "jit": True, "tier": _effective_tier(spec)})
        except Exception as exc:
            reply = ("error", spec.job_id, attempt,
                     {"type": type(exc).__name__, "msg": str(exc),
                      "jit": False, "tier": _effective_tier(spec)})
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _effective_tier(spec: JobSpec) -> str:
    try:
        return _options_from_flags(spec.flags).codegen
    except BadOption:
        return "closures"


#: One-step tier degradation ladder applied on repeated JIT failures
#: (closures is the floor and never degrades further).
_DEGRADE_NEXT = {"traces": "pygen", "pygen": "closures"}


def _worker_run(spec, attempt, directive, bundle_path, flush_every,
                images, hb_time, hb_insns):
    try:
        opts = _options_from_flags(spec.flags)
    except BadOption as exc:
        return ("done", spec.job_id, attempt,
                JobResult(exit_code=int(ExitCode.USAGE), error=str(exc)))
    # Per-job stats files: a {job}/{attempt} template keeps concurrent
    # workers from racing on one path (satellite: --stats-out).
    if opts.stats_out and "{" in opts.stats_out:
        opts.stats_out = opts.stats_out.format(
            job=spec.job_id, attempt=attempt
        )
    # Crash-bundle recording, unless the job is itself a record/replay.
    if (bundle_path and spec.tool is not None
            and opts.record is None and opts.replay is None):
        opts.record = bundle_path
        opts.record_flush_every = flush_every

    tick = 0

    def beat(insns: int = 0) -> None:
        nonlocal tick
        tick += 1
        hb_insns.value = insns
        hb_time.value = time.monotonic()
        if directive is not None and tick == directive[1]:
            kind = directive[0]
            if kind == "kill":
                os.kill(os.getpid(), _signal.SIGKILL)
            elif kind == "hang":
                while True:  # stop beating; the watchdog reaps us
                    time.sleep(60)
            elif kind == "pygen-poison" and opts.codegen != "closures":
                raise InjectedPygenError(0)

    image = images.get(spec.program)
    if image is None and os.path.exists(spec.program):
        try:
            image = images[spec.program] = load_image(spec.program)
        except (OSError, AsmError):
            image = None
    # Lazy: the facade imports this module at its top, so importing it
    # back at ours would be circular.
    from ..api import run

    beat(0)
    result = run(
        image if image is not None else spec.program,
        spec.tool,
        opts,
        argv=[spec.program] + list(spec.args),
        stdin=spec.stdin,
        max_blocks=spec.max_blocks,
        on_progress=beat,
    )
    result.stdout = result.stdout[:65536]
    result.stderr = result.stderr[:65536]
    result.log = result.log[:65536]
    return ("done", spec.job_id, attempt, result)


# -- crash bundles -------------------------------------------------------------


def write_bundle_manifest(state: "_JobState", log_path: str,
                          classification: str, detail: str) -> str:
    """Write the crash-bundle manifest next to the event log; returns
    the manifest path.  The manifest is everything another machine needs
    to re-create the run: program, tool, flags (as last run, i.e. after
    any tier degradation), client args, stdin, budget — plus the log's
    SHA-256 so transit damage is detected before replay even starts."""
    spec = state.spec
    sha = None
    if os.path.exists(log_path):
        with open(log_path, "rb") as f:
            sha = hashlib.sha256(f.read()).hexdigest()
    manifest = {
        "bundle_version": 1,
        "job_id": spec.job_id,
        "attempt": len(state.attempts) - 1,
        "program": spec.program,
        "tool": spec.tool,
        "flags": list(spec.flags),
        "args": list(spec.args),
        "stdin_b64": base64.b64encode(spec.stdin).decode("ascii"),
        "max_blocks": spec.max_blocks,
        "classification": classification,
        "detail": detail,
        "log": os.path.basename(log_path),
        "log_sha256": sha,
    }
    path = log_path[: -len(".rrlog")] + ".bundle.json"
    _write_json(path, manifest)
    return path


def corrupt_bundle_log(log_path: str) -> bool:
    """Deterministically damage a bundle log in place (the chaos
    matrix's corrupted-in-transit fault).  Returns True if damaged."""
    try:
        with open(log_path, "rb") as f:
            raw = bytearray(f.read())
    except OSError:
        return False
    if len(raw) < 16:
        return False
    raw[len(raw) // 2] ^= 0xFF
    with open(log_path, "wb") as f:
        f.write(bytes(raw))
    return True


# -- fleet aggregation ---------------------------------------------------------


def merge_stats(into: dict, stats: dict) -> dict:
    """Accumulate one job's --stats=json payload into a fleet total:
    numeric leaves sum, nested dicts recurse, everything else (strings,
    bools, None) is dropped — the fleet total is purely additive."""
    for key, value in stats.items():
        if isinstance(value, dict):
            merge_stats(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            into[key] = into.get(key, 0) + value
    return into


# -- the supervisor ------------------------------------------------------------


class _JobState:
    """Supervisor-side lifecycle of one job."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.attempts: List[dict] = []
        self.infra_failures = 0
        self.jit_failures = 0
        self.degraded = False
        self.terminal: Optional[str] = None
        self.result: Optional[JobResult] = None
        self.bundle: Optional[str] = None
        self.bundle_status: Optional[str] = None
        self.bundle_replay: Optional[dict] = None


class _Worker:
    """One pool slot: a forked process plus its pipe and heartbeat cells."""

    def __init__(self, ctx, wid: int):
        self.wid = wid
        self.hb_time = ctx.Value("d", 0.0, lock=False)
        self.hb_insns = ctx.Value("q", 0, lock=False)
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.hb_time, self.hb_insns),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        #: (state, attempt#, directive, log_path, started_at) while busy.
        self.job: Optional[tuple] = None

    def kill(self) -> None:
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class FleetSupervisor:
    """Runs a list of :class:`JobSpec` to terminal states; never crashes
    because a worker did."""

    def __init__(
        self,
        jobs: List[JobSpec],
        *,
        workers: int = 4,
        policy: Optional[RetryPolicy] = None,
        watchdog: Optional[WatchdogConfig] = None,
        inject: Union[FleetInjector, str, None] = None,
        bundle_dir: Optional[str] = None,
        record_bundles: bool = True,
        record_flush_every: int = 8,
        verify_bundles: bool = False,
        cache_dir: Optional[str] = None,
        cache_max_mb: int = 256,
        echo=None,
    ):
        self.jobs = sorted(jobs, key=lambda s: s.job_id)
        self.workers_n = max(1, workers)
        self.policy = policy or RetryPolicy()
        self.watchdog = watchdog or WatchdogConfig()
        if isinstance(inject, str):
            inject = FleetInjector(inject) if inject else None
        self.injector = inject
        self.record_bundles = record_bundles and bundle_dir is not None
        self.bundle_dir = bundle_dir
        self.record_flush_every = record_flush_every
        self.verify_bundles = verify_bundles
        self.cache_dir = cache_dir
        self.cache_max_mb = cache_max_mb
        if cache_dir is not None:
            # Pre-open the shared translation cache *before* forking any
            # worker: directory layout and version header are created
            # once here, so N workers race only on pack files (which
            # are atomic), never on cache initialisation.
            from .codecache import CodeCache

            try:
                CodeCache(cache_dir, max_mb=cache_max_mb)
            except OSError:
                self.cache_dir = None
            else:
                for spec in self.jobs:
                    if not any(f.startswith("--cache-dir")
                               for f in spec.flags):
                        spec.flags.append(f"--cache-dir={cache_dir}")
                        spec.flags.append(f"--cache-max-mb={cache_max_mb}")
        self.echo = echo or (lambda msg: None)
        self._states = {s.job_id: _JobState(s) for s in self.jobs}
        self._counters = {
            "worker_deaths": 0,
            "worker_respawns": 0,
            "watchdog_wall": 0,
            "watchdog_hang": 0,
        }

    # -- dispatch loop ---------------------------------------------------------

    def run(self) -> dict:
        started = time.monotonic()
        if self.record_bundles:
            os.makedirs(self.bundle_dir, exist_ok=True)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        workers = [_Worker(ctx, i) for i in range(self.workers_n)]
        pending = deque(self._states[s.job_id] for s in self.jobs)
        delayed: list = []  # (ready_at, seq, state)
        self._seq = 0
        finished = 0
        total = len(self.jobs)
        try:
            while finished < total:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    pending.append(heapq.heappop(delayed)[2])
                for i in range(len(workers)):
                    if workers[i].job is None and pending:
                        if self._assign(workers[i], pending[0], ctx, workers):
                            pending.popleft()
                busy = [w for w in workers if w.job is not None]
                if not busy:
                    if delayed:
                        time.sleep(
                            min(max(delayed[0][0] - now, 0.0), 0.05)
                        )
                        continue
                    if pending:  # all assigns failed; slots respawned
                        continue
                    break  # inconsistent bookkeeping; bail instead of spin
                ready = _mpc.wait(
                    [w.conn for w in busy],
                    timeout=self.watchdog.poll_interval,
                )
                for w in busy:
                    if w.conn in ready and w.job is not None:
                        finished += self._drain(w, ctx, workers,
                                                pending, delayed)
                now = time.monotonic()
                for w in workers:
                    if w.job is not None:
                        finished += self._check_watchdog(
                            w, ctx, workers, now, pending, delayed
                        )
        finally:
            for w in workers:
                if w.proc.is_alive():
                    try:
                        w.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
                w.kill()
        return self._report(time.monotonic() - started)

    def _assign(self, w: _Worker, state: _JobState, ctx, workers) -> bool:
        """Send *state*'s next attempt to *w*; False (job not taken) if
        the worker turned out to be dead — the slot is respawned and the
        caller retries on the fresh worker next tick."""
        spec = state.spec
        attempt = len(state.attempts)
        directive = (
            self.injector.directive(spec.job_id, attempt)
            if self.injector else None
        )
        log_path = None
        if self.record_bundles and spec.tool is not None:
            log_path = os.path.join(
                self.bundle_dir, f"job{spec.job_id:04d}-a{attempt}.rrlog"
            )
        now = time.monotonic()
        w.hb_time.value = now
        try:
            w.conn.send(("job", spec, attempt, directive, log_path,
                         self.record_flush_every))
        except (BrokenPipeError, OSError):
            self._respawn(w, ctx, workers)
            return False
        w.job = (state, attempt, directive, log_path, now)
        return True

    def _respawn(self, w: _Worker, ctx, workers: list) -> None:
        w.kill()
        w.job = None
        fresh = _Worker(ctx, w.wid)
        self._counters["worker_respawns"] += 1
        workers[workers.index(w)] = fresh

    def _drain(self, w, ctx, workers, pending, delayed) -> int:
        state, attempt, directive, log_path, started_at = w.job
        try:
            msg = w.conn.recv()
        except (EOFError, OSError):
            return self._worker_died(w, ctx, workers, pending, delayed)
        w.job = None
        if msg[0] == "done":
            return self._complete(state, msg[3], directive, log_path)
        # msg[0] == "error"
        rep = msg[3]
        jit = bool(rep.get("jit")) and rep.get("tier") != "closures"
        return self._fail(
            state, "worker-error",
            f"{rep.get('type')}: {rep.get('msg')}",
            jit, directive, log_path, pending, delayed,
        )

    def _check_watchdog(self, w, ctx, workers, now, pending, delayed) -> int:
        state, attempt, directive, log_path, started_at = w.job
        if not w.proc.is_alive():
            return self._worker_died(w, ctx, workers, pending, delayed)
        last_beat = max(w.hb_time.value, started_at)
        if now - last_beat > self.watchdog.heartbeat_timeout:
            self._counters["watchdog_hang"] += 1
            self._respawn(w, ctx, workers)
            return self._fail(
                state, "watchdog-hang",
                f"heartbeat stale for {now - last_beat:.2f}s",
                False, directive, log_path, pending, delayed,
            )
        if now - started_at > self.watchdog.wall_budget:
            self._counters["watchdog_wall"] += 1
            self._respawn(w, ctx, workers)
            return self._fail(
                state, "watchdog-wall",
                f"wall budget {self.watchdog.wall_budget:.2f}s exceeded",
                False, directive, log_path, pending, delayed,
            )
        return 0

    def _worker_died(self, w, ctx, workers, pending, delayed) -> int:
        state, attempt, directive, log_path, started_at = w.job
        code = w.proc.exitcode
        self._counters["worker_deaths"] += 1
        self._respawn(w, ctx, workers)
        return self._fail(
            state, "worker-died", f"worker exit status {code}",
            False, directive, log_path, pending, delayed,
        )

    # -- attempt bookkeeping ---------------------------------------------------

    def _complete(self, state, result: JobResult, directive, log_path) -> int:
        had_failures = bool(state.attempts)
        state.attempts.append({
            "attempt": len(state.attempts),
            "outcome": "completed",
            "class": "ok",
            "detail": None,
            "directive": list(directive) if directive else None,
            "backoff": None,
        })
        state.result = result
        if state.degraded:
            state.terminal = "degraded-tier-succeeded"
        elif had_failures:
            state.terminal = "retried-then-succeeded"
        else:
            state.terminal = "succeeded"
        self._discard_log(log_path)
        return 1

    def _fail(self, state, outcome, detail, jit, directive, log_path,
              pending, delayed) -> int:
        att = {
            "attempt": len(state.attempts),
            "outcome": outcome,
            "class": "jit" if jit else "infra",
            "detail": detail,
            "directive": list(directive) if directive else None,
            "backoff": None,
        }
        state.attempts.append(att)
        if jit:
            state.jit_failures += 1
            if state.jit_failures >= self.policy.jit_degrade_after:
                # Degrade ONE tier (traces -> pygen -> closures) rather
                # than straight to closures: a trace-compile problem is
                # usually fixed by dropping just the trace tier, keeping
                # the per-block JIT's speed.  Repeated failures walk the
                # ladder down; closures is the floor.
                tier = _effective_tier(state.spec)
                nxt = _DEGRADE_NEXT.get(tier)
                if nxt is not None:
                    state.degraded = True
                    state.jit_failures = 0
                    state.spec.flags = [
                        f for f in state.spec.flags
                        if not f.startswith("--codegen")
                    ] + [f"--codegen={nxt}"]
                    att["degraded"] = nxt
            self._discard_log(log_path)
            pending.append(state)  # immediate retry, tier now safe(r)
            return 0
        state.infra_failures += 1
        if state.infra_failures <= self.policy.max_retries:
            delay = self.policy.backoff(
                state.spec.job_id, state.infra_failures
            )
            att["backoff"] = round(delay, 6)
            self._discard_log(log_path)
            self._seq += 1
            heapq.heappush(
                delayed, (time.monotonic() + delay, self._seq, state)
            )
            return 0
        state.terminal = "terminal-failure"
        self._ship_bundle(state, outcome, detail, log_path)
        return 1

    def _discard_log(self, log_path: Optional[str]) -> None:
        if log_path:
            try:
                os.remove(log_path)
            except OSError:
                pass

    def _ship_bundle(self, state, outcome, detail, log_path) -> None:
        if not log_path:
            return
        attempt = len(state.attempts) - 1
        if (self.injector is not None
                and self.injector.corrupts(state.spec.job_id, attempt)
                and os.path.exists(log_path)):
            corrupt_bundle_log(log_path)
        if not os.path.exists(log_path):
            state.bundle_status = "missing"
            return
        state.bundle = write_bundle_manifest(state, log_path, outcome, detail)
        try:
            EventLog.load(log_path)
        except ReplayFormatError:
            state.bundle_status = "corrupt"
            return
        state.bundle_status = "ok"
        if self.verify_bundles:
            from ..api import replay_bundle  # lazy: avoids an import cycle

            try:
                state.bundle_replay = replay_bundle(state.bundle)
            except Exception as exc:  # forensics must not kill the fleet
                state.bundle_replay = {"status": "error", "error": str(exc)}

    # -- reporting -------------------------------------------------------------

    def _report(self, wall: float) -> dict:
        jobs_out = []
        summary = {name: 0 for name in TERMINAL_STATES}
        bundles = {"shipped": 0, "ok": 0, "corrupt": 0, "missing": 0}
        stats_total: dict = {}
        attempts_total = 0
        for spec in self.jobs:
            st = self._states[spec.job_id]
            attempts_total += len(st.attempts)
            if st.terminal is not None:
                summary[st.terminal] += 1
            if st.terminal == "terminal-failure" and st.bundle_status:
                bundles["shipped"] += 1
                bundles[st.bundle_status] = (
                    bundles.get(st.bundle_status, 0) + 1
                )
            res = st.result
            if res is not None and res.stats:
                merge_stats(stats_total, res.stats)
            jobs_out.append({
                "job_id": spec.job_id,
                "program": spec.program,
                "tool": spec.tool,
                "terminal": st.terminal,
                "degraded": st.degraded,
                "attempts": st.attempts,
                "exit_code": res.exit_code if res else None,
                "stopped_reason": res.stopped_reason if res else None,
                "fatal_signal": res.fatal_signal if res else None,
                "guest_insns": res.guest_insns if res else 0,
                "error": res.error if res else None,
                "bundle": (os.path.basename(st.bundle)
                           if st.bundle else None),
                "bundle_status": st.bundle_status,
                "bundle_replay": st.bundle_replay,
            })
        return {
            "fleet": {
                "jobs": len(self.jobs),
                "workers": self.workers_n,
                "seed": self.policy.seed,
                "max_retries": self.policy.max_retries,
                "jit_degrade_after": self.policy.jit_degrade_after,
                "inject": self.injector.spec if self.injector else None,
                "cache_dir": self.cache_dir,
            },
            "jobs": jobs_out,
            "summary": {
                **summary,
                "attempts": attempts_total,
                **self._counters,
                "bundles": bundles,
                "injection": (self.injector.stats()
                              if self.injector else None),
            },
            "stats": stats_total,
            "wall_time": round(wall, 3),
        }


def normalize_report(report: dict) -> dict:
    """Strip the wall-clock-dependent fields from a fleet report, leaving
    only what two same-seed runs must agree on bit-for-bit: terminal
    states, attempt/failure classifications, directives, backoff delays,
    exit codes, instruction counts, bundle statuses and replay endpoints.

    Dropped: total wall time, free-text failure details (they embed
    elapsed seconds), and the aggregated stats block (it contains
    execution-time measurements)."""
    out = json.loads(json.dumps(report, sort_keys=True))
    out.pop("wall_time", None)
    out.pop("stats", None)
    for job in out.get("jobs", ()):
        for att in job.get("attempts", ()):
            att.pop("detail", None)
        replay = job.get("bundle_replay")
        if isinstance(replay, dict):
            replay.pop("error", None)
    return out
