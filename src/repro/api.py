"""The stable embedding facade (the ``repro.api`` surface).

Everything an embedder needs lives here, under compatibility guarantees:

* :func:`run` — one guest job in this process, classified into a
  :class:`JobResult`; never raises for anything the guest does.
* :func:`run_fleet` — a list of jobs across a crash-isolated worker
  pool, returning a :class:`FleetReport`.
* :func:`replay` — re-execute a crash bundle (manifest or bare event
  log) to the exact point its recording stopped.
* :func:`open_cache` — open (creating if needed) a persistent
  cross-process translation cache directory.

The CLI (:mod:`repro.cli`) and the fleet workers are thin callers of
this module.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .core.codecache import CodeCache
from .core.errors import ExitCode
from .core.options import BadOption, Options, parse_argv
from .core.replay import (
    EventLog,
    ReplayDivergence,
    ReplayError,
    ReplayFormatError,
)
from .core.supervisor import (
    FleetSupervisor,
    JobResult,
    JobSpec,
    RetryPolicy,
    WatchdogConfig,
    _options_from_flags,
    _write_json,
    load_image,
)
from .guest.asm import AsmError
from .guest.program import VxImage

__all__ = [
    "run",
    "run_fleet",
    "replay",
    "replay_bundle",
    "open_cache",
    "FleetReport",
    "JobResult",
    "JobSpec",
    "RetryPolicy",
    "WatchdogConfig",
    "FleetSupervisor",
    "CodeCache",
    "Options",
    "BadOption",
    "parse_argv",
    "load_image",
]


# -- single jobs ---------------------------------------------------------------


def run(
    program: Union[str, VxImage],
    tool: Optional[str] = None,
    options: Optional[Options] = None,
    *,
    argv: Optional[List[str]] = None,
    stdin: bytes = b"",
    max_blocks: Optional[int] = None,
    on_progress=None,
) -> JobResult:
    """Run one guest job to a classified :class:`JobResult`.

    This is the reusable embedding API behind both the CLI and the fleet
    workers: *program* is a ``.s`` path or a pre-assembled image, *tool*
    is a tool name (None = native baseline run), *on_progress* is called
    with the guest instruction count at every dispatch-quantum boundary
    (the fleet heartbeat).  Guest behaviour and launcher-level errors
    both come back as a JobResult — only genuine internal bugs raise.
    """
    opts = options or Options()
    if isinstance(program, VxImage):
        image, path = program, program.name
    else:
        path = str(program)
        try:
            image = load_image(path)
        except (OSError, AsmError) as exc:
            return JobResult(exit_code=int(ExitCode.USAGE), error=str(exc))
    client_argv = argv if argv is not None else [path]

    want_stats = opts.stats_format == "json" or opts.stats_out is not None

    if tool is None:
        from .native import run_native

        res = run_native(image, client_argv, stdin=stdin)
        stats = None
        if want_stats:
            stats = {
                "tool": None,
                "native": True,
                "exit_code": res.exit_code,
                "guest_insns": res.guest_insns,
            }
            if opts.stats_out:
                _write_json(opts.stats_out, stats)
        return JobResult(
            exit_code=res.exit_code,
            stdout=res.stdout,
            stderr=res.stderr,
            fatal_signal=res.fatal_signal,
            guest_insns=res.guest_insns,
            stats=stats,
        )

    from .core.valgrind import Valgrind

    try:
        vg = Valgrind(tool, opts)
    except (KeyError, ValueError) as exc:
        return JobResult(exit_code=int(ExitCode.USAGE), error=str(exc))
    vg.on_progress = on_progress
    try:
        result = vg.run(
            image,
            client_argv,
            stdin=stdin,
            max_blocks=max_blocks,
            resolve_image=load_image,
        )
    except ReplayDivergence as exc:
        return JobResult(exit_code=int(exc.exit_code), error=str(exc))
    except (ReplayError, BadOption) as exc:
        return JobResult(exit_code=int(ExitCode.USAGE), error=str(exc))
    stats = result.stats() if want_stats else None
    if stats is not None and opts.stats_out:
        _write_json(opts.stats_out, stats)
    # The finished core is a cyclic object graph that only a full cyclic
    # collection reclaims, and a process running many jobs (translated
    # once each, by the memory tier) can go several jobs without one:
    # free the guest pages, the bulk of it, now.
    vg.memory.unmap_all()
    return JobResult(
        exit_code=result.exit_code,
        stdout=result.stdout,
        stderr=result.stderr,
        log=result.log,
        fatal_signal=result.outcome.fatal_signal,
        stopped_reason=result.outcome.stopped_reason,
        guest_insns=result.outcome.guest_insns,
        blocks_executed=result.outcome.blocks_executed,
        translations=result.outcome.translations,
        stats=stats,
        replay_exhausted_at=vg.scheduler.replay_exhausted_at,
    )


# -- fleets --------------------------------------------------------------------


@dataclass
class FleetReport:
    """A fleet run's report: the raw report dict plus typed accessors.

    Dict-style access (``report["summary"]``, ``"jobs" in report``) is
    supported so code written against the raw :class:`FleetSupervisor`
    report keeps working unchanged.
    """

    raw: dict

    def __getitem__(self, key):
        return self.raw[key]

    def __contains__(self, key) -> bool:
        return key in self.raw

    def __iter__(self):
        return iter(self.raw)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def keys(self):
        return self.raw.keys()

    @property
    def summary(self) -> dict:
        return self.raw["summary"]

    @property
    def jobs(self) -> list:
        return self.raw["jobs"]

    @property
    def stats(self) -> dict:
        return self.raw["stats"]

    @property
    def wall_time(self) -> float:
        return self.raw["wall_time"]

    @property
    def ok(self) -> bool:
        """True when no job ended in terminal failure."""
        return self.summary["terminal-failure"] == 0

    @property
    def cache(self) -> Optional[dict]:
        """The fleet-aggregated persistent-cache stats section, if any
        job reported one (requires ``--stats=json`` job flags)."""
        cache = self.stats.get("cache")
        return cache if cache else None


def run_fleet(
    jobs: Sequence[Union[JobSpec, str]],
    *,
    workers: int = 4,
    policy: Optional[RetryPolicy] = None,
    watchdog: Optional[WatchdogConfig] = None,
    inject=None,
    bundle_dir: Optional[str] = None,
    record_bundles: bool = True,
    record_flush_every: int = 8,
    verify_bundles: bool = False,
    cache_dir: Optional[str] = None,
    cache_max_mb: int = 256,
    tool: Optional[str] = None,
    flags: Optional[List[str]] = None,
    echo=None,
) -> FleetReport:
    """Run *jobs* across a crash-isolated worker pool.

    Each element is a :class:`JobSpec`, or a bare ``.s`` path which is
    promoted to a spec with *tool* and *flags* (job ids are assigned in
    order).  With *cache_dir*, the supervisor pre-opens the persistent
    translation cache before forking and every worker shares it — N
    workers translate each block once, fleet-wide.
    """
    specs: List[JobSpec] = []
    for job in jobs:
        if isinstance(job, JobSpec):
            specs.append(job)
        else:
            specs.append(JobSpec(
                job_id=len(specs),
                program=str(job),
                tool=tool,
                flags=list(flags or []),
            ))
    supervisor = FleetSupervisor(
        specs,
        workers=workers,
        policy=policy,
        watchdog=watchdog,
        inject=inject,
        bundle_dir=bundle_dir,
        record_bundles=record_bundles,
        record_flush_every=record_flush_every,
        verify_bundles=verify_bundles,
        cache_dir=cache_dir,
        cache_max_mb=cache_max_mb,
        echo=echo,
    )
    return FleetReport(raw=supervisor.run())


# -- crash-bundle replay -------------------------------------------------------


def replay_bundle(manifest_path: str) -> dict:
    """Replay a crash bundle in this process, to the exact point the
    recording stopped.

    Returns ``{"status", "exit_code", "stopped_reason", "endpoint"}``
    where *endpoint* is ``{"event_index", "pc", "guest_insns"}`` — the
    precise event index, guest pc and instruction count where the log
    ran out (or where a complete log's run exited).  ``status`` is
    ``"replayed"``, or ``"corrupt"`` / ``"error"`` with a message.
    """
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        return {"status": "error", "error": f"unreadable manifest: {exc}"}
    bundle_dir = os.path.dirname(os.path.abspath(manifest_path))
    log_path = os.path.join(bundle_dir, manifest["log"])
    try:
        with open(log_path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        return {"status": "error", "error": f"unreadable log: {exc}"}
    want = manifest.get("log_sha256")
    if want and hashlib.sha256(raw).hexdigest() != want:
        return {"status": "corrupt", "error": "log digest != manifest digest"}
    try:
        log = EventLog.from_bytes(raw)
    except ReplayFormatError as exc:
        return {"status": "corrupt", "error": str(exc)}

    try:
        opts = _options_from_flags(manifest.get("flags", []))
    except BadOption as exc:
        return {"status": "error", "error": str(exc)}
    opts.record = None
    opts.record_flush_every = 0
    opts.stats_out = None
    opts.stats_format = "json"
    opts.replay = log_path
    result = run(
        manifest["program"],
        manifest["tool"],
        opts,
        argv=[manifest["program"]] + list(manifest.get("args", [])),
        stdin=base64.b64decode(manifest.get("stdin_b64", "")),
        max_blocks=manifest.get("max_blocks"),
    )
    if result.error is not None:
        return {"status": "error", "error": result.error,
                "exit_code": result.exit_code}
    if result.replay_exhausted_at is not None:
        index, pc, insns = result.replay_exhausted_at
    else:  # complete log: the replay ran to the recorded exit
        index, pc, insns = len(log.events), None, result.guest_insns
    return {
        "status": "replayed",
        "exit_code": result.exit_code,
        "stopped_reason": result.stopped_reason,
        "endpoint": {"event_index": index, "pc": pc, "guest_insns": insns},
    }


def replay(bundle_or_log: str) -> dict:
    """Replay a crash bundle given either its manifest (``.bundle.json``)
    or its bare event log (``.rrlog``, resolved to the sibling manifest
    the supervisor wrote next to it)."""
    path = str(bundle_or_log)
    if path.endswith(".rrlog"):
        manifest = path[: -len(".rrlog")] + ".bundle.json"
        if not os.path.exists(manifest):
            return {
                "status": "error",
                "error": f"no bundle manifest next to {path!r} "
                         f"(expected {os.path.basename(manifest)})",
            }
        path = manifest
    return replay_bundle(path)


# -- the persistent translation cache ------------------------------------------


def open_cache(directory: str, *, max_mb: int = 256) -> CodeCache:
    """Open (creating if needed) the persistent cross-process translation
    cache rooted at *directory*.  The same directory can be shared by any
    number of concurrent processes; see :class:`repro.core.codecache.CodeCache`.
    """
    return CodeCache(directory, max_mb=max_mb)
