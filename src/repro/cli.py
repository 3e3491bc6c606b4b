"""The ``valgrind``-style command-line launcher.

Usage::

    python -m repro --tool=memcheck [core/tool options] program.s [args...]
    python -m repro fleet [fleet options] program.s [more programs...]

The "executable" is a vx32 assembly file (assembled with the standard
libc prelude) — our stand-in for an ELF binary.  A file whose first line
is ``#!name`` is treated as a *script*: the named interpreter program is
loaded instead, with the script's path as its first argument (mirroring
the loader behaviour described in Section 3.3).

Without ``--tool``, the program runs natively (the baseline).  Both
verbs are thin shells over the stable embedding facade in
:mod:`repro.api`: single runs over :func:`repro.api.run`, the ``fleet``
verb over :func:`repro.api.run_fleet`.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .api import (
    BadOption,
    JobSpec,
    RetryPolicy,
    WatchdogConfig,
    parse_argv,
    run,
    run_fleet,
)
from .core.faultinject import BadInjectSpec, FleetInjector
from .tools import available_tools

USAGE = """\
usage: python -m repro [--tool=<name>] [options] <program.s> [client args...]
       python -m repro fleet [fleet options] <program.s> [more programs...]

tools: {tools}

core options:
  --smc-check=none|stack|all   self-modifying-code checking (default: stack)
  --max-stackframe=<bytes>     stack-switch heuristic threshold (default 2MB)
  --chaining=yes|no            translation chaining: link each block's
                               Boring/Call/Ret exits to their successors,
                               severed on eviction/munmap/SMC (default: no)
  --perf=yes|no                alias of --chaining
  --codegen=closures|pygen|traces
                               execution tier: per-insn closures (default),
                               specialized Python per block (pygen),
                               or pygen plus superblock traces compiled
                               over hot block chains (traces)
  --trace-threshold=<n>        traces tier: executions before a block's
                               successor chain is recorded (default: 50)
  --max-trace-blocks=<n>       traces tier: member blocks per recorded
                               trace (default: 8)
  --stats=none|json            print run statistics to stderr (default: none)
  --stats-out=<file>           write the stats JSON to a file instead
                               ({{job}}/{{attempt}} expand under fleet)
  --precise-faults=yes|no      roll guest state to the exact faulting
                               instruction before delivering a signal
                               (default: yes)
  --signal-poll=<blocks>       async-signal latency bound for chained
                               execution (default: 100 blocks)
  --inject=<spec>              seeded fault injection, e.g.
                               mmap-enomem@3,eintr:0.05,seed=7
  --record=<file>              record every nondeterministic decision into
                               a replayable log
  --record-flush=<n>           while recording, atomically rewrite the log
                               every N events (crash-bundle prefixes)
  --replay=<file>              re-execute a recorded run, verifying every
                               decision (divergence exits with code 97)
  --checkpoint-every=<insns>   while recording, snapshot full guest state
                               every N guest instructions
  --restore=<file>             resume from the last checkpoint in a log
  --cache-dir=<dir>            persistent cross-process translation cache:
                               warm starts skip the whole decode/opt/
                               instrument/codegen pipeline
  --cache-max-mb=<mb>          on-disk cache size budget, LRU-evicted
                               (default: 256)
  --log-file=<path>            send tool output to a file (default: stderr)
  --suppressions=<file>        load error suppressions
  --stack-size=<bytes>         client stack size
(unrecognised --options are offered to the tool)

run "python -m repro fleet --help" for the fleet options
"""

FLEET_USAGE = """\
usage: python -m repro fleet [fleet options] <program.s> [more programs...]

Runs every given program as a job (replicated --repeat times) across a
crash-isolated worker pool with watchdog, seeded retry/backoff, codegen
tier degradation, and crash-bundle forensics.  Unrecognised --options
are applied to every job (core/tool options, e.g. --tool, --codegen).

fleet options:
  --workers=<n>              worker processes (default: 4)
  --repeat=<n>               replicate each program into N jobs (default: 1)
  --fleet-seed=<n>           seed for backoff jitter and fault plans
  --fleet-inject=<spec>      worker-level chaos, e.g.
                             kill:0.1,hang@4,pygen-poison:0.05,corrupt:0.2
  --max-retries=<n>          infrastructure retries per job (default: 2)
  --backoff-base=<secs>      first-retry backoff (default: 0.05)
  --jit-degrade-after=<n>    JIT failures before degrading the job to the
                             closures tier (default: 2)
  --wall-budget=<secs>       per-attempt wall-clock budget (default: 120)
  --heartbeat-timeout=<secs> reap a worker whose heartbeat is older than
                             this (default: 30)
  --block-budget=<n>         per-job guest block budget (exit 124)
  --fleet-dir=<dir>          crash-bundle directory (default: a tempdir)
  --bundles=yes|no           record crash bundles (default: yes)
  --verify-bundles=yes|no    replay each terminal-failure bundle in the
                             supervisor and report its endpoint
                             (default: no)
  --cache-dir=<dir>          shared persistent translation cache: opened
                             once before forking, so N workers translate
                             each block once fleet-wide
  --cache-max-mb=<mb>        shared cache size budget (default: 256)
  --stats=json               print the aggregated fleet report as JSON
                             on stdout
"""


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE.format(tools=", ".join(available_tools())))
        return 0
    if argv[0] == "fleet":
        return fleet_main(argv[1:])
    try:
        tool_name, options, rest = parse_argv(argv)
    except BadOption as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if not rest:
        print("repro: no client program given", file=sys.stderr)
        return 2
    program_path, client_args = rest[0], rest[1:]
    client_argv = [program_path] + client_args

    if tool_name is None:
        if options.tool_options:
            print(
                f"repro: unrecognised options {options.tool_options} "
                "(no tool selected)",
                file=sys.stderr,
            )
            return 2
        result = run(program_path, None, options, argv=client_argv)
        if result.error is not None:
            print(f"repro: {result.error}", file=sys.stderr)
            return result.exit_code
        sys.stdout.write(result.stdout)
        sys.stderr.write(result.stderr)
        if result.fatal_signal is not None:
            print(f"repro: killed by signal {result.fatal_signal}",
                  file=sys.stderr)
        return result.exit_code

    result = run(program_path, tool_name, options, argv=client_argv)
    if result.error is not None:
        print(f"repro: {result.error}", file=sys.stderr)
        return result.exit_code
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if options.stats_format == "json":
        print(json.dumps(result.stats, indent=2, sort_keys=True),
              file=sys.stderr)
    if result.fatal_signal is not None:
        print(
            f"repro: client killed by signal {result.fatal_signal}",
            file=sys.stderr,
        )
    return result.exit_code


def _fleet_value(arg: str) -> str:
    return arg.split("=", 1)[1] if "=" in arg else ""


def fleet_main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(FLEET_USAGE)
        return 0
    workers, repeat, seed = 4, 1, 0
    inject: Optional[str] = None
    max_retries, backoff_base, jit_degrade_after = 2, 0.05, 2
    wall_budget, heartbeat_timeout = 120.0, 30.0
    block_budget: Optional[int] = None
    fleet_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    cache_max_mb = 256
    bundles, verify_bundles, stats_json = True, False, False
    tool: Optional[str] = None
    job_flags: List[str] = []
    programs: List[str] = []

    try:
        for arg in argv:
            if not arg.startswith("--"):
                programs.append(arg)
                continue
            name = arg[2:].split("=", 1)[0]
            value = _fleet_value(arg)
            if name == "workers":
                workers = int(value, 0)
            elif name == "repeat":
                repeat = int(value, 0)
            elif name == "fleet-seed":
                seed = int(value, 0)
            elif name == "fleet-inject":
                FleetInjector(value)  # validate eagerly
                inject = value
            elif name == "max-retries":
                max_retries = int(value, 0)
            elif name == "backoff-base":
                backoff_base = float(value)
            elif name == "jit-degrade-after":
                jit_degrade_after = int(value, 0)
            elif name == "wall-budget":
                wall_budget = float(value)
            elif name == "heartbeat-timeout":
                heartbeat_timeout = float(value)
            elif name == "block-budget":
                block_budget = int(value, 0)
            elif name == "fleet-dir":
                fleet_dir = value
            elif name == "cache-dir":
                # Fleet-level: the supervisor pre-opens the cache and
                # appends the per-job flags itself.
                cache_dir = value
            elif name == "cache-max-mb":
                cache_max_mb = int(value, 0)
            elif name == "bundles":
                bundles = value != "no"
            elif name == "verify-bundles":
                verify_bundles = value == "yes"
            elif name == "tool":
                tool = value
            elif name == "stats" and value == "json":
                stats_json = True
                job_flags.append("--stats=json")
            else:
                job_flags.append(arg)
    except (ValueError, BadInjectSpec) as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 2
    if not programs:
        print("repro fleet: no client program given", file=sys.stderr)
        return 2
    if repeat < 1 or workers < 1:
        print("repro fleet: --repeat and --workers must be >= 1",
              file=sys.stderr)
        return 2
    if cache_max_mb < 1:
        print("repro fleet: --cache-max-mb must be >= 1", file=sys.stderr)
        return 2

    jobs = []
    for program in programs:
        for _ in range(repeat):
            jobs.append(JobSpec(
                job_id=len(jobs),
                program=program,
                tool=tool,
                flags=list(job_flags),
                max_blocks=block_budget,
            ))
    if fleet_dir is None and bundles:
        import tempfile

        fleet_dir = tempfile.mkdtemp(prefix="repro-fleet-")
    report = run_fleet(
        jobs,
        workers=workers,
        policy=RetryPolicy(
            max_retries=max_retries,
            backoff_base=backoff_base,
            jit_degrade_after=jit_degrade_after,
            seed=seed,
        ),
        watchdog=WatchdogConfig(
            wall_budget=wall_budget,
            heartbeat_timeout=heartbeat_timeout,
        ),
        inject=inject,
        bundle_dir=fleet_dir if bundles else None,
        record_bundles=bundles,
        verify_bundles=verify_bundles,
        cache_dir=cache_dir,
        cache_max_mb=cache_max_mb,
    )
    summary = report["summary"]
    print(
        f"fleet: {report['fleet']['jobs']} jobs on "
        f"{report['fleet']['workers']} workers (seed {seed})",
        file=sys.stderr,
    )
    print(
        "fleet: " + " ".join(
            f"{state}={summary[state]}"
            for state in ("succeeded", "retried-then-succeeded",
                          "degraded-tier-succeeded", "terminal-failure")
        ),
        file=sys.stderr,
    )
    shipped = summary["bundles"]["shipped"]
    if shipped:
        b = summary["bundles"]
        print(
            f"fleet: bundles shipped={shipped} ok={b['ok']} "
            f"corrupt={b['corrupt']} missing={b['missing']} "
            f"dir={fleet_dir}",
            file=sys.stderr,
        )
    if stats_json:
        print(json.dumps(report.raw, indent=2, sort_keys=True))
    return 0 if summary["terminal-failure"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
