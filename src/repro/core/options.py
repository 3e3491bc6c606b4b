"""Core command-line options.

The ``valgrind``-style launcher accepts ``--option=value`` arguments
before the client program name; unrecognised options are offered to the
tool, and anything after the program name belongs to the client.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..kernel.memory import PAGE_SIZE
from .codegen import CODEGEN_MODES
from .engines import ENGINES, Engine


class BadOption(Exception):
    pass


#: Every bounded or enumerated option: flag -> (Options field, the
#: allowed strings or the least allowed int).  Keyword construction and
#: set() both check through _check.  The least sizes are those the
#: engine cannot run with less of: a zero-entry cache or table crashes
#: the dispatcher, a zero quantum or timeslice never dispatches a block,
#: and the loader needs a page of stack.  0 turns checkpoints and
#: incremental log flushes off.
_CHECKS = {
    "smc-check": ("smc_check", ("none", "stack", "all")),
    "transtab-policy": ("transtab_policy", ("fifo", "lru")),
    "codegen": ("codegen", CODEGEN_MODES),
    "stats": ("stats_format", ("none", "json")),
    "dispatch-cache": ("dispatch_cache_size", 1),
    "dispatch-quantum": ("dispatch_quantum", 1),
    "thread-timeslice": ("thread_timeslice", 1),
    "transtab-entries": ("transtab_entries", 1),
    "stack-size": ("stack_size", PAGE_SIZE),
    "cache-max-mb": ("cache_max_mb", 1),
    "checkpoint-every": ("checkpoint_every", 0),
    "record-flush": ("record_flush_every", 0),
}
#: Sizes that must also be a power of two.
_POW2 = ("dispatch-cache",)
#: --log-fd values: the host streams tool output can go to.
_LOG_FDS = {"1": "stdout", "2": "stderr"}


def _check(flag: str, value, name: str):
    """Return *value* if ``_CHECKS[flag]`` allows it; otherwise raise
    BadOption naming *name* (the flag, or the keyword)."""
    _, rule = _CHECKS[flag]
    if isinstance(rule, tuple):
        if value not in rule:
            raise BadOption(f"{name} must be {'|'.join(rule)}, got {value!r}")
    elif (not isinstance(value, int) or value < rule
          or (flag in _POW2 and value & (value - 1))):
        bound = f"a power of two >= {rule}" if flag in _POW2 else f">= {rule}"
        raise BadOption(f"{name} must be {bound}, got {value!r}")
    return value


def _int(flag: str, value: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise BadOption(f"--{flag} needs an integer, got {value!r}") from None


def _default_engine() -> Engine:
    """The engine supplying the --chaining and --codegen defaults:
    ``paper``, or REPRO_ENGINE=NAME so CI can run the whole test suite
    on another engine."""
    name = os.environ.get("REPRO_ENGINE") or "paper"
    try:
        return ENGINES[name]
    except KeyError:
        raise BadOption(
            f"REPRO_ENGINE must be {'|'.join(ENGINES)}, got {name!r}"
        ) from None


def _default_cache_dir():
    """Default --cache-dir, overridable via REPRO_CACHE_DIR so CI can run
    the whole test suite against one shared persistent code cache."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def _default_memcheck_fastpath() -> bool:
    """Default --memcheck-fastpath, overridable via
    REPRO_MEMCHECK_FASTPATH=0|1 so CI can force the whole suite through
    either emission variant."""
    return os.environ.get("REPRO_MEMCHECK_FASTPATH", "1") not in ("0", "no")


@dataclass
class Options:
    """Core configuration (defaults mirror the paper where it gives one)."""

    #: Self-modifying-code checking: none | stack | all (Section 3.16; the
    #: default is to check only code on the stack).
    smc_check: str = "stack"
    #: Stack-switch heuristic threshold: SP changes larger than this are
    #: treated as a switch to a different stack (Section 3.12; 2MB default).
    max_stackframe: int = 2 * 1024 * 1024
    #: Translation-table size in entries (the real thing uses ~400k;
    #: scaled down with our scaled workloads).
    transtab_entries: int = 32768
    #: Translation-table eviction policy: fifo (the paper's) or lru.
    transtab_policy: str = "fifo"
    #: Direct-mapped dispatcher cache size (power of two).
    dispatch_cache_size: int = 8192
    #: Drop back to the scheduler after this many block executions, to check
    #: for thread switches and pending signals (Section 3.9).
    dispatch_quantum: int = 5000
    #: Thread timeslice, in code blocks (Section 3.14: 100,000 blocks;
    #: scaled down by default to match our scaled workloads).
    thread_timeslice: int = 10000
    #: Enable translation chaining (off, as in the paper's Valgrind 3.2.1;
    #: the dispatcher-ablation bench switches it on).  ``--perf`` is an
    #: alias of ``--chaining``.  Defaults to REPRO_ENGINE's setting.
    chaining: bool = field(default_factory=lambda: _default_engine().chaining)
    #: Codegen tier selection (see repro.core.codegen): "closures" runs
    #: per-insn closure lists; "pygen" compiles every block to one
    #: specialized CPython function on first execution; "traces" runs
    #: blocks in the pygen tier and additionally records hot chained
    #: successor sequences into superblock traces (see repro.core.traces).
    #: Defaults to REPRO_ENGINE's setting.
    codegen: str = field(default_factory=lambda: _default_engine().codegen)
    #: Run-statistics report format: "none" or "json" (--stats=json).
    stats_format: str = "none"
    #: Write the stats JSON to this file instead of racing on stderr —
    #: the per-job output channel for concurrent fleet workers
    #: (--stats=json alone keeps printing to stderr).
    stats_out: Optional[str] = None
    #: Fault-injection plan (``--inject=mmap-enomem@3,eintr:0.05,seed=7``);
    #: None disables injection entirely.
    inject: Optional[str] = None
    #: Record every nondeterministic decision into this log file.
    record: Optional[str] = None
    #: While recording, atomically rewrite the log every N events (0 =
    #: only at run end).  Crash-bundle support: a worker killed mid-run
    #: leaves a loadable prefix that replays partially to the exact
    #: point the last flush captured.
    record_flush_every: int = 0
    #: Replay a run from this log file, verifying each decision.
    replay: Optional[str] = None
    #: While recording, snapshot full architected state every N guest
    #: instructions (0 disables checkpointing).
    checkpoint_every: int = 0
    #: Resume execution from the last checkpoint in this log file.
    restore: Optional[str] = None
    #: Enable intra-block self-loop unrolling in opt1.
    unroll: bool = True
    #: Disable opt1 / opt2 (for the optimisation-ablation bench).
    opt1: bool = True
    opt2: bool = True
    #: Where tool/core output goes: "stderr", "stdout" or a file path.
    log_target: str = "stderr"
    #: Suppression file paths.
    suppressions: List[str] = field(default_factory=list)
    #: Print each translation's IR as it is made (debugging aid).
    trace_translations: bool = False
    #: Guest stack size in bytes.
    stack_size: int = 1024 * 1024
    #: Persistent cross-process translation cache directory
    #: (core.codecache); None disables persistence.
    cache_dir: Optional[str] = field(default_factory=_default_cache_dir)
    #: Size budget for the persistent cache, in MB (LRU eviction past
    #: it).  The in-process caches have fixed budgets of their own.
    cache_max_mb: int = 256
    #: Inline Memcheck's LOADV/STOREV shadow fast paths in the pygen
    #: tier (backend.pygen).  Tool output is byte-identical either way;
    #: the flag exists for differential testing and is deliberately NOT
    #: part of the replay contract (recordings stay tier-portable).
    memcheck_fastpath: bool = field(
        default_factory=_default_memcheck_fastpath
    )
    #: Tool-specific options that the core did not recognise.
    tool_options: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Keyword-constructor validation: embedders building Options
        directly get the same BadOption errors the flag parser raises."""
        for flag, (name, _) in _CHECKS.items():
            _check(flag, getattr(self, name), name)

    @classmethod
    def from_cli_args(cls, args: List[str]) -> "Options":
        """Build Options from a list of ``--name=value`` strings — the
        stable embedding entry point, so embedders stop reimplementing
        the flag grammar.  Unrecognised ``--`` options are collected
        into ``tool_options``; anything else raises BadOption.
        """
        opts = cls()
        for arg in args:
            if not str(arg).startswith("--"):
                raise BadOption(f"not an option: {arg!r}")
            if not opts.set(str(arg)):
                opts.tool_options.append(str(arg))
        return opts

    _FLAG_NAMES = {
        "chaining": "chaining",
        "perf": "chaining",
        "unroll": "unroll",
        "opt1": "opt1",
        "opt2": "opt2",
        "trace-translations": "trace_translations",
        "memcheck-fastpath": "memcheck_fastpath",
    }

    def set(self, option: str) -> bool:
        """Apply one ``--name=value`` option; False if unrecognised."""
        if not option.startswith("--"):
            raise BadOption(f"not an option: {option!r}")
        body = option[2:]
        name, _, value = body.partition("=")
        if name in _CHECKS:
            field_name, rule = _CHECKS[name]
            if not isinstance(rule, tuple):
                value = _int(name, value)
            setattr(self, field_name, _check(name, value, f"--{name}"))
        elif name == "max-stackframe":
            self.max_stackframe = _int(name, value)
        elif name == "stats-out":
            if not value:
                raise BadOption("--stats-out needs a file path")
            self.stats_out = value
        elif name == "log-file":
            if not value:
                raise BadOption("--log-file needs a file path")
            self.log_target = value
        elif name == "log-fd":
            if value not in _LOG_FDS:
                raise BadOption(
                    f"--log-fd must be 1|2, got {value!r} "
                    "(use --log-file=<path> to log to a file)"
                )
            self.log_target = _LOG_FDS[value]
        elif name == "suppressions":
            self.suppressions.append(value)
        elif name == "cache-dir":
            if not value:
                raise BadOption("--cache-dir needs a directory path")
            self.cache_dir = value
        elif name == "inject":
            from .faultinject import BadInjectSpec, FaultInjector

            try:
                FaultInjector(value)  # validate the spec eagerly
            except BadInjectSpec as exc:
                raise BadOption(str(exc))
            self.inject = value
        elif name in ("record", "replay", "restore"):
            if not value:
                raise BadOption(f"--{name} needs a file path")
            setattr(self, name, value)
        elif name in self._FLAG_NAMES:
            if value not in ("yes", "no", ""):
                raise BadOption(f"--{name} must be yes|no")
            setattr(self, self._FLAG_NAMES[name], value != "no")
        else:
            return False
        return True


def parse_argv(argv: List[str]) -> Tuple[Optional[str], Options, List[str]]:
    """Parse a valgrind-style command line.

    Returns (tool name or None, core options, remaining argv where
    remaining[0] is the client program).  Unrecognised ``--`` options are
    collected into ``options.tool_options`` for the tool to inspect.
    """
    opts = Options()
    tool: Optional[str] = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            break
        if arg.startswith("--tool="):
            tool = arg.split("=", 1)[1]
        elif not opts.set(arg):
            opts.tool_options.append(arg)
        i += 1
    return tool, opts, argv[i:]
