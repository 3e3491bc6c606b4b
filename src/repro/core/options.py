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


#: Sizes the engine cannot run with less of (a zero-entry cache or table
#: crashes the dispatcher, a zero quantum never dispatches a block, and
#: the loader needs a page of stack): flag -> (Options field, minimum,
#: must be a power of two).  Keyword construction and set() both check
#: through _check_size.
_SIZE_BOUNDS = {
    "dispatch-cache": ("dispatch_cache_size", 1, True),
    "dispatch-quantum": ("dispatch_quantum", 1, False),
    "transtab-entries": ("transtab_entries", 1, False),
    "stack-size": ("stack_size", PAGE_SIZE, False),
}


def _check_size(flag: str, value: int) -> int:
    _, minimum, pow2 = _SIZE_BOUNDS[flag]
    if value < minimum or (pow2 and value & (value - 1)):
        bound = f"a power of two >= {minimum}" if pow2 else f">= {minimum}"
        raise BadOption(f"--{flag} must be {bound}, got {value}")
    return value


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
    #: traces tier recording threshold: executions of a block before the
    #: dispatcher records the successor chain starting there as a trace.
    trace_threshold: int = 50
    #: Maximum member blocks spliced into one trace.
    max_trace_blocks: int = 8
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
        if self.smc_check not in ("none", "stack", "all"):
            raise BadOption(
                f"smc_check must be none|stack|all, got {self.smc_check!r}"
            )
        if self.transtab_policy not in ("fifo", "lru"):
            raise BadOption(
                f"transtab_policy must be fifo|lru, got {self.transtab_policy!r}"
            )
        if self.codegen not in CODEGEN_MODES:
            raise BadOption(
                f"codegen must be {'|'.join(CODEGEN_MODES)}, "
                f"got {self.codegen!r}"
            )
        if self.stats_format not in ("none", "json"):
            raise BadOption(
                f"stats_format must be none|json, got {self.stats_format!r}"
            )
        if self.trace_threshold < 1:
            raise BadOption("trace_threshold must be >= 1")
        if self.max_trace_blocks < 2:
            raise BadOption("max_trace_blocks must be >= 2")
        if self.cache_max_mb < 1:
            raise BadOption("cache_max_mb must be >= 1")
        for flag, (name, _, _) in _SIZE_BOUNDS.items():
            _check_size(flag, getattr(self, name))

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
        if name == "smc-check":
            if value not in ("none", "stack", "all"):
                raise BadOption(f"--smc-check must be none|stack|all, got {value!r}")
            self.smc_check = value
        elif name == "max-stackframe":
            self.max_stackframe = int(value, 0)
        elif name == "transtab-policy":
            if value not in ("fifo", "lru"):
                raise BadOption("--transtab-policy must be fifo|lru")
            self.transtab_policy = value
        elif name in _SIZE_BOUNDS:
            setattr(self, _SIZE_BOUNDS[name][0],
                    _check_size(name, int(value, 0)))
        elif name == "stats":
            if value not in ("none", "json"):
                raise BadOption(f"--stats must be none|json, got {value!r}")
            self.stats_format = value
        elif name == "stats-out":
            if not value:
                raise BadOption("--stats-out needs a file path")
            self.stats_out = value
        elif name == "codegen":
            if value not in CODEGEN_MODES:
                raise BadOption(
                    f"--codegen must be {'|'.join(CODEGEN_MODES)}, "
                    f"got {value!r}"
                )
            self.codegen = value
        elif name == "trace-threshold":
            n = int(value, 0)
            if n < 1:
                raise BadOption("--trace-threshold must be >= 1")
            self.trace_threshold = n
        elif name == "max-trace-blocks":
            n = int(value, 0)
            if n < 2:
                raise BadOption("--max-trace-blocks must be >= 2")
            self.max_trace_blocks = n
        elif name == "thread-timeslice":
            self.thread_timeslice = int(value, 0)
        elif name == "log-file":
            self.log_target = value
        elif name == "log-fd":
            self.log_target = {"1": "stdout", "2": "stderr"}.get(value, value)
        elif name == "suppressions":
            self.suppressions.append(value)
        elif name == "cache-dir":
            if not value:
                raise BadOption("--cache-dir needs a directory path")
            self.cache_dir = value
        elif name == "cache-max-mb":
            n = int(value, 0)
            if n < 1:
                raise BadOption("--cache-max-mb must be >= 1")
            self.cache_max_mb = n
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
        elif name == "checkpoint-every":
            n = int(value, 0)
            if n < 1:
                raise BadOption("--checkpoint-every must be >= 1")
            self.checkpoint_every = n
        elif name == "record-flush":
            n = int(value, 0)
            if n < 1:
                raise BadOption("--record-flush must be >= 1")
            self.record_flush_every = n
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
