"""Error recording, suppression and stack traces (requirement R9).

The core provides the output-related services tools need: recording
errors with deduplication, suppressing uninteresting/unfixable errors via
suppression files, producing symbolised stack traces from the debug
information the loader read, and a final error summary.

Suppression file format (one entry per ``{...}`` block, like Valgrind's)::

    {
       name-of-suppression
       ToolName:ErrorKind
       fun:malloc
       fun:do_*
    }

``fun:`` lines are matched (with ``*``/``?`` wildcards) against the
symbolised call stack from the innermost frame outward.
"""

from __future__ import annotations

import enum
import fnmatch
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


class ExitCode(enum.IntEnum):
    """Every non-guest exit code the launcher and core can produce.

    Guest programs own the ordinary 0..255 space; the framework reserves
    the conventional high codes (``timeout(1)``-style) for stops it
    causes itself, plus ``128 + sig`` for default-fatal guest signals.
    """

    OK = 0
    #: Command-line / environment problem (bad option, missing file, ...).
    USAGE = 2
    #: A partial (crash-bundle) replay consumed the whole log and stopped.
    REPLAY_EXHAUSTED = 96
    #: --replay execution strayed from the recorded run.
    REPLAY_DIVERGENCE = 97
    #: A max_blocks execution budget expired (guest-caused, terminal).
    BLOCK_BUDGET = 124
    #: All client threads blocked on each other (guest-caused, terminal).
    DEADLOCK = 125
    #: Base for default-fatal guest signals: the process exits 128 + sig.
    SIGNAL_BASE = 128

    @classmethod
    def for_signal(cls, sig: int) -> int:
        """The exit code for a default-fatal guest signal."""
        return int(cls.SIGNAL_BASE) + sig

    @classmethod
    def signal_of(cls, code: int) -> Optional[int]:
        """The fatal signal behind *code*, if it encodes one."""
        if int(cls.SIGNAL_BASE) < code < int(cls.SIGNAL_BASE) + 32:
            return code - int(cls.SIGNAL_BASE)
        return None

    @classmethod
    def is_guest_caused(cls, code: int) -> bool:
        """True for exits the *guest* produced (normal exits, fatal guest
        signals, budget/deadlock stops) as opposed to infrastructure
        failures.  The fleet supervisor treats these as terminal: re-running
        the same program deterministically reproduces them."""
        return (0 <= code < int(cls.REPLAY_EXHAUSTED)
                or code in (cls.BLOCK_BUDGET, cls.DEADLOCK)
                or cls.signal_of(code) is not None)


@dataclass(frozen=True)
class Frame:
    pc: int
    symbol: str
    offset: int
    location: str  # "file:line" or ""

    def describe(self) -> str:
        loc = f" ({self.location})" if self.location else ""
        if self.symbol:
            return f"0x{self.pc:X}: {self.symbol}+{self.offset}{loc}"
        return f"0x{self.pc:X}: ???{loc}"


@dataclass
class Error:
    """One recorded (unique) error."""

    kind: str
    message: str
    tid: int
    stack: Tuple[Frame, ...]
    addr: Optional[int] = None
    count: int = 1
    #: Extra tool-specific payload (e.g. Memcheck's origin info).
    extra: Optional[object] = None

    def key(self) -> tuple:
        top = tuple(f.pc for f in self.stack[:4])
        return (self.kind, self.message, top)

    def format(self) -> str:
        lines = [f"{self.kind}: {self.message}"]
        for f in self.stack:
            lines.append(f"   at {f.describe()}")
        return "\n".join(lines)


@dataclass
class Suppression:
    name: str
    tool: str
    kind: str
    callers: List[str]

    def matches(self, tool: str, err: Error) -> bool:
        if self.tool != "*" and self.tool != tool:
            return False
        if not fnmatch.fnmatch(err.kind, self.kind):
            return False
        symbols = [f.symbol or "???" for f in err.stack]
        for i, pattern in enumerate(self.callers):
            if i >= len(symbols) or not fnmatch.fnmatch(symbols[i], pattern):
                return False
        return True


def parse_suppressions(text: str) -> List[Suppression]:
    """Parse a suppression file's contents."""
    sups: List[Suppression] = []
    lines = [ln.strip() for ln in text.splitlines()]
    i = 0
    while i < len(lines):
        if lines[i] != "{":
            i += 1
            continue
        body = []
        i += 1
        while i < len(lines) and lines[i] != "}":
            if lines[i] and not lines[i].startswith("#"):
                body.append(lines[i])
            i += 1
        i += 1
        if len(body) < 2:
            continue
        name = body[0]
        tool, _, kind = body[1].partition(":")
        callers = [ln[4:] for ln in body[2:] if ln.startswith("fun:")]
        sups.append(Suppression(name, tool, kind or "*", callers))
    return sups


class ErrorManager:
    """Records, dedups, suppresses and reports errors for one run."""

    #: Stop recording after this many unique errors (like Valgrind).
    MAX_UNIQUE = 1000

    def __init__(
        self,
        tool_name: str,
        log: Callable[[str], None],
        symbolise: Callable[[int], Frame],
    ):
        self.tool_name = tool_name
        self._log = log
        self._symbolise = symbolise
        self.errors: List[Error] = []
        self._by_key: dict = {}
        self.suppressions: List[Suppression] = []
        self.suppressed_counts: dict = {}
        self.overflowed = False

    def load_suppressions(self, text: str) -> None:
        self.suppressions.extend(parse_suppressions(text))

    def symbolise_stack(self, pcs: Sequence[int]) -> Tuple[Frame, ...]:
        return tuple(self._symbolise(pc) for pc in pcs)

    def record(
        self,
        kind: str,
        message: str,
        tid: int,
        stack_pcs: Sequence[int],
        addr: Optional[int] = None,
        extra: Optional[object] = None,
    ) -> Optional[Error]:
        """Record an error; returns the Error if it is new and unsuppressed
        (in which case it has also been printed)."""
        err = Error(
            kind=kind,
            message=message,
            tid=tid,
            stack=self.symbolise_stack(stack_pcs),
            addr=addr,
            extra=extra,
        )
        for sup in self.suppressions:
            if sup.matches(self.tool_name, err):
                self.suppressed_counts[sup.name] = (
                    self.suppressed_counts.get(sup.name, 0) + 1
                )
                return None
        key = err.key()
        seen = self._by_key.get(key)
        if seen is not None:
            seen.count += 1
            return None
        if len(self.errors) >= self.MAX_UNIQUE:
            self.overflowed = True
            return None
        self._by_key[key] = err
        self.errors.append(err)
        self._log(err.format())
        self._log("")
        return err

    @property
    def total_errors(self) -> int:
        return sum(e.count for e in self.errors)

    @property
    def unique_errors(self) -> int:
        return len(self.errors)

    def summarise(self) -> None:
        self._log(
            f"ERROR SUMMARY: {self.total_errors} errors from "
            f"{self.unique_errors} contexts"
        )
        for name, n in sorted(self.suppressed_counts.items()):
            self._log(f"  suppressed by {name!r}: {n}")
        if self.overflowed:
            self._log("  (error limit reached; later errors not recorded)")
