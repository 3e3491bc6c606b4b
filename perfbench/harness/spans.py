"""In-memory spans around calls into the engine's layers.

A :class:`Tracer` keeps a flat list of spans.  Each span records its
name, start and end (``time.perf_counter`` seconds, which is the
system-wide monotonic clock, so spans from forked job processes line up
with the parent's), the index of the span that was open when it started
(its parent) and the job id current at the time.  Spans stay in memory
until the benchmark ends; :func:`write_chrome_trace` then writes them as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

:class:`Patches` installs the spans: it swaps a module function or a
class method for a wrapper that opens a span, calls the original and
closes the span, and puts every original back on :meth:`Patches.undo`.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int], job: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job]

    def __repr__(self) -> str:
        return f"Span{tuple(self.as_list())!r}"


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: Job id stamped on every span opened from now on.
        self.job: Optional[int] = None
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        now = self.clock()
        self.spans.append(Span(name, now, now, parent, self.job))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def merge(self, spans: Iterable[list], counters: Dict[str, float]) -> None:
        """Append spans recorded by another process (as ``Span.as_list``
        rows indexed from 0), re-basing their parent indices."""
        base = len(self.spans)
        for name, start, end, parent, job in spans:
            self.spans.append(Span(name, start, end,
                                   None if parent is None else parent + base,
                                   job))
        for key, n in counters.items():
            self.count(key, n)


def traced(tracer: Tracer, name: str, fn: Callable,
           on_result: Optional[Callable] = None) -> Callable:
    """Wrap *fn* so every call is a span named *name*; *on_result*, if
    given, is called with ``(tracer, result)`` after the span closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


class Patches:
    """Traced replacements for module functions and class methods."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        # vars() of a class yields the plain function, so the wrapper
        # binds ``self`` like the original method did.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced(self.tracer, name, original, on_result))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_self(spans: List[Span]) -> List[float]:
    """Each span's self time: its duration minus the part its child
    spans cover (children never overlap: spans come from one thread)."""
    own = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.dur
    return own


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds summed per span name."""
    out: Dict[str, float] = {}
    for s, own in zip(spans, span_self(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def call_counts(spans: List[Span]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def write_chrome_trace(path: str, spans: List[Span], meta: dict) -> None:
    """Write *spans* as Chrome trace-event JSON: one complete ("X") event
    per span, microsecond timestamps, the job id as the thread lane and
    the span's own index and parent index in ``args``."""
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": s.dur * 1e6,
            "pid": 1,
            "tid": -1 if s.job is None else s.job,
            "args": {"id": i, "parent": s.parent, "job": s.job},
        }
        for i, s in enumerate(spans)
    ]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, f)


def read_chrome_trace(path: str) -> Tuple[List[Span], dict]:
    """Inverse of :func:`write_chrome_trace`."""
    with open(path) as f:
        doc = json.load(f)
    events = sorted(doc["traceEvents"], key=lambda e: e["args"]["id"])
    spans = [
        Span(e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6,
             e["args"]["parent"], e["args"]["job"])
        for e in events
    ]
    return spans, doc.get("otherData", {})
