"""Deterministic record/replay (the fleet-scale crash-triage story).

``--record=FILE`` captures every nondeterministic decision a run makes
into a compact, versioned, content-hashed event log:

* scheduler decisions at each preemption/yield point (which thread runs);
* syscall results, including injected EINTR/ENOMEM outcomes;
* signal arrival points keyed by (tid, guest_insns);
* SMC flushes, translation-table evictions, injected JIT failures and
  dispatch-level fault-injection events (echoed from the --inject plan);
* periodic checkpoints (``--checkpoint-every=N`` guest instructions): a
  full architected snapshot of ThreadStates + kernel + fs + translation
  list, so ``--restore=FILE`` can resume a long workload from a midpoint.

``--replay=FILE`` drives the scheduler, syscall layer, dispatcher and
fault injection from the log instead of live decisions, verifying every
event as it is consumed.  Any divergence raises
:class:`ReplayDivergence` loudly — event index, expected vs actual, pc
and guest_insns — instead of silently drifting.

The log records only *architected* decisions, never codegen-tier
artifacts, so a run recorded under one tier (``closures``, ``pygen``,
``traces``, with or without ``--chaining``) replays bit-exactly under
every other tier: same RunOutcome, same fault quadruple, same guest_insns.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..guest.regs import SPILL_AREA_BASE
from ..kernel.kernel import ACCESS_CODES, SigInfo
from .errors import ExitCode
from .faultinject import InjectedJitError
from .threadstate import ThreadState, ThreadStatus

M32 = 0xFFFFFFFF

#: Log file magic + format version.  Bump the version on any change to
#: the event encoding, the snapshot schema or the meta layout.
MAGIC = b"RRLG"
FORMAT_VERSION = 1

#: Snapshot schema version (stored inside each checkpoint blob).
#: v2: thread-state scratch (spill + call-save areas) is zero-masked at
#: capture — it is dead at block boundaries and its residue depends on
#: the codegen tier and the Memcheck fast-path setting, neither of which
#: is part of the replay contract.
SNAPSHOT_VERSION = 3

# -- event kinds ---------------------------------------------------------------

EV_SCHED = 1        # args: ()                        a thread was picked to run
EV_SYSCALL = 2      # args: (num, from_host, rflag, result)
EV_SIGNAL = 3       # args: (sig, has_si, addr, access_code, si_pc)
EV_INJECT = 4       # args: (kind_code, step)         dispatch-level injection
EV_JITFAIL = 5      # args: (addr,)                   injected isel failure
EV_SMC = 6          # args: (guest_addr,)             stale-translation flush
EV_EVICT = 7        # args: (count,)                  transtab eviction round
EV_CHECKPOINT = 8   # args: (ckpt_index,)  blob: snapshot sha256 (32 bytes)
EV_EXIT = 9         # args: (exit_code, fatal_sig, stopped_code, blocks,
                    #        translations, faults_recovered, quarantined)

EVENT_NAMES = {
    EV_SCHED: "sched",
    EV_SYSCALL: "syscall",
    EV_SIGNAL: "signal",
    EV_INJECT: "inject",
    EV_JITFAIL: "jitfail",
    EV_SMC: "smc",
    EV_EVICT: "evict",
    EV_CHECKPOINT: "checkpoint",
    EV_EXIT: "exit",
}

#: Syscall result flags (EV_SYSCALL args[2]).
RES_NORMAL = 0
RES_BLOCKED = 1
RES_NO_RESULT = 2
RES_INJECTED = 3

#: Dispatch-level injection kinds (EV_INJECT args[0]).
INJECT_CODES = {"segv": 0, "smc-flush": 1, "evict": 2}
INJECT_NAMES = {v: k for k, v in INJECT_CODES.items()}

#: RunOutcome.stopped_reason encoding (EV_EXIT args[2]).
STOP_CODES = {None: 0, "deadlock": 1, "block-budget": 2,
              "replay-exhausted": 3}
STOP_NAMES = {v: k for k, v in STOP_CODES.items()}

_ACCESS_NAMES = {v: k for k, v in ACCESS_CODES.items()}


# -- exceptions ----------------------------------------------------------------

class ReplayError(Exception):
    """Base class for all record/replay failures."""


class ReplayFormatError(ReplayError):
    """A log file is malformed, corrupt, or from an incompatible run."""


class ReplayDivergence(ReplayError):
    """Replayed execution strayed from the recorded one."""

    exit_code = ExitCode.REPLAY_DIVERGENCE

    def __init__(self, index: int, expected, actual, pc: int = 0,
                 insns: int = 0):
        self.index = index
        self.expected = expected
        self.actual = actual
        self.pc = pc
        self.insns = insns
        super().__init__(
            f"replay divergence at event #{index}: expected {expected}, "
            f"actual {actual} (pc={pc:#x}, guest_insns={insns})"
        )


class ReplayLogExhausted(ReplayError):
    """A *partial* log (a crash bundle flushed mid-run by a worker that was
    then killed) ran out of events.  Not an error in partial mode: the
    scheduler catches it and stops cleanly at the exact point the recording
    reached — (event index, pc, guest_insns) — so a crash replays to the
    same instruction on any machine."""

    exit_code = ExitCode.REPLAY_EXHAUSTED

    def __init__(self, index: int, pc: int = 0, insns: int = 0):
        self.index = index
        self.pc = pc
        self.insns = insns
        super().__init__(
            f"partial replay log exhausted after event #{index} "
            f"(pc={pc:#x}, guest_insns={insns})"
        )


# -- varint encoding -----------------------------------------------------------

def write_uvarint(out: bytearray, n: int) -> None:
    """LEB128 unsigned varint."""
    if n < 0:
        raise ValueError(f"uvarint cannot encode negative {n}")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
    n = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ReplayFormatError("truncated varint")
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            return n, pos
        shift += 7
        if shift > 70:
            raise ReplayFormatError("varint too long")


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


# -- canonical object serialization (for snapshot blobs) -----------------------

def pack_obj(obj) -> bytes:
    """Canonically serialize None/bool/int/float/str/bytes/list/dict.

    Byte-stable: the same value always packs to the same bytes (dicts
    keep insertion order — snapshot builders sort where order matters).
    """
    out = bytearray()
    _pack_into(out, obj)
    return bytes(out)


def _pack_into(out: bytearray, obj) -> None:
    if obj is None:
        out.append(ord("N"))
    elif obj is True:
        out.append(ord("T"))
    elif obj is False:
        out.append(ord("F"))
    elif isinstance(obj, int):
        out.append(ord("I"))
        write_uvarint(out, _zigzag(obj))
    elif isinstance(obj, float):
        out.append(ord("D"))
        out += struct.pack("<d", obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(ord("S"))
        write_uvarint(out, len(data))
        out += data
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        data = bytes(obj)
        out.append(ord("B"))
        write_uvarint(out, len(data))
        out += data
    elif isinstance(obj, (list, tuple)):
        out.append(ord("L"))
        write_uvarint(out, len(obj))
        for item in obj:
            _pack_into(out, item)
    elif isinstance(obj, dict):
        out.append(ord("M"))
        write_uvarint(out, len(obj))
        for k, v in obj.items():
            _pack_into(out, k)
            _pack_into(out, v)
    else:
        raise TypeError(f"pack_obj cannot serialize {type(obj).__name__}")


def unpack_obj(data: bytes):
    obj, pos = _unpack_from(data, 0)
    if pos != len(data):
        raise ReplayFormatError("trailing bytes after packed object")
    return obj


def _unpack_from(buf: bytes, pos: int):
    if pos >= len(buf):
        raise ReplayFormatError("truncated packed object")
    tag = buf[pos]
    pos += 1
    if tag == ord("N"):
        return None, pos
    if tag == ord("T"):
        return True, pos
    if tag == ord("F"):
        return False, pos
    if tag == ord("I"):
        z, pos = read_uvarint(buf, pos)
        return _unzigzag(z), pos
    if tag == ord("D"):
        if pos + 8 > len(buf):
            raise ReplayFormatError("truncated float")
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if tag == ord("S"):
        n, pos = read_uvarint(buf, pos)
        if pos + n > len(buf):
            raise ReplayFormatError("truncated string")
        return buf[pos : pos + n].decode("utf-8"), pos + n
    if tag == ord("B"):
        n, pos = read_uvarint(buf, pos)
        if pos + n > len(buf):
            raise ReplayFormatError("truncated bytes")
        return bytes(buf[pos : pos + n]), pos + n
    if tag == ord("L"):
        n, pos = read_uvarint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _unpack_from(buf, pos)
            items.append(item)
        return items, pos
    if tag == ord("M"):
        n, pos = read_uvarint(buf, pos)
        d = {}
        for _ in range(n):
            k, pos = _unpack_from(buf, pos)
            v, pos = _unpack_from(buf, pos)
            d[k] = v
        return d, pos
    raise ReplayFormatError(f"unknown pack tag {tag:#x}")


# -- events and the log --------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """One recorded nondeterministic decision."""

    kind: int
    tid: int
    insns: int
    args: Tuple[int, ...] = ()
    blob: bytes = b""

    @property
    def name(self) -> str:
        return EVENT_NAMES.get(self.kind, f"ev{self.kind}")

    def describe(self) -> str:
        base = f"{self.name}(tid={self.tid}, insns={self.insns}"
        if self.args:
            base += f", args={self.args}"
        return base + ")"


class EventLog:
    """A complete recording: meta + events + checkpoint snapshots."""

    def __init__(self, meta: Optional[dict] = None):
        self.meta: dict = meta or {}
        self.events: List[Event] = []
        #: Checkpoint snapshot blobs (pack_obj output), indexed by the
        #: ckpt_index in the matching EV_CHECKPOINT's args.
        self.checkpoints: List[bytes] = []

    def append(self, ev: Event) -> None:
        self.events.append(ev)

    # -- wire format -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        body = bytearray()
        meta = json.dumps(self.meta, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        body += struct.pack("<I", len(meta))
        body += meta
        body += struct.pack("<I", len(self.events))
        for ev in self.events:
            body.append(ev.kind)
            write_uvarint(body, ev.tid)
            write_uvarint(body, ev.insns)
            body.append(len(ev.args))
            for a in ev.args:
                write_uvarint(body, a)
            write_uvarint(body, len(ev.blob))
            body += ev.blob
        body += struct.pack("<I", len(self.checkpoints))
        for blob in self.checkpoints:
            z = zlib.compress(blob, 6)
            body += struct.pack("<I", len(z))
            body += z
        digest = hashlib.sha256(body).digest()
        return MAGIC + struct.pack("<H", FORMAT_VERSION) + digest + bytes(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EventLog":
        if len(data) < len(MAGIC) + 2 + 32:
            raise ReplayFormatError("log file too short to be a recording")
        if data[: len(MAGIC)] != MAGIC:
            raise ReplayFormatError(
                f"bad magic {data[:len(MAGIC)]!r}: not a record/replay log"
            )
        pos = len(MAGIC)
        (version,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if version != FORMAT_VERSION:
            raise ReplayFormatError(
                f"log format version {version} unsupported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        digest = data[pos : pos + 32]
        pos += 32
        body = data[pos:]
        actual = hashlib.sha256(body).digest()
        if actual != digest:
            raise ReplayFormatError(
                "content hash mismatch: log is corrupt or was modified "
                f"(expected {digest.hex()[:16]}…, got {actual.hex()[:16]}…)"
            )
        log = cls()
        pos = 0
        try:
            (meta_len,) = struct.unpack_from("<I", body, pos)
            pos += 4
            log.meta = json.loads(body[pos : pos + meta_len].decode("utf-8"))
            pos += meta_len
            (n_events,) = struct.unpack_from("<I", body, pos)
            pos += 4
            for _ in range(n_events):
                kind = body[pos]
                pos += 1
                tid, pos = read_uvarint(body, pos)
                insns, pos = read_uvarint(body, pos)
                nargs = body[pos]
                pos += 1
                args = []
                for _ in range(nargs):
                    a, pos = read_uvarint(body, pos)
                    args.append(a)
                blob_len, pos = read_uvarint(body, pos)
                blob = bytes(body[pos : pos + blob_len])
                if len(blob) != blob_len:
                    raise ReplayFormatError("truncated event blob")
                pos += blob_len
                log.append(Event(kind, tid, insns, tuple(args), blob))
            (n_ckpts,) = struct.unpack_from("<I", body, pos)
            pos += 4
            for _ in range(n_ckpts):
                (z_len,) = struct.unpack_from("<I", body, pos)
                pos += 4
                z = body[pos : pos + z_len]
                if len(z) != z_len:
                    raise ReplayFormatError("truncated checkpoint")
                pos += z_len
                log.checkpoints.append(zlib.decompress(z))
        except (struct.error, IndexError, UnicodeDecodeError,
                json.JSONDecodeError, zlib.error) as exc:
            raise ReplayFormatError(f"malformed log body: {exc}") from exc
        return log

    @classmethod
    def load(cls, path: str) -> "EventLog":
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise ReplayFormatError(f"cannot read log {path!r}: {exc}") from exc
        return cls.from_bytes(data)

    def save(self, path: str) -> None:
        # Atomic: a reader (or a worker killed mid-write) only ever sees
        # the previous complete log, never a torn one.
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(self.to_bytes())
        os.replace(tmp, path)


# -- the record/replay contract ------------------------------------------------

#: Options that must match between record and replay: each one changes
#: *architected* behaviour (block boundaries, scheduling or fault
#: semantics).  Codegen tier, chaining and cache sizes are deliberately
#: absent — replay across those is the whole point.
CONTRACT_KEYS = (
    "smc_check", "dispatch_quantum", "thread_timeslice", "transtab_entries",
    "transtab_policy", "stack_size", "unroll", "opt1", "opt2",
    "max_stackframe",
)


def build_contract(options, tool_name: str) -> dict:
    c = {"tool": tool_name}
    for key in CONTRACT_KEYS:
        c[key] = getattr(options, key)
    return c


def check_contract(recorded: dict, current: dict) -> None:
    mismatched = sorted(
        k for k in set(recorded) | set(current)
        if recorded.get(k) != current.get(k)
    )
    if mismatched:
        detail = ", ".join(
            f"{k}: recorded={recorded.get(k)!r} current={current.get(k)!r}"
            for k in mismatched
        )
        raise ReplayFormatError(
            f"replay options incompatible with recording ({detail})"
        )


# -- snapshots (checkpoint/restore) --------------------------------------------

def capture_snapshot(sched, current_tid: int, slice_left: int) -> dict:
    """Capture the full architected state of a run at a block boundary.

    Tier-independent by construction: only guest-visible state and the
    translation *list* in the table's eviction order (addresses + SMC
    metadata, never compiled artifacts) are recorded.
    """
    kernel = sched.kernel
    mem = sched.memory
    fs = kernel.fs

    threads = []
    for tid in sorted(sched.threads):
        ts = sched.threads[tid]
        # The spill and call-save areas are dead at block boundaries;
        # their residue varies with the codegen tier and the Memcheck
        # fast-path setting, so they are masked out of the snapshot (and
        # hence the cross-run state hash).
        data = bytearray(ts.data)
        data[SPILL_AREA_BASE:] = bytes(len(data) - SPILL_AREA_BASE)
        threads.append({
            "tid": tid,
            "data": bytes(data),
            "status": ts.status.value,
            "exit_status": ts.exit_status,
            "joining": ts.joining,
            "stack_base": ts.stack_base,
            "stack_limit": ts.stack_limit,
            "callstack": [[ra, callee] for ra, callee in ts.callstack],
        })

    pages = []
    for pn in sorted(mem._pages):
        data, prot = mem._pages[pn]
        pages.append([pn, prot, bytes(data)])

    pending = []
    for tid in sorted(kernel.pending):
        q = kernel.pending[tid]
        if not q:
            continue
        entries = []
        for sig, si in q:
            entries.append([
                sig,
                None if si is None else [si.sig, si.addr, si.access, si.pc],
            ])
        pending.append([tid, entries])

    fds = []
    for fd in sorted(fs._fds):
        if fd <= 2:
            continue
        f = fs._fds[fd]
        alias = f.name in fs.files and fs.files[f.name] is f.data
        fds.append({
            "fd": fd,
            "name": f.name,
            "pos": f.pos,
            "flags": f.flags,
            "alias": alias,
            # Orphaned data (file was unlinked while open) must be carried
            # by value; aliased data is restored through files[name].
            "data": None if alias else bytes(f.data),
        })

    translations = [
        [t.guest_addr, bool(t.smc_checked), t.irsb is not None, t.smc_hash]
        for t in sched.transtab.all_translations()
    ]
    # The dispatcher's fast cache decides which look-ups take the slow
    # path, and under --transtab-policy=lru each slow look-up reorders the
    # table: restore refills it so eviction follows the recorded run.
    dispatch_cache = [
        [slot, t.guest_addr]
        for slot, t in enumerate(sched.dispatcher._cache)
        if t is not None and not t.dead
    ]

    injector = None
    if sched.injector is not None:
        inj = sched.injector
        version, state, gauss = inj._rng.getstate()
        injector = {
            "spec": inj.spec,
            "rules": [
                [name, r.at, r.prob, r.seen, r.fired]
                for name, r in sorted(inj.rules.items())
            ],
            "rng": [version, list(state), gauss],
        }

    run_queue = [t for t in sched._run_queue if t in sched.threads]

    return {
        "version": SNAPSHOT_VERSION,
        "insns": sched.dispatcher.guest_insns,
        "blocks": sched.dispatcher.stats.blocks_executed,
        "translations_made": sched.translator.translations_made,
        "step": sched._step,
        "current_tid": current_tid,
        "slice_left": slice_left,
        "next_tid": sched._next_tid,
        "next_thread_stack": sched._next_thread_stack,
        "run_queue": run_queue,
        "zombies": [[t, s] for t, s in sorted(sched._zombies.items())],
        "stacks": {
            "next_id": sched.registered_stacks._next_id,
            "entries": [
                [sid, start, end]
                for sid, (start, end)
                in sorted(sched.registered_stacks._stacks.items())
            ],
        },
        "counters": {
            "faults_recovered": sched.faults_recovered,
            "quarantined_blocks": sched.quarantined_blocks,
        },
        "threads": threads,
        "memory": pages,
        "code_pages": sorted(mem.code_pages),
        "kernel": {
            "brk_base": kernel.brk_base,
            "brk_cur": kernel.brk_cur,
            "time_offset_usec": kernel.time_offset_usec,
            "handlers": [[s, h] for s, h in sorted(kernel.handlers.items())],
            "pending": pending,
            "timers": [list(t) for t in kernel.timers],
        },
        "fs": {
            "files": [[name, bytes(data)]
                      for name, data in sorted(fs.files.items())],
            "stdin": bytes(fs.stdin),
            "stdout": bytes(fs.stdout),
            "stderr": bytes(fs.stderr),
            "stream_pos": [fs._fds[0].pos, fs._fds[1].pos, fs._fds[2].pos],
            "fds": fds,
        },
        "translations": translations,
        "dispatch_cache": dispatch_cache,
        "injector": injector,
    }


def snapshot_hash(snap: dict) -> bytes:
    """Content hash of a snapshot's tier-independent, injector-independent
    portion (replay runs with injector=None, so the injector echo is
    excluded from the cross-run identity, and chaining skips look-ups, so
    the dispatcher cache is too)."""
    trimmed = {k: v for k, v in snap.items()
               if k not in ("injector", "dispatch_cache")}
    return hashlib.sha256(pack_obj(trimmed)).digest()


def apply_snapshot(sched, snap: dict) -> None:
    """Restore a scheduler (and its kernel/fs/memory) from a snapshot."""
    if snap.get("version") != SNAPSHOT_VERSION:
        raise ReplayFormatError(
            f"snapshot version {snap.get('version')} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    kernel = sched.kernel
    mem = sched.memory
    fs = kernel.fs

    # Memory first (translations re-hash guest bytes at restore).
    mem._pages.clear()
    for pn, prot, data in snap["memory"]:
        mem._pages[pn] = (bytearray(data), prot)
    mem.code_pages = set(snap["code_pages"])

    # Threads: reuse existing ThreadState objects so their cached
    # arch/u32 memoryviews stay valid; create the rest.
    wanted = {}
    for entry in snap["threads"]:
        tid = entry["tid"]
        ts = sched.threads.get(tid)
        if ts is None:
            ts = ThreadState(tid=tid)
        ts.data[:] = entry["data"]
        ts.status = ThreadStatus(entry["status"])
        ts.exit_status = entry["exit_status"]
        ts.joining = entry["joining"]
        ts.stack_base = entry["stack_base"]
        ts.stack_limit = entry["stack_limit"]
        ts.callstack = [(ra, callee) for ra, callee in entry["callstack"]]
        wanted[tid] = ts
    sched.threads = wanted

    sched._zombies = {t: s for t, s in snap["zombies"]}
    sched._next_tid = snap["next_tid"]
    sched._next_thread_stack = snap["next_thread_stack"]
    sched.registered_stacks._next_id = snap["stacks"]["next_id"]
    sched.registered_stacks._stacks = {
        sid: (start, end) for sid, start, end in snap["stacks"]["entries"]
    }
    sched.faults_recovered = snap["counters"]["faults_recovered"]
    sched.quarantined_blocks = snap["counters"]["quarantined_blocks"]
    sched._step = snap["step"]
    sched.current_tid = snap["current_tid"]
    # The interrupted thread resumes first, with its remaining timeslice.
    sched._run_queue = [snap["current_tid"]] + list(snap["run_queue"])
    sched._resume_slice_left = snap["slice_left"]

    k = snap["kernel"]
    kernel.brk_base = k["brk_base"]
    kernel.brk_cur = k["brk_cur"]
    kernel.time_offset_usec = k["time_offset_usec"]
    kernel.handlers = {s: h for s, h in k["handlers"]}
    kernel.pending = {}
    for tid, entries in k["pending"]:
        q = deque()
        for sig, si in entries:
            q.append((sig, None if si is None
                      else SigInfo(si[0], addr=si[1], access=si[2], pc=si[3])))
        kernel.pending[tid] = q
    kernel.timers = [tuple(t) for t in k["timers"]]

    f = snap["fs"]
    fs.files = {name: bytearray(data) for name, data in f["files"]}
    fs.stdin[:] = f["stdin"]
    fs.stdout[:] = f["stdout"]
    fs.stderr[:] = f["stderr"]
    for i, pos in enumerate(f["stream_pos"]):
        fs._fds[i].pos = pos
    for fd in [fd for fd in fs._fds if fd > 2]:
        del fs._fds[fd]
    from ..kernel.fs import _OpenFile

    for entry in f["fds"]:
        if entry["alias"]:
            data = fs.files[entry["name"]]
        else:
            data = bytearray(entry["data"])
        fs._fds[entry["fd"]] = _OpenFile(
            entry["name"], data, pos=entry["pos"], flags=entry["flags"]
        )

    # Rebuild the translation table in its recorded eviction order, so
    # the post-restore lookup/translate sequence matches the original
    # run's warm-cache behaviour.
    sched._restore_translations(snap["translations"])
    sched.dispatcher.refill_cache(snap["dispatch_cache"])

    # Counters last: retranslation above must not perturb them.
    sched.translator.translations_made = snap["translations_made"]
    sched.dispatcher.guest_insns = snap["insns"]
    sched.dispatcher.stats.blocks_executed = snap["blocks"]

    inj = snap.get("injector")
    if inj is not None and sched.injector is not None:
        rules = {name: (at, prob, seen, fired)
                 for name, at, prob, seen, fired in inj["rules"]}
        for name, rule in sched.injector.rules.items():
            if name in rules:
                rule.at, rule.prob, rule.seen, rule.fired = rules[name]
        version, state, gauss = inj["rng"]
        sched.injector._rng.setstate((version, tuple(state), gauss))


# -- the recorder --------------------------------------------------------------

class Recorder:
    """Captures a live run's nondeterministic decisions into an EventLog."""

    replaying = False

    def __init__(self, options):
        self.options = options
        self.log = EventLog()
        self.sched = None
        self._suspended = 0
        self.checkpoint_bytes = 0
        self.flushes = 0

    # -- wiring ----------------------------------------------------------------

    def bind(self, sched, tool_name: str) -> None:
        self.sched = sched
        self.log.meta = {
            "format": FORMAT_VERSION,
            "contract": build_contract(self.options, tool_name),
            "recorded": {
                "codegen": self.options.codegen,
                "chaining": self.options.chaining,
                "inject": self.options.inject,
                "checkpoint_every": self.options.checkpoint_every,
            },
        }
        sched.transtab.on_evict = self._on_evict
        if sched.injector is not None:
            inj = sched.injector

            def _jit_hook(addr: int) -> None:
                try:
                    inj.jit_failure(addr)
                except InjectedJitError:
                    self.emit(EV_JITFAIL, tid=sched.current_tid, args=(addr,))
                    raise

            sched.translator.fail_hook = _jit_hook

    def _now(self) -> int:
        return self.sched.dispatcher.guest_insns if self.sched else 0

    def suspend(self) -> None:
        """Stop emitting (used while rebuilding state during restore)."""
        self._suspended += 1

    def resume(self) -> None:
        self._suspended -= 1

    def emit(self, kind: int, tid: int = 0, args: Tuple[int, ...] = (),
             blob: bytes = b"") -> None:
        if self._suspended:
            return
        self.log.append(Event(kind, tid, self._now(), args, blob))
        # Incremental crash-bundle persistence: with --record-flush=N the
        # log is (atomically) rewritten every N events, so a worker killed
        # mid-run leaves a complete, loadable prefix on disk.
        every = getattr(self.options, "record_flush_every", 0)
        if every and self.options.record \
                and len(self.log.events) % every == 0:
            self.log.save(self.options.record)
            self.flushes += 1
            self._flushed_events = len(self.log.events)

    def autoflush(self) -> None:
        """Dispatch-quantum flush hook: with --record-flush active, also
        persist at quantum boundaries, so compute-heavy guests that emit
        few events still leave an up-to-date prefix when killed."""
        every = getattr(self.options, "record_flush_every", 0)
        if not every or not self.options.record or self._suspended:
            return
        if len(self.log.events) == getattr(self, "_flushed_events", -1):
            return
        self.log.save(self.options.record)
        self.flushes += 1
        self._flushed_events = len(self.log.events)

    # -- recording hooks (called by scheduler/syscalls/transtab) ---------------

    def thread_scheduled(self, tid: int) -> None:
        self.emit(EV_SCHED, tid=tid)

    def syscall_done(self, tid: int, num: int, from_host: bool, rflag: int,
                     result: int) -> None:
        self.emit(EV_SYSCALL, tid=tid,
                  args=(num, int(from_host), rflag, result & M32))

    def signal_delivered(self, tid: int, sig: int,
                         si: Optional[SigInfo]) -> None:
        if si is None:
            args = (sig, 0, 0, 0, 0)
        else:
            args = (sig, 1, si.addr & M32, ACCESS_CODES.get(si.access, 0),
                    si.pc & M32)
        self.emit(EV_SIGNAL, tid=tid, args=args)

    def inject_fired(self, name: str, step: int, tid: int) -> None:
        self.emit(EV_INJECT, tid=tid, args=(INJECT_CODES[name], step))

    def smc_flush(self, tid: int, guest_addr: int) -> None:
        self.emit(EV_SMC, tid=tid, args=(guest_addr & M32,))

    def _on_evict(self, count: int) -> None:
        self.emit(EV_EVICT, tid=self.sched.current_tid if self.sched else 0,
                  args=(count,))

    def next_stop(self, now: int) -> Optional[int]:
        """The next checkpoint boundary (guest_insns), if any."""
        every = self.options.checkpoint_every
        if not every:
            return None
        return ((now // every) + 1) * every

    def at_insns_stop(self, tid: int, slice_left: int) -> None:
        """The dispatcher paused at a checkpoint boundary: snapshot."""
        snap = capture_snapshot(self.sched, tid, slice_left)
        blob = pack_obj(snap)
        idx = len(self.log.checkpoints)
        self.log.checkpoints.append(blob)
        self.checkpoint_bytes += len(blob)
        self.emit(EV_CHECKPOINT, tid=tid, args=(idx,), blob=snapshot_hash(snap))

    def bootstrap(self, snap: dict) -> None:
        """Record-from-restore: the log opens with the starting snapshot,
        so its replay consumer skips the same synthetic first pick."""
        blob = pack_obj(snap)
        self.log.checkpoints.append(blob)
        self.checkpoint_bytes += len(blob)
        self.emit(EV_CHECKPOINT, tid=snap["current_tid"], args=(0,),
                  blob=snapshot_hash(snap))

    def finish(self, outcome) -> None:
        self.emit(
            EV_EXIT,
            tid=self.sched.current_tid if self.sched else 0,
            args=(
                outcome.exit_code & 0xFF,
                outcome.fatal_signal or 0,
                STOP_CODES.get(outcome.stopped_reason, 0),
                outcome.blocks_executed,
                outcome.translations,
                self.sched.faults_recovered if self.sched else 0,
                self.sched.quarantined_blocks if self.sched else 0,
            ),
        )

    def write(self, path: str) -> None:
        self.log.save(path)

    def stats_dict(self) -> dict:
        return {
            "mode": "record",
            "events_recorded": len(self.log.events),
            "checkpoints": len(self.log.checkpoints),
            "checkpoint_bytes": self.checkpoint_bytes,
            "flushes": self.flushes,
            "divergences": 0,
        }


# -- the replayer --------------------------------------------------------------

class Replayer:
    """Drives a run from a recorded EventLog, verifying each decision."""

    replaying = True

    def __init__(self, options, log: EventLog):
        self.options = options
        self.log = log
        self.sched = None
        self.pos = 0
        self.consumed = 0
        self.divergences = 0
        self.checkpoints_verified = 0
        self._suspended = 0
        #: A log whose final event is not EV_EXIT was flushed mid-run by a
        #: worker that then crashed (a crash bundle): replay it *partially*
        #: — run until the log is exhausted, then stop cleanly at the exact
        #: recorded point instead of diverging.
        self.partial = not (log.events and log.events[-1].kind == EV_EXIT)
        #: (event index, insns) of every EV_CHECKPOINT, for next_stop.
        self._ckpt_points = [
            (i, ev.insns) for i, ev in enumerate(log.events)
            if ev.kind == EV_CHECKPOINT
        ]
        self._ckpt_cursor = 0

    @classmethod
    def load(cls, options, path: str) -> "Replayer":
        return cls(options, EventLog.load(path))

    # -- wiring ----------------------------------------------------------------

    def bind(self, sched, tool_name: str) -> None:
        self.sched = sched
        recorded = self.log.meta.get("contract")
        if not isinstance(recorded, dict):
            raise ReplayFormatError("log has no contract metadata")
        check_contract(recorded, build_contract(self.options, tool_name))
        sched.translator.fail_hook = self.maybe_jit_fail
        sched.transtab.on_evict = self._on_evict

    def _now(self) -> int:
        return self.sched.dispatcher.guest_insns if self.sched else 0

    def _pc(self) -> int:
        if self.sched is None:
            return 0
        ts = self.sched.threads.get(self.sched.current_tid)
        return ts.pc if ts is not None else 0

    def suspend(self) -> None:
        self._suspended += 1

    def resume(self) -> None:
        self._suspended -= 1

    # -- cursor ----------------------------------------------------------------

    def peek(self) -> Optional[Event]:
        if self.pos < len(self.log.events):
            return self.log.events[self.pos]
        return None

    def take(self, expect: str) -> Event:
        ev = self.peek()
        if ev is None:
            if self.partial:
                raise ReplayLogExhausted(self.pos, pc=self._pc(),
                                         insns=self._now())
            self.diverge(f"a {expect} event", "log exhausted")
        self.pos += 1
        self.consumed += 1
        return ev

    def seek_to(self, index: int) -> None:
        """Jump the cursor past a restore point."""
        self.pos = index
        self._ckpt_cursor = 0
        while (self._ckpt_cursor < len(self._ckpt_points)
               and self._ckpt_points[self._ckpt_cursor][0] < index):
            self._ckpt_cursor += 1

    def diverge(self, expected, actual) -> None:
        self.divergences += 1
        raise ReplayDivergence(self.pos, expected, actual,
                               pc=self._pc(), insns=self._now())

    def _verify_insns(self, ev: Event) -> None:
        now = self._now()
        if ev.insns != now:
            self.diverge(f"{ev.name} at guest_insns={ev.insns}",
                         f"guest_insns={now}")

    # -- replay hooks ----------------------------------------------------------

    def next_thread(self, queue: List[int], threads: Dict) -> int:
        # Mirror the recorder's silent skipping of stale queue entries.
        while queue and queue[0] not in threads:
            queue.pop(0)
        ev = self.take("sched")
        if ev.kind != EV_SCHED:
            self.diverge(f"{ev.describe()}", "a thread-schedule point")
        self._verify_insns(ev)
        if not queue:
            self.diverge(f"sched(tid={ev.tid})", "empty run queue")
        if queue[0] != ev.tid:
            self.diverge(f"sched(tid={ev.tid})",
                         f"run-queue head tid={queue[0]}")
        return queue.pop(0)

    def pending_inject(self, step: int) -> Optional[str]:
        """Is a dispatch-level injection recorded for this scheduler step?"""
        ev = self.peek()
        if ev is None or ev.kind != EV_INJECT:
            return None
        if ev.args[1] > step:
            return None
        if ev.args[1] < step:
            self.diverge(f"inject at step {ev.args[1]}",
                         f"already past it at step {step}")
        self.take("inject")
        self._verify_insns(ev)
        return INJECT_NAMES[ev.args[0]]

    def maybe_jit_fail(self, addr: int) -> None:
        """Translator fail_hook: re-raise recorded injected JIT failures."""
        ev = self.peek()
        if (ev is not None and ev.kind == EV_JITFAIL
                and ev.args[0] == (addr & M32) and ev.insns == self._now()):
            self.take("jitfail")
            raise InjectedJitError(addr)

    def syscall_injected(self, tid: int, num: int) -> Optional[int]:
        """At syscall entry: impose a recorded injected failure, if the
        next event is one for exactly this call.  Peeks only — normal
        results are verified at completion instead (SYS_EXIT raises
        ProcessExit before completion, so record emits nothing for it)."""
        ev = self.peek()
        if (ev is not None and ev.kind == EV_SYSCALL
                and ev.args[2] == RES_INJECTED
                and ev.tid == tid and ev.args[0] == num):
            self.take("syscall")
            self._verify_insns(ev)
            return ev.args[3]
        return None

    def syscall_check(self, tid: int, num: int, from_host: bool, rflag: int,
                      result: int) -> None:
        ev = self.take("syscall")
        actual = (EVENT_NAMES[EV_SYSCALL], tid, num, int(from_host), rflag,
                  result & M32)
        expected = (ev.name, ev.tid) + ev.args if ev.kind == EV_SYSCALL \
            else (ev.describe(),)
        if (ev.kind != EV_SYSCALL or ev.tid != tid or ev.args[0] != num
                or ev.args[1] != int(from_host) or ev.args[2] != rflag
                or ev.args[3] != (result & M32)):
            self.diverge(expected, actual)
        self._verify_insns(ev)

    def signal_delivered(self, tid: int, sig: int,
                         si: Optional[SigInfo]) -> None:
        ev = self.take("signal")
        if si is None:
            args = (sig, 0, 0, 0, 0)
        else:
            args = (sig, 1, si.addr & M32, ACCESS_CODES.get(si.access, 0),
                    si.pc & M32)
        if ev.kind != EV_SIGNAL or ev.tid != tid or ev.args != args:
            self.diverge(ev.describe(),
                         f"signal(tid={tid}, args={args})")
        self._verify_insns(ev)

    def smc_flush(self, tid: int, guest_addr: int) -> None:
        ev = self.take("smc")
        if ev.kind != EV_SMC or ev.args[0] != (guest_addr & M32):
            self.diverge(ev.describe(),
                         f"smc(tid={tid}, addr={guest_addr:#x})")
        self._verify_insns(ev)

    def _on_evict(self, count: int) -> None:
        if self._suspended:
            return
        ev = self.take("evict")
        if ev.kind != EV_EVICT or ev.args[0] != count:
            self.diverge(ev.describe(), f"evict(count={count})")

    def next_stop(self, now: int) -> Optional[int]:
        """The next recorded checkpoint boundary not yet reached."""
        while self._ckpt_cursor < len(self._ckpt_points):
            idx, insns = self._ckpt_points[self._ckpt_cursor]
            if idx < self.pos or insns <= now:
                self._ckpt_cursor += 1
                continue
            return insns
        return None

    def at_insns_stop(self, tid: int, slice_left: int) -> None:
        """Verify the replayed state matches the recorded checkpoint."""
        ev = self.take("checkpoint")
        if ev.kind != EV_CHECKPOINT:
            self.diverge(ev.describe(), "a checkpoint boundary")
        self._verify_insns(ev)
        snap = capture_snapshot(self.sched, tid, slice_left)
        h = snapshot_hash(snap)
        if ev.blob and h != ev.blob:
            self.diverge(
                f"checkpoint #{ev.args[0]} state hash {ev.blob.hex()[:16]}…",
                f"state hash {h.hex()[:16]}…",
            )
        self.checkpoints_verified += 1

    def finish(self, outcome) -> None:
        if self.partial:
            # A crash bundle has no EV_EXIT.  Exhaustion (the normal end
            # of a partial replay) leaves nothing to verify; a guest that
            # exits *early*, with recorded events still unconsumed, did
            # not follow the recording.
            if self.pos < len(self.log.events):
                self.diverge(
                    "end of partial log",
                    f"guest stopped with {len(self.log.events) - self.pos} "
                    f"events left (next: "
                    f"{self.log.events[self.pos].describe()})",
                )
            return
        ev = self.take("exit")
        actual = (
            outcome.exit_code & 0xFF,
            outcome.fatal_signal or 0,
            STOP_CODES.get(outcome.stopped_reason, 0),
            outcome.blocks_executed,
            outcome.translations,
            self.sched.faults_recovered if self.sched else 0,
            self.sched.quarantined_blocks if self.sched else 0,
        )
        if ev.kind != EV_EXIT or ev.args != actual:
            self.diverge(ev.describe(), f"exit(args={actual})")
        self._verify_insns(ev)
        if self.pos < len(self.log.events):
            self.diverge("end of log",
                         f"{len(self.log.events) - self.pos} events left "
                         f"(next: {self.log.events[self.pos].describe()})")

    def stats_dict(self) -> dict:
        return {
            "mode": "replay",
            "partial": self.partial,
            "log_events": len(self.log.events),
            "events_consumed": self.consumed,
            "divergences": self.divergences,
            "checkpoints": len(self.log.checkpoints),
            "checkpoints_verified": self.checkpoints_verified,
        }
