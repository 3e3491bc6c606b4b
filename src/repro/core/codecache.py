"""Persistent, cross-process translation cache (``--cache-dir``).

The paper's central cost is the 8-phase translation pipeline, and the
in-process caches (the memory translation tier ``core.translate._TIER``,
``hostcpu._pygen_cache``, ``_PYGEN_EMIT_CACHE``, the traces
``_BUILD_CACHE``) amortize it only within one process lifetime.
This module makes the amortization *persistent*: an on-disk,
content-addressed store keyed by everything a translation's output
depends on, so a warm start skips decode -> IR -> opt -> isel ->
regalloc -> emit -> ``compile()`` and goes straight to exec of the
stored bytecode.

Three namespaces share one directory (under a format-versioned subdir,
so a format bump simply stops seeing old entries):

``t/``  whole translations: assembled host code and pipeline stats,
        keyed by *(context hash, guest address)* and **verified** on
        every hit by re-fetching the guest bytes over the stored ranges
        and comparing their SHA-256 — a stale entry (SMC, a different
        program at the same address) is a miss, never a wrong
        translation.  No IR is stored: the trace tier builds from the
        members' host code.
``p/``  pygen payloads: ``(source text, encoded env spec,
        marshal.dumps(code object))`` keyed by the host code bytes
        (emission is a pure function of them), the emit version and
        variant, and the interpreter's bytecode magic number
        (``importlib.util.MAGIC_NUMBER``), so one shared directory never
        hands a Python 3.10 process 3.12 bytecode.  The source text is
        the canonical payload; the code object is derived from it by one
        ``compile()`` at store time, and a blob that does not unmarshal
        to a code object is quarantined like any other damaged entry.
``x/``  trace build outcomes ``(host code, members used, guest
        insns)``, keyed by the trace tier's build key: the trace-build
        and host-ISA versions plus each member's guest address and host
        code, see core.traces.  Seam truncation is decided from member
        code, so the entry records how many members the build used, and
        an unspliceable recording is stored as ``(None, 0, 0)``: a warm
        run answers every build from here.

The *context hash* (:func:`translation_context`) folds in every version
and configuration input the pipeline output depends on: frontend spec
version, opt pipeline version, host ISA encoding format, cache format,
tool identity + unclaimed tool options, opt1/opt2/unroll, SP-tracking,
and the live guest redirect table (redirects steer the disassembler's
chase decisions, so they are re-read on every lookup).  The scheduler
builds it once per run, with or without a cache directory: the memory
translation tier in front of ``t/`` keys by the same hash, and fills
from ``t/`` hits as well as from fresh translations.

Durability properties:

* **Crash-safe atomic writes** — entries are written to a temp file and
  ``os.replace``d into place; readers never see a partial entry.
* **Version/invalidation header** — a ``VERSION`` file records the
  format; entries live under ``v<N>/`` so a format bump orphans old
  entries instead of misreading them, and the budget walk evicts them.
* **Corruption tolerance** — every entry carries magic + SHA-256 over
  its whole payload; a damaged entry is quarantined (moved aside,
  counted) and treated as a miss.  Nothing a hostile byte can do
  produces a wrong translation: the payload digest guards decode, and
  the guest byte re-verification guards semantic staleness.
* **LRU size budget** — ``--cache-max-mb`` bounds the store; hits touch
  mtimes, eviction removes oldest-first.  Opening a cache does not walk
  the store: the budget walk runs just before a process's first write
  and again after every 4 MB it writes, so a process that only reads
  (every warm start) never pays for it — and cannot grow the store.  A
  walk covers every ``v<N>/`` tree under the root (current and orphaned
  formats, quarantined entries, temp files a killed writer left) under
  one oldest-first order; files outside those trees are never touched.
  Concurrent fleet writers are safe: identical content writes identical
  entries, and a racing reader either sees a complete entry or misses.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import pickle
import re
import types
import zlib
from typing import Callable, Dict, Optional, Tuple

#: On-disk format version: bump whenever entry layout, the pickled
#: payload schema, or any versioned pipeline input changes shape.
CACHE_FORMAT_VERSION = 4

_MAGIC = b"RCC1"
_PICKLE_PROTO = 4

#: This interpreter's bytecode format, part of every ``p/`` key.
_PY_MAGIC = importlib.util.MAGIC_NUMBER

#: Budget check cadence: re-walk the store after this many bytes of
#: writes (and before the first), not on every store.
_EVICT_CHECK_BYTES = 4 * 1024 * 1024

#: Names of the per-format trees under the root (``v1``, ``v2``, ...):
#: the only files the budget walk may evict.
_FORMAT_DIR = re.compile(r"v[0-9]+")


class CacheStats:
    """Cumulative counters, reported as the ``cache`` stats section.
    Every field is numeric so fleet aggregation (``merge_stats``) sums
    them across workers."""

    __slots__ = (
        "hits", "misses", "stores", "store_errors", "quarantined",
        "evictions", "evicted_bytes", "bytes_read", "bytes_written",
        "pygen_hits", "pygen_misses", "pygen_stores",
        "trace_hits", "trace_misses", "trace_stores",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CodeCache:
    """One on-disk cache directory, shared by any number of processes."""

    def __init__(self, directory: str, *, max_mb: int = 256):
        self.root = os.path.abspath(directory)
        self.max_bytes = max(1, int(max_mb)) * 1024 * 1024
        self.stats = CacheStats()
        self.base = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")
        self._dirs = {
            "t": os.path.join(self.base, "t"),
            "p": os.path.join(self.base, "p"),
            "x": os.path.join(self.base, "x"),
            "q": os.path.join(self.base, "quarantine"),
        }
        #: Per-context translation index: ctx-dir -> {addr: [filenames]},
        #: listed once per process and extended by our own stores.
        self._t_index: Dict[str, Dict[int, list]] = {}
        #: Bytes written since the last budget walk; None until this
        #: process's first write (which walks first).
        self._bytes_since_check: Optional[int] = None
        self._seq = 0
        for d in self._dirs.values():
            os.makedirs(d, exist_ok=True)
        self._write_header()

    # -- header ----------------------------------------------------------------

    def _write_header(self) -> None:
        path = os.path.join(self.root, "VERSION")
        if os.path.exists(path):
            return
        try:
            self._atomic_write(
                path,
                (f'{{"cache": "repro-codecache", '
                 f'"format": {CACHE_FORMAT_VERSION}}}\n').encode("ascii"),
            )
        except OSError:
            pass

    # -- low-level entry I/O ----------------------------------------------------

    def _atomic_write(self, path: str, data: bytes) -> None:
        self._seq += 1
        tmp = f"{path}.tmp.{os.getpid()}.{self._seq}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)

    def _write_entry(self, path: str, obj: object) -> bool:
        """Serialize *obj* with a digest guard; False on any failure."""
        try:
            payload = pickle.dumps(obj, protocol=_PICKLE_PROTO)
        except Exception:
            self.stats.store_errors += 1
            return False
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        if self._bytes_since_check is None:
            self._enforce_budget()
        try:
            self._atomic_write(path, blob)
        except OSError:
            self.stats.store_errors += 1
            return False
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)
        self._bytes_since_check += len(blob)
        if self._bytes_since_check >= _EVICT_CHECK_BYTES:
            self._enforce_budget()
        return True

    def _read_entry(self, path: str) -> Optional[object]:
        """Read + verify one entry; quarantines on corruption, returns
        None on miss/corruption (never raises, never returns a payload
        whose digest does not match)."""
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            return None  # concurrently evicted: a plain miss
        try:
            if (len(blob) < 36 or blob[:4] != _MAGIC
                    or hashlib.sha256(blob[36:]).digest() != blob[4:36]):
                raise ValueError("bad magic or digest")
            obj = pickle.loads(blob[36:])
        except Exception:
            self._quarantine(path)
            return None
        self.stats.bytes_read += len(blob)
        return obj

    def _quarantine(self, path: str) -> None:
        """Move a damaged entry aside so it is never read again."""
        self.stats.quarantined += 1
        dst = os.path.join(
            self._dirs["q"], f"{os.path.basename(path)}.{os.getpid()}.bad"
        )
        try:
            os.replace(path, dst)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass

    def _touch(self, path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    # -- translations (t/) ------------------------------------------------------

    def _t_dir(self, ctx: bytes) -> str:
        d = os.path.join(self._dirs["t"], ctx.hex()[:16])
        if d not in self._t_index:
            index: Dict[int, list] = {}
            try:
                os.makedirs(d, exist_ok=True)
                for name in os.listdir(d):
                    if not name.endswith(".tce"):
                        continue
                    try:
                        addr = int(name.split("-", 1)[0], 16)
                    except ValueError:
                        continue
                    index.setdefault(addr, []).append(name)
            except OSError:
                pass
            self._t_index[d] = index
        return d

    def lookup_translation(
        self, ctx: bytes, addr: int,
        fetch: Callable[[int, int], bytes],
    ) -> Optional[dict]:
        """Return a verified entry dict for *addr*, or None.

        Verification re-fetches the guest bytes over the entry's stored
        ranges and compares digests, then recomputes the SMC CRC from
        those same bytes — so a hit can never disagree with what a cold
        translation of the current memory image would have seen.  The
        bytes themselves come back as ``guest`` (the memory tier keeps
        them to verify its own hits).
        """
        d = self._t_dir(ctx)
        for name in tuple(self._t_index[d].get(addr, ())):
            path = os.path.join(d, name)
            obj = self._read_entry(path)
            if obj is None:
                continue
            try:
                if obj["format"] != CACHE_FORMAT_VERSION or obj["addr"] != addr:
                    raise ValueError("entry header mismatch")
                ranges = tuple((int(s), int(n)) for s, n in obj["ranges"])
                guest_sha = obj["guest_sha"]
                code = obj["code"]
                if not isinstance(code, bytes):
                    raise ValueError("code is not bytes")
            except Exception:
                self._quarantine(path)
                continue
            try:
                raw = b"".join(fetch(start, length) for start, length in ranges)
            except Exception:
                continue  # code pages gone or unreadable: a miss
            if hashlib.sha256(raw).digest() != guest_sha:
                continue  # stale (SMC / different program): a miss
            self.stats.hits += 1
            self._touch(path)
            obj["ranges"] = ranges
            obj["guest"] = raw
            obj["smc_crc"] = zlib.crc32(raw)
            return obj
        self.stats.misses += 1
        return None

    def store_translation(
        self, ctx: bytes, addr: int,
        fetch: Callable[[int, int], bytes],
        *, code: bytes, ranges: Tuple[Tuple[int, int], ...],
        stats: object,
    ) -> bool:
        """Store one translation: its host code, ranges and stats."""
        try:
            raw = b"".join(fetch(start, length) for start, length in ranges)
        except Exception:
            return False
        guest_sha = hashlib.sha256(raw).digest()
        obj = {
            "format": CACHE_FORMAT_VERSION,
            "addr": addr,
            "ranges": tuple(ranges),
            "guest_sha": guest_sha,
            "code": code,
            "stats": stats,
        }
        d = self._t_dir(ctx)
        name = f"{addr:08x}-{guest_sha.hex()[:16]}.tce"
        if self._write_entry(os.path.join(d, name), obj):
            # The write may have run an eviction pass, which drops the
            # whole index — relist before recording our own entry.
            if d not in self._t_index:
                self._t_dir(ctx)
            names = self._t_index[d].setdefault(addr, [])
            if name not in names:
                names.append(name)
            return True
        return False

    # -- pygen payloads (p/) ---------------------------------------------------

    def _p_path(self, code: bytes, emit_version: int, variant: int = 0) -> str:
        h = hashlib.sha256(
            b"pygen:%d:%d:" % (emit_version, variant) + _PY_MAGIC + b":"
            + code
        ).hexdigest()
        return os.path.join(self._dirs["p"], f"{h[:24]}.tcp")

    def load_pygen(
        self, code: bytes, fastpath: bool = False
    ) -> Optional[Tuple[str, tuple, types.CodeType]]:
        """Return ``(src, spec, code object)`` for *code*, decoded from
        disk.  The *fastpath* emission variant (inlined Memcheck shadow
        accesses, see backend.pygen) keys a distinct payload."""
        from ..backend import pygen as _pygen

        path = self._p_path(code, _pygen.PYGEN_EMIT_VERSION,
                            1 if fastpath else 0)
        obj = self._read_entry(path)
        if obj is None:
            self.stats.pygen_misses += 1
            return None
        try:
            src, enc, blob = obj
            spec = _pygen.decode_spec(enc)
            if not isinstance(src, str):
                raise ValueError("source is not a string")
            pycode = marshal.loads(blob)
            if not isinstance(pycode, types.CodeType):
                raise ValueError("bytecode is not a code object")
        except Exception:
            self._quarantine(path)
            self.stats.pygen_misses += 1
            return None
        self.stats.pygen_hits += 1
        self._touch(path)
        return src, spec, pycode

    def store_pygen(
        self, code: bytes, src: str, spec: tuple, pycode: types.CodeType,
        fastpath: bool = False,
    ) -> bool:
        """Store *src*, its env *spec* and *pycode* (``compile(src)``)."""
        from ..backend import pygen as _pygen

        try:
            enc = _pygen.encode_spec(spec)
        except _pygen.SpecCodecError:
            self.stats.store_errors += 1
            return False
        if self._write_entry(self._p_path(code, _pygen.PYGEN_EMIT_VERSION,
                                          1 if fastpath else 0),
                             (src, enc, marshal.dumps(pycode))):
            self.stats.pygen_stores += 1
            return True
        return False

    # -- trace build results (x/) ----------------------------------------------

    def _x_path(self, key: bytes) -> str:
        h = hashlib.sha256(b"trace:%d:" % CACHE_FORMAT_VERSION + key)
        return os.path.join(self._dirs["x"], f"{h.hexdigest()[:24]}.tcx")

    def load_trace(
        self, key: bytes,
    ) -> Optional[Tuple[Optional[bytes], int, int]]:
        """Return the stored build outcome ``(code, members used, guest
        insns)`` for build *key*; code None: unspliceable."""
        path = self._x_path(key)
        obj = self._read_entry(path)
        if obj is None:
            self.stats.trace_misses += 1
            return None
        try:
            code, n_members, total_insns = obj
            if not all(isinstance(n, int) for n in (n_members, total_insns)):
                raise ValueError("bad trace entry")
            if code is None:
                if n_members or total_insns:
                    raise ValueError("bad unspliceable entry")
            elif not (isinstance(code, bytes) and n_members >= 2
                      and total_insns >= 1):
                raise ValueError("bad trace entry")
        except Exception:
            self._quarantine(path)
            self.stats.trace_misses += 1
            return None
        self.stats.trace_hits += 1
        self._touch(path)
        return code, n_members, total_insns

    def store_trace(self, key: bytes, code: Optional[bytes], n_members: int,
                    total_insns: int) -> bool:
        if self._write_entry(self._x_path(key),
                             (code, int(n_members), int(total_insns))):
            self.stats.trace_stores += 1
            return True
        return False

    # -- size budget ------------------------------------------------------------

    def _enforce_budget(self) -> None:
        """Walk every ``v<N>/`` tree under the root (any format version,
        quarantine and stray temp files included); evict oldest files
        past the byte budget."""
        self._bytes_since_check = 0
        entries = []
        total = 0
        try:
            tops = [name for name in os.listdir(self.root)
                    if _FORMAT_DIR.fullmatch(name)]
        except OSError:
            tops = []
        for top in tops:
            for dirpath, _dirnames, filenames in os.walk(
                    os.path.join(self.root, top)):
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    entries.append((st.st_mtime, st.st_size, path))
                    total += st.st_size
        if total <= self.max_bytes:
            return
        entries.sort()
        for mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
            self.stats.evicted_bytes += size
        self._t_index.clear()  # dropped files may be indexed: relist lazily

    def stats_dict(self) -> dict:
        return self.stats.as_dict()


def translation_context(
    *, tool, options, track_stack_events: bool, redirects_fn=None,
) -> "TranslationContext":
    """The translation context of one run: everything a translation's
    output depends on besides the guest bytes and its address.

    Both translation tiers key by it: the process-wide memory tier
    (core.translate) and the ``t/`` namespace.  Tool class identity +
    name + unclaimed options: two tools instrumenting differently must
    never share a context.  *redirects_fn* returns the live guest
    redirect table, which steers the disassembler's chase decisions and
    which tools change at run time, so it is re-read on every lookup.
    Versions are read here, once per run.
    """
    from ..frontend.spec import SPEC_VERSION
    from ..opt import OPT_PIPELINE_VERSION
    from ..backend.hostisa import HOSTISA_FORMAT_VERSION

    base = (
        CACHE_FORMAT_VERSION,
        SPEC_VERSION,
        OPT_PIPELINE_VERSION,
        HOSTISA_FORMAT_VERSION,
        f"{type(tool).__module__}.{type(tool).__qualname__}:{tool.name}",
        tuple(sorted(options.tool_options)),
        bool(options.opt1), bool(options.opt2), bool(options.unroll),
        bool(track_stack_events),
    )
    return TranslationContext(base, redirects_fn)


class TranslationContext:
    """One run's translation context (see :func:`translation_context`):
    the static configuration, hashed together with the live redirect
    table into the digest both translation tiers key by."""

    def __init__(self, base: tuple, redirects_fn=None):
        self._base = base
        self._redirects_fn = redirects_fn
        self._digest_by_redirects: Dict[tuple, bytes] = {}

    def digest(self) -> bytes:
        extra = self._redirects_fn() if self._redirects_fn is not None else ()
        ctx = self._digest_by_redirects.get(extra)
        if ctx is None:
            ctx = hashlib.sha256(
                repr((self._base, extra)).encode("utf-8")
            ).digest()
            self._digest_by_redirects[extra] = ctx
        return ctx
