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

Three namespaces share one store (under a format-versioned subdir, so
a format bump simply stops seeing old entries):

``t/``  whole translations: assembled host code and pipeline stats,
        keyed by *(context hash, guest address)* and **verified** on
        every hit by re-fetching the guest bytes over the stored ranges
        and comparing their SHA-256 — a stale entry (SMC, a different
        program at the same address) is a miss, never a wrong
        translation.  A record of a second kind holds, instead of host
        code, the phase 1-4 IR of a block that a pygen run interpreted
        and never promoted (core.codegen), written when the run ends; a
        warm run hits it and interprets the block without translating.
        The record kind is in the index, and a look-up that finds both
        kinds for the same guest bytes takes the host code.
``p/``  pygen payloads: ``(source text, encoded env spec,
        marshal.dumps(code object))`` keyed by the host code bytes
        (emission is a pure function of them), the emit version and
        variant, and the interpreter's bytecode magic number
        (``importlib.util.MAGIC_NUMBER``), so one shared directory never
        hands a Python 3.10 process 3.12 bytecode.  The source text is
        the canonical payload; the code object is derived from it by one
        ``compile()`` at store time, and a blob that does not unmarshal
        to a code object quarantines its pack like any other damage.
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

Layout: immutable packs.  Every entry is one *blob*, a pickled payload
sealed by magic + SHA-256.  A run keeps the blobs it stores in memory,
where its own lookups find them, and :meth:`CodeCache.flush` writes them
as one file ``v<N>/<content digest>.pack``::

    "RCP6" | SHA-256 of the index | index length (u64) | index | blobs

The index is a pickled ``(t, p, x)``: ``p`` and ``x`` map a key digest
to a blob's (offset, length); ``t`` maps context -> guest address ->
packed records, each holding a blob's offset and length, its kind (host
code or IR), its guest ranges and their SHA-256 (format 6 added the
kind).  So a ``t/`` lookup verifies the guest bytes
before it reads anything, and reads exactly one blob per hit.  A
``CodeCache`` loads every pack's index once, at its first lookup, and
keeps the packs open until its next flush.

Durability properties:

* **Atomic, run-granular visibility** — a pack is written to a temp
  file and ``os.replace``d into place; readers open only ``*.pack``
  names, so they never see a partial pack.  A run's entries become
  visible to other processes when the run ends (``Valgrind.run``
  flushes in a ``finally``) or once its pending blobs pass
  ``min(_EVICT_CHECK_BYTES, budget / 8)``.  A killed run loses them, as
  it loses its output: it leaves no pack, at most a temp file.
* **Version/invalidation header** — a ``VERSION`` file records the
  format, rewritten by a cache's first pack write when it names another
  one; packs live under ``v<N>/`` so a format bump orphans old trees
  instead of misreading them, and the budget walk evicts them.
* **Corruption tolerance** — a pack whose header, index or any blob
  fails its digest or decode is quarantined whole (moved aside, counted
  once) and every entry it held is a miss.  Nothing a hostile byte can
  do produces a wrong translation: the digests guard decode, and the
  guest byte re-verification guards semantic staleness.  A pack that
  another process merged or evicted away is a plain miss.
* **Size budget** — every flush that writes a pack walks every
  ``v<N>/`` tree under the root and evicts whole files past
  ``--cache-max-mb``: other formats' trees, quarantined packs and their
  directories first, then packs oldest-written first (a read does not
  refresh a pack), never the pack the flush just wrote — so the store
  stays within the budget plus one pack.  Files outside those trees are
  never touched.  Opening a cache walks nothing, and a process that
  only reads (every warm start) writes, walks and merges nothing.
* **Merging** — a flush that then finds more than ``_MAX_PACKS`` packs
  merges the smallest into one (size-tiered: the two smallest, plus
  each next-smallest no bigger than twice their running total), which
  keeps its newest input's mtime; so a lookup probes at most
  ``_MAX_PACKS`` indexes, and an entry is rewritten about log2(store /
  pack) times.  An input is deleted only after the merged pack is in
  place, so racing fleet writers may duplicate an entry, never lose one.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import marshal
import os
import pickle
import re
import struct
import types
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..ir.block import IRSB

#: On-disk format version: bump whenever the pack or entry layout, the
#: pickled payload schema, or any versioned pipeline input changes shape.
CACHE_FORMAT_VERSION = 6

_MAGIC = b"RCC1"
_PACK_MAGIC = b"RCP6"
_PICKLE_PROTO = 4

#: This interpreter's bytecode format, part of every ``p/`` key.
_PY_MAGIC = importlib.util.MAGIC_NUMBER

#: Flush cadence: pending blobs are written as a pack (and the budget
#: walked) once they pass this many bytes or an eighth of the budget,
#: whichever is less, and when the run ends.
_EVICT_CHECK_BYTES = 4 * 1024 * 1024

#: Merge bound: a flush that finds more packs than this merges the
#: smallest ones.
_MAX_PACKS = 8

#: Names of the per-format trees under the root (``v1``, ``v2``, ...):
#: the only files the budget walk may evict.
_FORMAT_DIR = re.compile(r"v[0-9]+")

#: Pack header: magic, SHA-256 of the index, index length.
_HEAD = struct.Struct("<4s32sQ")
#: One ``t/`` index record: blob offset and length, number of guest
#: ranges, record kind and the ranges' SHA-256; the ranges follow as
#: ``_RANGE`` pairs.
_T_REC = struct.Struct("<QIHB32s")
_RANGE = struct.Struct("<II")
#: ``t/`` record kinds: a block's host code, or the phase 1-4 IR of a
#: block that no run promoted (core.codegen).
T_CODE, T_IR = 0, 1


class CacheStats:
    """Cumulative counters, reported as the ``cache`` stats section.
    Every field is numeric so fleet aggregation (``merge_stats``) sums
    them across workers.  ``quarantined`` counts packs; ``bytes_written``
    includes the packs merges wrote, ``merged_bytes`` counts those alone."""

    __slots__ = (
        "hits", "misses", "stores", "store_errors", "quarantined",
        "evictions", "evicted_bytes", "bytes_read", "bytes_written",
        "merges", "merged_bytes",
        "pygen_hits", "pygen_misses", "pygen_stores",
        "trace_hits", "trace_misses", "trace_stores",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Pack:
    """One pack's index and where its blobs are: the file at ``path``
    (open as ``fd``, data section at ``base``) or, for a run's pending
    entries, ``buf``."""

    __slots__ = ("path", "fd", "base", "buf", "t", "p", "x")

    def __init__(self, path: Optional[str] = None, index=None,
                 base: int = 0, fd: Optional[int] = None):
        self.path = path
        self.fd = fd
        self.base = base
        self.buf = bytearray() if path is None else None
        self.t, self.p, self.x = index if index is not None else ({}, {}, {})

    def put(self, ns: dict, key: bytes, blob: bytes) -> None:
        """Append a ``p/`` or ``x/`` *blob* (*ns* is ``self.p`` or
        ``self.x``) to a pack being built."""
        ns[key] = (len(self.buf), len(blob))
        self.buf += blob

    def put_t(self, ctx: bytes, addr: int, blob: bytes, ranges,
              guest_sha: bytes, kind: int) -> None:
        by_addr = self.t.setdefault(ctx, {})
        by_addr[addr] = by_addr.get(addr, b"") + _t_record(
            len(self.buf), len(blob), ranges, guest_sha, kind)
        self.buf += blob


def _seal(obj: object) -> bytes:
    payload = pickle.dumps(obj, protocol=_PICKLE_PROTO)
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def _payload(blob: bytes) -> bytes:
    """The pickled payload of a sealed *blob*; ValueError if damaged."""
    if (len(blob) < 36 or blob[:4] != _MAGIC
            or hashlib.sha256(blob[36:]).digest() != blob[4:36]):
        raise ValueError("bad magic or digest")
    return blob[36:]


def _unpickle(payload: bytes) -> object:
    """``pickle.loads`` with the cyclic GC paused: an IR record builds
    a few hundred small objects, and a collection they trigger walks the
    whole engine heap, which made a record's decode several times
    slower (EXPERIMENTS "Interpret first")."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(payload)
    finally:
        if paused:
            gc.enable()


def _t_record(off: int, length: int, ranges, guest_sha: bytes,
              kind: int) -> bytes:
    return (_T_REC.pack(off, length, len(ranges), kind, guest_sha)
            + b"".join(_RANGE.pack(s, n) for s, n in ranges))


def _t_records(packed: bytes) -> Iterator[tuple]:
    """Decode one address's packed ``t/`` records:
    ``(offset, length, ranges, guest SHA-256, kind)`` each."""
    at = 0
    while at < len(packed):
        off, length, n, kind, guest_sha = _T_REC.unpack_from(packed, at)
        at += _T_REC.size
        ranges = tuple(_RANGE.unpack_from(packed, at + 8 * i)
                       for i in range(n))
        at += 8 * n
        yield off, length, ranges, guest_sha, kind


def _parse_index(read: Callable[[int, int], bytes],
                 size: int) -> Tuple[tuple, int]:
    """The index and data offset of a *size*-byte pack whose bytes
    ``read(n, at)`` returns.  ValueError or struct.error if the header
    or index is damaged."""
    magic, digest, n = _HEAD.unpack(read(_HEAD.size, 0))
    base = _HEAD.size + n
    if magic != _PACK_MAGIC or base > size:
        raise ValueError("bad pack header")
    index = read(n, _HEAD.size)
    if hashlib.sha256(index).digest() != digest:
        raise ValueError("bad index digest")
    t, p, x = pickle.loads(index)
    if not all(isinstance(d, dict) for d in (t, p, x)):
        raise ValueError("bad index")
    return (t, p, x), base


class CodeCache:
    """One on-disk cache directory, shared by any number of processes."""

    def __init__(self, directory: str, *, max_mb: int = 256):
        self.root = os.path.abspath(directory)
        self.max_bytes = max(1, int(max_mb)) * 1024 * 1024
        self.stats = CacheStats()
        self.base = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")
        #: This run's stores, not yet written.
        self._pending = _Pack()
        self._flush_bytes = min(_EVICT_CHECK_BYTES, self.max_bytes // 8)
        #: The packs on disk, loaded at the first lookup after opening or
        #: after a flush (None until then).
        self._packs: Optional[List[_Pack]] = None
        self._seq = 0
        #: True once this cache has checked the ``VERSION`` header.
        self._header_checked = False
        os.makedirs(self.base, exist_ok=True)

    # -- header ----------------------------------------------------------------

    def _write_header(self) -> None:
        """Make ``VERSION`` name this format, once per cache, at its first
        pack write: a directory an older format used says so until then,
        and a cache that only reads writes nothing."""
        self._header_checked = True
        path = os.path.join(self.root, "VERSION")
        header = (f'{{"cache": "repro-codecache", '
                  f'"format": {CACHE_FORMAT_VERSION}}}\n').encode("ascii")
        try:
            with open(path, "rb") as f:
                if f.read() == header:
                    return
        except OSError:
            pass
        try:
            self._atomic_write(path, header)
        except OSError:
            pass

    # -- packs -----------------------------------------------------------------

    def _atomic_write(self, path: str, *chunks: bytes) -> None:
        self._seq += 1
        tmp = f"{path}.tmp.{os.getpid()}.{self._seq}"
        try:
            with open(tmp, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def _sources(self) -> List[_Pack]:
        """Where lookups search: this run's pending entries, then every
        pack on disk."""
        if self._packs is None:
            self._packs = []
            try:
                names = os.listdir(self.base)
            except OSError:
                names = []
            for name in names:
                if name.endswith(".pack"):
                    pack = self._open_pack(os.path.join(self.base, name))
                    if pack is not None:
                        self._packs.append(pack)
        return [self._pending, *self._packs]

    def _open_pack(self, path: str) -> Optional[_Pack]:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None  # merged or evicted since the listing: a miss
        try:
            index, base = _parse_index(lambda n, at: os.pread(fd, n, at),
                                       os.fstat(fd).st_size)
        except OSError:
            os.close(fd)
            return None
        except Exception:
            os.close(fd)
            self._quarantine_path(path)
            return None
        self.stats.bytes_read += base
        return _Pack(path, index, base, fd)

    def _read(self, pack: _Pack, off: int, length: int) -> Optional[object]:
        """The entry sealed at *off* in *pack*: None if the pack is gone
        (a plain miss) or damaged (quarantined)."""
        if pack.path is None:
            return _unpickle(_payload(bytes(pack.buf[off:off + length])))
        try:
            blob = os.pread(pack.fd, length, pack.base + off)
        except OSError:
            self._forget(pack)
            return None
        self.stats.bytes_read += len(blob)
        try:
            return _unpickle(_payload(blob))
        except Exception:
            self._quarantine(pack)
            return None

    def _forget(self, pack: _Pack) -> None:
        """Close *pack* and search it no more."""
        if pack in (self._packs or ()):
            self._packs.remove(pack)
            os.close(pack.fd)

    def _quarantine(self, pack: _Pack) -> None:
        """Set a damaged pack aside whole: none of its entries is read
        again."""
        self._forget(pack)
        if pack.path is not None:
            self._quarantine_path(pack.path)

    def _quarantine_path(self, path: str) -> None:
        self.stats.quarantined += 1
        qdir = os.path.join(self.base, "quarantine")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(
                qdir, f"{os.path.basename(path)}.{os.getpid()}.bad"))
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass

    def _sealed(self, obj: object) -> Optional[bytes]:
        try:
            return _seal(obj)
        except Exception:
            self.stats.store_errors += 1
            return None

    def _stored(self) -> None:
        """Count a store; flush once the pending blobs pass the
        threshold."""
        self.stats.stores += 1
        if len(self._pending.buf) >= self._flush_bytes:
            self.flush()

    def flush(self) -> None:
        """Write the pending entries as one pack, then enforce the budget
        and merge small packs (see the module docstring).  The packs this
        cache opened are closed; the next lookup reloads their indexes."""
        pending = self._pending
        if pending.buf:
            self._pending = _Pack()
            path = self._write_pack(pending)
            if path is not None:
                packs = self._enforce_budget(keep=path)
                if len(packs) > _MAX_PACKS:
                    self._merge(packs)
        for pack in self._packs or ():
            os.close(pack.fd)
        self._packs = None

    def _write_pack(self, pack: _Pack) -> Optional[str]:
        """Write the in-memory *pack* atomically; its path, or None on
        failure."""
        index = pickle.dumps((pack.t, pack.p, pack.x),
                             protocol=_PICKLE_PROTO)
        head = _HEAD.pack(_PACK_MAGIC, hashlib.sha256(index).digest(),
                          len(index))
        name = hashlib.sha256(head)
        name.update(index)
        name.update(pack.buf)
        path = os.path.join(self.base, f"{name.hexdigest()[:32]}.pack")
        try:
            os.makedirs(self.base, exist_ok=True)
            self._atomic_write(path, head, index, pack.buf)
        except OSError:
            self.stats.store_errors += 1
            return None
        if not self._header_checked:
            self._write_header()
        self.stats.bytes_written += len(head) + len(index) + len(pack.buf)
        return path

    def _merge(self, packs: List[Tuple[int, float, str]]) -> None:
        """Merge the smallest of *packs* ``(size, mtime, path)`` into one
        pack that keeps its newest input's mtime, then delete them."""
        packs = sorted(packs)
        take, total = 2, packs[0][0] + packs[1][0]
        while take < len(packs) and packs[take][0] <= 2 * total:
            total += packs[take][0]
            take += 1
        out = _Pack()
        seen_t = set()
        merged, newest = [], 0.0
        for _size, mtime, path in packs[:take]:
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError:
                continue  # merged or evicted by another process
            self.stats.bytes_read += len(raw)
            try:
                (pt, pp, px), base = _parse_index(
                    lambda n, at: raw[at:at + n], len(raw))

                def blob(rec):
                    b = raw[base + rec[0]:base + rec[0] + rec[1]]
                    _payload(b)  # verify before anything is copied
                    return b

                puts = ([(out.p, k, blob(r)) for k, r in pp.items()]
                        + [(out.x, k, blob(r)) for k, r in px.items()])
                t_puts = [(ctx, addr, blob(rec), *rec[2:])
                          for ctx, by_addr in pt.items()
                          for addr, packed in by_addr.items()
                          for rec in _t_records(packed)]
            except Exception:
                self._quarantine_path(path)
                continue
            for ns, key, b in puts:
                if key not in ns:
                    out.put(ns, key, b)
            for ctx, addr, b, ranges, guest_sha, kind in t_puts:
                if (ctx, addr, ranges, guest_sha, kind) not in seen_t:
                    seen_t.add((ctx, addr, ranges, guest_sha, kind))
                    out.put_t(ctx, addr, b, ranges, guest_sha, kind)
            merged.append(path)
            newest = max(newest, mtime)
        if len(merged) < 2:
            return
        written = self.stats.bytes_written
        out_path = self._write_pack(out)
        if out_path is None:
            return
        self.stats.merges += 1
        self.stats.merged_bytes += self.stats.bytes_written - written
        try:
            os.utime(out_path, (newest, newest))
        except OSError:
            pass
        for path in merged:
            if path != out_path:
                try:
                    os.remove(path)
                except OSError:
                    pass

    # -- translations (t/) ------------------------------------------------------

    def lookup_translation(
        self, ctx: bytes, addr: int,
        fetch: Callable[[int, int], bytes],
    ) -> Optional[dict]:
        """Return a verified entry dict for *addr*, or None.

        Verification re-fetches the guest bytes over the entry's stored
        ranges and compares digests — so a hit can never disagree with
        what a cold translation of the current memory image would have
        seen.  The index holds both, so only a matching entry is read.
        The bytes themselves come back as ``guest``: the translator
        takes the SMC CRC of them, and the memory tier keeps them to
        verify its own hits.

        The entry holds ``code`` (host code) or ``ir`` (the phase 1-4 IR
        of a block no run promoted).  When the cache holds both kinds for
        the guest bytes, the host code wins.
        """
        ir_at = raw = None
        for pack in self._sources():
            packed = pack.t.get(ctx, {}).get(addr)
            if packed is None:
                continue
            for off, length, ranges, guest_sha, kind in _t_records(packed):
                if ir_at is not None:
                    # Only host code for the same guest bytes can still
                    # win, and the index alone tells.
                    if kind != T_CODE or (ranges, guest_sha) != ir_at[3:5]:
                        continue
                else:
                    try:
                        raw = b"".join(fetch(start, n) for start, n in ranges)
                    except Exception:
                        continue  # code pages gone or unreadable: a miss
                    if hashlib.sha256(raw).digest() != guest_sha:
                        continue  # stale (SMC / different program): a miss
                    if kind != T_CODE:
                        ir_at = (pack, off, length, ranges, guest_sha, kind)
                        continue
                obj = self._entry(pack, off, length, ranges, guest_sha, kind,
                                  addr)
                if obj is None:
                    break
                obj["guest"] = raw
                self.stats.hits += 1
                return obj
        if ir_at is not None:
            obj = self._entry(*ir_at, addr)
            if obj is not None:
                obj["guest"] = raw
                self.stats.hits += 1
                return obj
        self.stats.misses += 1
        return None

    def _entry(self, pack: _Pack, off: int, length: int, ranges,
               guest_sha: bytes, kind: int, addr: int) -> Optional[dict]:
        """The ``t/`` entry a verified index record points at; None (its
        pack quarantined or gone) if it cannot be read or does not match
        its record."""
        obj = self._read(pack, off, length)
        if obj is None:
            return None
        try:
            if (obj["format"] != CACHE_FORMAT_VERSION
                    or obj["addr"] != addr
                    or obj["ranges"] != ranges
                    or obj["guest_sha"] != guest_sha
                    or not (isinstance(obj.get("code"), bytes)
                            if kind == T_CODE else
                            isinstance(obj.get("ir"), IRSB))):
                raise ValueError("entry does not match its index")
        except Exception:
            self._quarantine(pack)
            return None
        return obj

    def store_translation(
        self, ctx: bytes, addr: int,
        fetch: Callable[[int, int], bytes],
        *, code: Optional[bytes] = None, ir: object = None,
        ranges: Tuple[Tuple[int, int], ...], stats: object,
        guest: Optional[bytes] = None,
    ) -> bool:
        """Store one translation: its host code (or, for a block no run
        promoted, its phase 1-4 *ir*), ranges and stats.  *guest*: the
        guest bytes over *ranges* it was made from, fetched if None."""
        if guest is None:
            try:
                guest = b"".join(fetch(start, length)
                                 for start, length in ranges)
            except Exception:
                return False
        ranges = tuple((int(s), int(n)) for s, n in ranges)
        guest_sha = hashlib.sha256(guest).digest()
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "addr": addr,
            "ranges": ranges,
            "guest_sha": guest_sha,
            "stats": stats,
        }
        if code is not None:
            entry["code"], kind = code, T_CODE
        else:
            entry["ir"], kind = ir, T_IR
        blob = self._sealed(entry)
        if blob is None:
            return False
        self._pending.put_t(ctx, addr, blob, ranges, guest_sha, kind)
        self._stored()
        return True

    # -- pygen payloads (p/) ---------------------------------------------------

    def _p_key(self, code: bytes, emit_version: int, variant: int) -> bytes:
        return hashlib.sha256(
            b"pygen:%d:%d:" % (emit_version, variant) + _PY_MAGIC + b":"
            + code
        ).digest()[:16]

    def load_pygen(
        self, code: bytes, fastpath: bool = False
    ) -> Optional[Tuple[str, tuple, types.CodeType]]:
        """Return ``(src, spec, code object)`` for *code*, decoded from
        the store.  The *fastpath* emission variant (inlined Memcheck
        shadow accesses, see backend.pygen) keys a distinct payload."""
        from ..backend import pygen as _pygen

        key = self._p_key(code, _pygen.PYGEN_EMIT_VERSION,
                          1 if fastpath else 0)
        for pack in self._sources():
            at = pack.p.get(key)
            if at is None:
                continue
            obj = self._read(pack, *at)
            if obj is None:
                continue
            try:
                src, enc, blob = obj
                spec = _pygen.decode_spec(enc)
                if not isinstance(src, str):
                    raise ValueError("source is not a string")
                pycode = marshal.loads(blob)
                if not isinstance(pycode, types.CodeType):
                    raise ValueError("bytecode is not a code object")
            except Exception:
                self._quarantine(pack)
                continue
            self.stats.pygen_hits += 1
            return src, spec, pycode
        self.stats.pygen_misses += 1
        return None

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
        blob = self._sealed((src, enc, marshal.dumps(pycode)))
        if blob is None:
            return False
        self._pending.put(self._pending.p, self._p_key(
            code, _pygen.PYGEN_EMIT_VERSION, 1 if fastpath else 0), blob)
        self.stats.pygen_stores += 1
        self._stored()
        return True

    # -- trace build results (x/) ----------------------------------------------

    def _x_key(self, key: bytes) -> bytes:
        return hashlib.sha256(b"trace:%d:" % CACHE_FORMAT_VERSION
                              + key).digest()[:16]

    def load_trace(
        self, key: bytes,
    ) -> Optional[Tuple[Optional[bytes], int, int]]:
        """Return the stored build outcome ``(code, members used, guest
        insns)`` for build *key*; code None: unspliceable."""
        xkey = self._x_key(key)
        for pack in self._sources():
            at = pack.x.get(xkey)
            if at is None:
                continue
            obj = self._read(pack, *at)
            if obj is None:
                continue
            try:
                code, n_members, total_insns = obj
                if not all(isinstance(n, int)
                           for n in (n_members, total_insns)):
                    raise ValueError("bad trace entry")
                if code is None:
                    if n_members or total_insns:
                        raise ValueError("bad unspliceable entry")
                elif not (isinstance(code, bytes) and n_members >= 2
                          and total_insns >= 1):
                    raise ValueError("bad trace entry")
            except Exception:
                self._quarantine(pack)
                continue
            self.stats.trace_hits += 1
            return code, n_members, total_insns
        self.stats.trace_misses += 1
        return None

    def store_trace(self, key: bytes, code: Optional[bytes], n_members: int,
                    total_insns: int) -> bool:
        blob = self._sealed((code, int(n_members), int(total_insns)))
        if blob is None:
            return False
        self._pending.put(self._pending.x, self._x_key(key), blob)
        self.stats.trace_stores += 1
        self._stored()
        return True

    # -- size budget ------------------------------------------------------------

    def _enforce_budget(
        self, keep: Optional[str] = None,
    ) -> List[Tuple[int, float, str]]:
        """Walk every ``v<N>/`` tree under the root (any format version,
        quarantine and stray temp files included) and evict past the byte
        budget: files outside this format's pack directory first, then
        the oldest, never *keep*.  Returns this format's packs that
        remain, as ``(size, mtime, path)``."""
        files = []
        total = 0
        try:
            tops = [name for name in os.listdir(self.root)
                    if _FORMAT_DIR.fullmatch(name)]
        except OSError:
            tops = []
        for top in tops:
            for dirpath, _dirnames, filenames in os.walk(
                    os.path.join(self.root, top)):
                live = dirpath == self.base
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    files.append((live, st.st_mtime, st.st_size, path))
                    total += st.st_size
        gone = set()
        if total > self.max_bytes:
            files.sort()
            for live, _mtime, size, path in files:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                try:
                    os.remove(path)
                except OSError:
                    continue
                gone.add(path)
                total -= size
                self.stats.evictions += 1
                self.stats.evicted_bytes += size
            # Emptied directories of other formats' trees go with them.
            for top in tops:
                top = os.path.join(self.root, top)
                if top != self.base:
                    for dirpath, _dirnames, _files in os.walk(
                            top, topdown=False):
                        try:
                            os.rmdir(dirpath)
                        except OSError:
                            pass
        return [(size, mtime, path) for live, mtime, size, path in files
                if live and path.endswith(".pack") and path not in gone]

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
