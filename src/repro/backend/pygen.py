"""The pygen codegen tier: one specialized CPython function per block.

The paper's back-end wins (Section 3) come from emitting *real host
code* into the code cache; our host is the CPython VM, so the closest
faithful analogue is to emit Python *source* for each register-allocated
block, ``compile()`` it once to CPython bytecode, and execute that.
This is the top tier of the codegen pipeline (see
:mod:`repro.core.codegen`), above the per-insn closure lists.

What the emitted function does differently from the closure tier
(:meth:`repro.backend.hostcpu.HostCPU.compile`):

* **Instructions are inlined**: one generated function per block runs
  every host instruction as straight-line Python, with the hot integer
  ops inlined as expressions (:data:`OP_INLINE`), instead of one closure
  call per instruction.
* **Registers are locals** (``i0..i7``, ``f0..``, ``v0..``), not
  ``_ir[n]`` list cells: every operand access is a LOAD_FAST/STORE_FAST.
* **Spill slots are locals** (``s0..``): SPILL/RELOAD never touch the
  ThreadState spill area (nothing else reads it — helpers and the
  fault-replay engine only see architected offsets).
* **Guest-state writeback is batched**: STG/SETPC pend into per-offset
  temps (``g{off}_{size}``) and are flushed at block exits, before
  dirty helper calls (which may read/write the state out-of-band), and
  — for shadow offsets ≥ GUEST_STATE_SIZE only — before potential
  fault points (loads/stores, div/mod), because precise-fault recovery
  replays *architected* state from the block-entry snapshot but keeps
  the shadow state the partial run committed.  Flushing early is always
  legal: a pending value is exactly what the closure tier would already
  have stored at that point.
* **LDG reads are forwarded** from pending/loaded values of the same
  offset, size and decode class, so e.g. repeated CC-thunk reads hit a
  local.  F32 slots are excluded (the 4-byte round-trip narrows
  doubles); F32 STG/LDG write/read through, and F32 SPILLs apply the
  same rounding the closure tier's round-trip would.
* **Helper CALLs are emitted inline** without the closure tier's
  register-file save/restore: host "registers" live in function locals
  a helper cannot observe, and the CALL_SAVE frame area has no readers.

``host_insns`` accounting and the returned ``(jump-kind, guest_insns)``
exits are identical to :meth:`repro.backend.hostcpu.HostCPU.run`, so the
tiers are interchangeable mid-run.
"""

from __future__ import annotations

import struct
import sys
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..guest.regs import GUEST_STATE_SIZE, OFFSET_PC
from ..ir.ops import get_op
from ..ir.types import Ty
from ..kernel.memory import PROT_READ, PROT_WRITE
from .isel import MC_LOADV_SIZES, MC_NO_STATE_WRITE, MC_STOREV_SIZES
from .hostisa import (
    BIN,
    CALL,
    CSEL,
    HInsn,
    LDG,
    LDM,
    LI,
    LIF,
    MOVR,
    RC,
    RELOAD,
    RET,
    Reg,
    SETPCI,
    SETPCR,
    SIDEEXIT,
    SIDEEXITR,
    SPILL,
    STG,
    STM,
    Slot,
    TRACEMARK,
    UN,
)

#: Emission format version, part of the persistent code cache's pygen
#: payload key (core.codecache): bump on any change to emit_pygen output
#: or the spec entry shapes.
PYGEN_EMIT_VERSION = 2

#: Process-wide pygen source -> code object cache.
_PYGEN_SRC_CACHE: Dict[str, object] = {}

#: Process-wide encoded host code -> (source, env spec) cache.  Decode +
#: emission dominate compile_pygen; both are pure functions of the code
#: bytes, so fresh runs (benchmarks, fleets, replay) reuse the text and
#: only re-bind per-run objects.  An LRU with both an entry cap and a
#: byte budget (the same budget plumbing as the on-disk cache, set from
#: --cache-max-mb via set_emit_cache_budget); content addressing means
#: entries never go stale, so eviction is purely a memory bound.
_PYGEN_EMIT_CACHE: "OrderedDict[bytes, Tuple[str, tuple]]" = OrderedDict()
_PYGEN_EMIT_CACHE_MAX = 8192
_EMIT_CACHE_BUDGET = 64 * 1024 * 1024
_EMIT_CACHE_BYTES = 0
_EMIT_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0,
                     "evicted_bytes": 0}


def _emit_entry_bytes(code: bytes, hit: Tuple[str, tuple]) -> int:
    return len(code) + len(hit[0]) + 64 * len(hit[1]) + 128


def set_emit_cache_budget(n_bytes: int) -> None:
    """Bound the in-process emit cache (LRU eviction past the budget)."""
    global _EMIT_CACHE_BUDGET
    _EMIT_CACHE_BUDGET = max(1, int(n_bytes))
    _emit_cache_trim()


def _emit_cache_trim() -> None:
    global _EMIT_CACHE_BYTES
    while _PYGEN_EMIT_CACHE and (
            _EMIT_CACHE_BYTES > _EMIT_CACHE_BUDGET
            or len(_PYGEN_EMIT_CACHE) > _PYGEN_EMIT_CACHE_MAX):
        old_code, old_hit = _PYGEN_EMIT_CACHE.popitem(last=False)
        n = _emit_entry_bytes(old_code, old_hit)
        _EMIT_CACHE_BYTES -= n
        _EMIT_CACHE_STATS["evictions"] += 1
        _EMIT_CACHE_STATS["evicted_bytes"] += n


def _emit_cache_put(code: bytes, hit: Tuple[str, tuple]) -> None:
    global _EMIT_CACHE_BYTES
    if code in _PYGEN_EMIT_CACHE:
        return
    _PYGEN_EMIT_CACHE[code] = hit
    _EMIT_CACHE_BYTES += _emit_entry_bytes(code, hit)
    _emit_cache_trim()


def clear_emit_cache() -> None:
    """Drop every emit-cache entry (keeps the cumulative counters).
    Clearing through here keeps the byte accounting in sync — never
    ``_PYGEN_EMIT_CACHE.clear()`` directly."""
    global _EMIT_CACHE_BYTES
    _PYGEN_EMIT_CACHE.clear()
    _EMIT_CACHE_BYTES = 0


def emit_cache_stats() -> dict:
    """Emit-cache counters for the --stats=json codegen section."""
    return {
        **_EMIT_CACHE_STATS,
        "entries": len(_PYGEN_EMIT_CACHE),
        "bytes": _EMIT_CACHE_BYTES,
    }

#: Per-run env names always bound by bind_pygen, in emission order —
#: emit_pygen seeds them as placeholders so generated names (``_k5``…)
#: stay stable.
_ENV_HEAD = ("_cpu", "_ifb", "_pg", "_ld", "_st")

_M32 = 0xFFFFFFFF
_RC_PREFIX = {RC.INT: "i", RC.FLT: "f", RC.VEC: "v"}

#: On a little-endian host, a ThreadState's ``u32`` memoryview reads and
#: writes aligned 4-byte guest-state slots with one index operation.
_LE = sys.byteorder == "little"

#: Bound struct codecs for F64/F32 guest-state slots — byte-for-byte the
#: same encoding as :func:`repro.ir.values.to_bytes` / ``from_bytes``,
#: minus the per-access type dispatch.
_F64_PACK_INTO = struct.Struct("<d").pack_into
_F64_UNPACK_FROM = struct.Struct("<d").unpack_from
_F32_PACK_INTO = struct.Struct("<f").pack_into
_F32_UNPACK_FROM = struct.Struct("<f").unpack_from


def _build_op_inline() -> Dict[str, str]:
    """Expression templates for the hot integer ops ({a}/{b} placeholders).

    Register values are kept masked-unsigned by every op, so templates can
    rely on inputs already fitting their width.  Ops without an entry
    (Sar, div/mod, FP, SIMD, ...) fall back to calling the registered
    semantic function.  ``tests/test_perf_mode.py`` cross-checks every
    template against its :mod:`repro.ir.ops` function.
    """
    e: Dict[str, str] = {}
    for w in (8, 16, 32, 64):
        m = (1 << w) - 1
        sb = 1 << (w - 1)
        sext_a = f"({{a}} - (({{a}} & {sb}) << 1))"
        sext_b = f"({{b}} - (({{b}} & {sb}) << 1))"
        e[f"Add{w}"] = f"(({{a}} + {{b}}) & {m})"
        e[f"Sub{w}"] = f"(({{a}} - {{b}}) & {m})"
        e[f"Mul{w}"] = f"(({{a}} * {{b}}) & {m})"
        e[f"And{w}"] = "({a} & {b})"
        e[f"Or{w}"] = "({a} | {b})"
        e[f"Xor{w}"] = "({a} ^ {b})"
        e[f"Shl{w}"] = f"((({{a}} << {{b}}) & {m}) if {{b}} < {w} else 0)"
        e[f"Shr{w}"] = "({a} >> {b})"
        e[f"Not{w}"] = f"({{a}} ^ {m})"
        e[f"Neg{w}"] = f"(-{{a}} & {m})"
        e[f"CmpEQ{w}"] = "(1 if {a} == {b} else 0)"
        e[f"CmpNE{w}"] = "(1 if {a} != {b} else 0)"
        e[f"CmpLT{w}U"] = "(1 if {a} < {b} else 0)"
        e[f"CmpLE{w}U"] = "(1 if {a} <= {b} else 0)"
        e[f"CmpLT{w}S"] = f"(1 if {sext_a} < {sext_b} else 0)"
        e[f"CmpLE{w}S"] = f"(1 if {sext_a} <= {sext_b} else 0)"
        e[f"CmpNEZ{w}"] = "(1 if {a} else 0)"
        e[f"CmpEQZ{w}"] = "(0 if {a} else 1)"
    e["And1"] = "({a} & {b})"
    e["Or1"] = "({a} | {b})"
    e["Xor1"] = "({a} ^ {b})"
    e["Not1"] = "({a} ^ 1)"
    for s in (8, 16, 32):
        for d in (16, 32, 64):
            if d > s:
                sb = 1 << (s - 1)
                e[f"{s}Uto{d}"] = "{a}"
                e[f"{s}Sto{d}"] = (
                    f"(({{a}} - (({{a}} & {sb}) << 1)) & {(1 << d) - 1})"
                )
    for s in (16, 32, 64):
        for d in (1, 8, 16, 32):
            if d < s:
                e[f"{s}to{d}"] = f"({{a}} & {(1 << d) - 1})"
    e["1Uto8"] = e["1Uto32"] = e["1Uto64"] = "{a}"
    for d in (8, 16, 32, 64):
        e[f"1Sto{d}"] = f"({(1 << d) - 1} if {{a}} else 0)"
    e["64HIto32"] = "({a} >> 32)"
    e["32HIto16"] = "({a} >> 16)"
    e["16HIto8"] = "({a} >> 8)"
    e["32HLto64"] = "(({a} << 32) | {b})"
    e["16HLto32"] = "(({a} << 16) | {b})"
    e["8HLto16"] = "(({a} << 8) | {b})"
    return e


#: Op name -> inline integer expression template used by the emitter.
OP_INLINE: Dict[str, str] = _build_op_inline()


#: FP expression templates beyond the integer OP_INLINE table.
#: Each must be semantically identical to its repro.ir.ops function:
#: AddF64/SubF64/MulF64 are raw IEEE double ops, CmpF64/CmpF32 encode
#: Valgrind's IRCmpF64Result (UN=0x45, LT=0x01, GT=0x00, EQ=0x40) with
#: ``x != x`` as the NaN test, F32toF64 is the identity, and I32StoF64
#: sign-extends then converts.  DivF64 stays a call (IEEE inf/nan edge
#: cases live in _fp_div).
_FP_INLINE: Dict[str, str] = {
    "AddF64": "({a} + {b})",
    "SubF64": "({a} - {b})",
    "MulF64": "({a} * {b})",
    "NegF64": "(-{a})",
    "CmpF64": "(69 if ({a} != {a} or {b} != {b}) else"
              " (1 if {a} < {b} else (0 if {a} > {b} else 64)))",
    "CmpF32": "(69 if ({a} != {a} or {b} != {b}) else"
              " (1 if {a} < {b} else (0 if {a} > {b} else 64)))",
    "F32toF64": "{a}",
    "I32StoF64": "float({a} - (({a} & 2147483648) << 1))",
}

_OP_INLINE_ALL: Dict[str, str] = {**OP_INLINE, **_FP_INLINE}


def _f32_round(v: float) -> float:
    """The closure tier's F32 store/reload round-trip, as a function."""
    return struct.unpack("<f", struct.pack("<f", v))[0]


def _reg(r: Reg) -> str:
    return f"{_RC_PREFIX[r.rc]}{r.n}"


def _slot(n: int) -> str:
    return f"s{n}"


def _insn_io(insn: HInsn) -> Tuple[List[str], List[str]]:
    """(local names read, local names defined) by one instruction."""
    if isinstance(insn, (LI, LIF)):
        return [], [_reg(insn.dst)]
    if isinstance(insn, MOVR):
        return [_reg(insn.src)], [_reg(insn.dst)]
    if isinstance(insn, BIN):
        return [_reg(insn.src1), _reg(insn.src2)], [_reg(insn.dst)]
    if isinstance(insn, UN):
        return [_reg(insn.src)], [_reg(insn.dst)]
    if isinstance(insn, LDG):
        return [], [_reg(insn.dst)]
    if isinstance(insn, STG):
        return [_reg(insn.src)], []
    if isinstance(insn, LDM):
        return [_reg(insn.addr)], [_reg(insn.dst)]
    if isinstance(insn, STM):
        return [_reg(insn.addr), _reg(insn.src)], []
    if isinstance(insn, CSEL):
        return (
            [_reg(insn.cond), _reg(insn.a), _reg(insn.b)],
            [_reg(insn.dst)],
        )
    if isinstance(insn, CALL):
        reads: List[str] = []
        for a in insn.args:
            if isinstance(a, Reg):
                reads.append(_reg(a))
            elif isinstance(a, Slot):
                reads.append(_slot(a.n))
        if insn.guard is not None:
            reads.append(_reg(insn.guard))
            if insn.dst is not None:
                # A guarded call's destination must already be bound if
                # the guard is false: count it as a read so the def-scan
                # pre-initializes it.
                reads.append(_reg(insn.dst))
        defs = [_reg(insn.dst)] if insn.dst is not None else []
        return reads, defs
    if isinstance(insn, SIDEEXIT):
        return [_reg(insn.cond)], []
    if isinstance(insn, SIDEEXITR):
        return [_reg(insn.cond), _reg(insn.src)], []
    if isinstance(insn, SETPCR):
        return [_reg(insn.src)], []
    if isinstance(insn, SPILL):
        return [_reg(insn.src)], [_slot(insn.slot)]
    if isinstance(insn, RELOAD):
        return [_slot(insn.slot)], [_reg(insn.dst)]
    # SETPCI, RET, TRACEMARK
    return [], []


def _is_fault_point(insn: HInsn) -> bool:
    """Can executing *insn* raise a recoverable guest fault?"""
    if isinstance(insn, (LDM, STM)):
        return True
    if isinstance(insn, (BIN, UN)):
        op = insn.op
        if op.endswith(("F64", "F32")):
            # FP div follows IEEE semantics (inf/nan), never raises.
            return False
        return "Div" in op or "Mod" in op
    return False


def build_pygen_runner(cpu, insns: Sequence[HInsn]) -> Callable:
    """Emit + compile one specialized function for a decoded block.

    Returns ``runner(ts) -> (jump-kind, guest_insns)``, semantically
    identical to ``cpu.run(cpu.compile(code), ts)``.
    """
    src, spec = emit_pygen(
        insns, fastpath=bool(getattr(cpu, "shadow_fastpath", False))
    )
    return bind_pygen(cpu, src, spec)


def emit_pygen(insns: Sequence[HInsn], fastpath: bool = False) -> Tuple[str, tuple]:
    """Emit the specialized source for a decoded block — no cpu needed.

    Returns ``(src, spec)`` where *spec* lists how to rebuild the env a
    fresh run must close the function over: ``("const", name, value)``
    entries are run-independent objects bound during emission (operator
    functions, exit tuples, Ty values, float literals); ``("helper",
    name, helper_name)`` and ``("attr", name, cpu_attr)`` entries name
    per-run objects :func:`bind_pygen` resolves against its cpu.
    Emission is deterministic in *(insns, fastpath)*, which makes
    (src, spec) cacheable process-wide by the encoded code bytes (plus
    the fastpath variant bit).

    With *fastpath* set, dirty CALLs to Memcheck's 1/2/4-byte
    LOADV/STOREV helpers are emitted as inline shadow accesses: one
    probe of the bound shadow-page dict (``_vsg``/``_vsw``, resolved to
    the tool's all-addressable page maps via ``cpu.shadow_rd_get`` /
    ``cpu.shadow_wr_get``), a V-byte slice read/write, and a guarded
    slow-path helper call only on page-miss/page-cross.  The fast hit
    cannot report an error (its pages are fully addressable by map
    invariant) and never mutates A bits or page states, so tool output
    is byte-identical to the helper-only emission; ``_shc``
    (``cpu.shadow_counters``) counts fast/slow hits for --stats=json.
    """
    env: Dict[str, object] = dict.fromkeys(_ENV_HEAD)
    spec: List[tuple] = []
    _cache: Dict[object, str] = {}

    def bind(val: object, key: object = None) -> str:
        if key is not None and key in _cache:
            return _cache[key]
        name = f"_k{len(env)}"
        env[name] = val
        spec.append(("const", name, val))
        if key is not None:
            _cache[key] = name
        return name

    def bind_helper(hname: str) -> str:
        key = ("helper", hname)
        if key in _cache:
            return _cache[key]
        name = f"_k{len(env)}"
        env[name] = None
        spec.append(("helper", name, hname))
        _cache[key] = name
        return name

    def need(name: str, attr: str) -> None:
        if name not in env:
            env[name] = None
            spec.append(("attr", name, attr))

    def lit(val: object) -> str:
        # Ints always repr round-trip; floats may be inf/nan — bind.
        return repr(val) if type(val) is int else bind(val)

    # -- def-before-use pre-scan ------------------------------------------------
    io = [_insn_io(insn) for insn in insns]
    defined: set = set()
    preinit: List[str] = []
    last_def: Dict[str, int] = {}
    for idx, (reads, defs) in enumerate(io):
        for name in reads:
            if name not in defined and name not in preinit:
                preinit.append(name)
        defined.update(defs)
        for name in defs:
            last_def[name] = idx

    body: List[str] = ["_cpu.ts = ts", "_d = ts.data"]
    flags = {"m": False}

    def emit(line: str, depth: int = 0) -> None:
        body.append("    " * depth + line)

    def m_slot(off: int) -> str:
        flags["m"] = True
        return f"_m[{off >> 2}]"

    for name in preinit:
        if name[0] == "i":
            need("_ir", "ir")
            emit(f"{name} = _ir[{name[1:]}]")
        elif name[0] == "f":
            need("_fr", "fr")
            emit(f"{name} = _fr[{name[1:]}]")
        elif name[0] == "v":
            need("_vr", "vr")
            emit(f"{name} = _vr[{name[1:]}]")
        else:  # spill slot read before any SPILL (regalloc never does this)
            emit(f"{name} = 0")

    # -- pending guest-state writes --------------------------------------------
    # off -> (size, value, ty, dirty); value is a local/expression string,
    # or a compile-time int constant (SETPCI).  dirty entries need a
    # writeback; clean entries only forward LDG reads.
    known: Dict[int, Tuple[int, object, Ty, bool]] = {}

    def writeback(off: int, entry, depth: int = 0) -> None:
        size, val, ty, _ = entry
        if ty.is_int and size == 4 and _LE and not off % 4:
            emit(f"{m_slot(off)} = {val}", depth)
        elif isinstance(val, int):
            emit(f"_d[{off}:{off + size}] = {val.to_bytes(size, 'little')!r}",
                 depth)
        elif ty.is_int:
            emit(f"_d[{off}:{off + size}] = {val}.to_bytes({size}, 'little')",
                 depth)
        elif ty is Ty.F64:
            emit(f"{bind(_F64_PACK_INTO, key='pf64')}(_d, {off}, {val})", depth)
        else:
            emit(f"ts.put({off}, {bind(ty, key=ty)}, {val})", depth)

    def invalidate_overlap(off: int, size: int) -> None:
        """Flush+drop every entry overlapping [off, off+size) except an
        exact (off, size) match (the caller replaces or reuses that)."""
        for o in list(known):
            e = known[o]
            if o == off and e[0] == size:
                continue
            if o < off + size and off < o + e[0]:
                del known[o]
                if e[3]:
                    writeback(o, e)

    def on_def(name: str) -> None:
        """A local is about to be redefined: entries valued by it can no
        longer forward (dirty ones cannot exist — STG only skips the
        snapshot temp when the source has no later definition)."""
        for o in list(known):
            e = known[o]
            if e[1] == name:
                del known[o]
                if e[3]:  # defensive: value is still live on this line
                    writeback(o, e)

    def flush_dirty(shadow_only: bool = False, depth: int = 0,
                    keep_pending: bool = False, skip_pc: bool = False) -> None:
        """Write back pending entries (sorted for determinism).

        *keep_pending* emits the writebacks without marking entries clean
        — used inside a conditional side exit, where the fall-through
        path has not actually stored anything yet.
        """
        for o in sorted(known):
            e = known[o]
            if not e[3]:
                continue
            if shadow_only and o < GUEST_STATE_SIZE:
                continue
            if skip_pc and o == OFFSET_PC and e[0] == 4:
                continue
            writeback(o, e, depth)
            if not keep_pending:
                known[o] = (e[0], e[1], e[2], False)

    def forwardable(entry, ty: Ty) -> bool:
        size, _, ety, _ = entry
        return size == ty.size and (ety is ty or (ety.is_int and ty.is_int))

    files = {RC.INT: "i", RC.FLT: "f", RC.VEC: "v"}

    PO, PO4 = OFFSET_PC, OFFSET_PC + 4
    done = False
    for i, insn in enumerate(insns):
        reads, defs = io[i]
        if _is_fault_point(insn):
            # Recovery replays architected state from the entry snapshot,
            # but shadow state keeps what the partial run committed: make
            # the committed shadow state match the closure tier's.
            flush_dirty(shadow_only=True)
        for name in defs:
            on_def(name)
        if isinstance(insn, (LI, LIF)):
            emit(f"{_reg(insn.dst)} = {lit(insn.imm)}")
        elif isinstance(insn, MOVR):
            emit(f"{_reg(insn.dst)} = {_reg(insn.src)}")
        elif isinstance(insn, BIN):
            tmpl = _OP_INLINE_ALL.get(insn.op)
            if tmpl is not None:
                expr = tmpl.format(a=_reg(insn.src1), b=_reg(insn.src2))
            else:
                op = bind(get_op(insn.op).fn, key=("op", insn.op))
                expr = f"{op}({_reg(insn.src1)}, {_reg(insn.src2)})"
            emit(f"{_reg(insn.dst)} = {expr}")
        elif isinstance(insn, UN):
            tmpl = _OP_INLINE_ALL.get(insn.op)
            if tmpl is not None:
                expr = tmpl.format(a=_reg(insn.src))
            else:
                op = bind(get_op(insn.op).fn, key=("op", insn.op))
                expr = f"{op}({_reg(insn.src)})"
            emit(f"{_reg(insn.dst)} = {expr}")
        elif isinstance(insn, LDG):
            off, ty = insn.off, insn.ty
            dst = _reg(insn.dst)
            entry = known.get(off)
            if entry is not None and forwardable(entry, ty):
                emit(f"{dst} = {entry[1]}")
            else:
                invalidate_overlap(off, ty.size)
                entry = known.get(off)  # exact-size, incompatible decode
                if entry is not None:
                    if entry[3]:
                        writeback(off, entry)
                    del known[off]
                if ty is Ty.F32:
                    emit(f"{dst} = "
                         f"{bind(_F32_UNPACK_FROM, key='uf32')}(_d, {off})[0]")
                else:
                    g = f"g{off}_{ty.size}"
                    if ty.is_int and ty.size == 4 and _LE and not off % 4:
                        emit(f"{dst} = {g} = {m_slot(off)}")
                    elif ty.is_int:
                        emit(f"{dst} = {g} = "
                             f"_ifb(_d[{off}:{off + ty.size}], 'little')")
                    elif ty is Ty.F64:
                        emit(f"{dst} = {g} = "
                             f"{bind(_F64_UNPACK_FROM, key='uf64')}(_d, {off})[0]")
                    else:
                        emit(f"{dst} = {g} = ts.get({off}, {bind(ty, key=ty)})")
                    known[off] = (ty.size, g, ty, False)
        elif isinstance(insn, STG):
            off, ty = insn.off, insn.ty
            src = _reg(insn.src)
            if ty is Ty.F32:
                invalidate_overlap(off, ty.size)
                known.pop(off, None)
                emit(f"{bind(_F32_PACK_INTO, key='pf32')}(_d, {off}, {src})")
            else:
                invalidate_overlap(off, ty.size)
                if last_def.get(src, -1) > i:
                    # The source register is redefined later: snapshot the
                    # pending value so the flush sees today's value.
                    g = f"g{off}_{ty.size}"
                    emit(f"{g} = {src}")
                    known[off] = (ty.size, g, ty, True)
                else:
                    known[off] = (ty.size, src, ty, True)
        elif isinstance(insn, LDM):
            ty, dst, addr = insn.ty, _reg(insn.dst), _reg(insn.addr)
            tyn = bind(ty, key=ty)
            if ty.is_int and ty.size <= 8:
                size = ty.size
                emit(f"_a = {addr} & 4294967295")
                emit(f"_o = _a & 4095")
                emit(f"_p = _pg(_a >> 12) if _o <= {4096 - size} else None")
                emit(f"if _p is not None and _p[1] & {PROT_READ}:")
                emit(f"{dst} = _ifb(_p[0][_o:_o + {size}], 'little')", 1)
                emit("else:")
                emit(f"{dst} = _ld(_a, {tyn})", 1)
            elif ty is Ty.F64 or ty is Ty.F32:
                unpack = bind(
                    _F64_UNPACK_FROM if ty is Ty.F64 else _F32_UNPACK_FROM,
                    key="uf64" if ty is Ty.F64 else "uf32",
                )
                size = ty.size
                emit(f"_a = {addr} & 4294967295")
                emit(f"_o = _a & 4095")
                emit(f"_p = _pg(_a >> 12) if _o <= {4096 - size} else None")
                emit(f"if _p is not None and _p[1] & {PROT_READ}:")
                emit(f"{dst} = {unpack}(_p[0], _o)[0]", 1)
                emit("else:")
                emit(f"{dst} = _ld(_a, {tyn})", 1)
            else:
                emit(f"{dst} = _ld({addr} & 4294967295, {tyn})")
        elif isinstance(insn, STM):
            ty, src, addr = insn.ty, _reg(insn.src), _reg(insn.addr)
            tyn = bind(ty, key=ty)
            if ty.is_int and ty.size <= 8:
                size = ty.size
                emit(f"_a = {addr} & 4294967295")
                emit(f"_o = _a & 4095")
                emit(f"_p = _pg(_a >> 12) if _o <= {4096 - size} else None")
                emit(f"if _p is not None and _p[1] & {PROT_WRITE}:")
                emit(f"_p[0][_o:_o + {size}] = {src}.to_bytes({size}, 'little')",
                     1)
                emit("else:")
                emit(f"_st(_a, {tyn}, {src})", 1)
            elif ty is Ty.F64 or ty is Ty.F32:
                pack = bind(
                    _F64_PACK_INTO if ty is Ty.F64 else _F32_PACK_INTO,
                    key="pf64" if ty is Ty.F64 else "pf32",
                )
                size = ty.size
                emit(f"_a = {addr} & 4294967295")
                emit(f"_o = _a & 4095")
                emit(f"_p = _pg(_a >> 12) if _o <= {4096 - size} else None")
                emit(f"if _p is not None and _p[1] & {PROT_WRITE}:")
                emit(f"{pack}(_p[0], _o, {src})", 1)
                emit("else:")
                emit(f"_st(_a, {tyn}, {src})", 1)
            else:
                emit(f"_st({addr} & 4294967295, {tyn}, {src})")
        elif isinstance(insn, CSEL):
            emit(f"{_reg(insn.dst)} = {_reg(insn.a)} if {_reg(insn.cond)}"
                 f" else {_reg(insn.b)}")
        elif isinstance(insn, CALL):
            args = []
            for a in insn.args:
                if isinstance(a, Reg):
                    args.append(_reg(a))
                elif isinstance(a, Slot):
                    args.append(_slot(a.n))
                else:  # ImmArg
                    args.append(lit(a.value))
            mc_load = MC_LOADV_SIZES.get(insn.helper) if fastpath else None
            mc_store = MC_STOREV_SIZES.get(insn.helper) if fastpath else None
            fname = bind_helper(insn.helper)
            if (mc_load is not None and insn.dirty and insn.guard is None
                    and insn.dst is not None and len(args) == 1):
                # Inline LOADV: probe the read map for the (abits,
                # vbits) secondary, check the accessed range's A bits
                # inline, slice the V bytes.  Any unaddressable byte
                # (that is the error-reporting path) or page miss/cross
                # falls back to the helper; pending guest-state
                # writebacks flush only on the slow branch (the helper
                # may symbolise SP/PC for a report).
                need("_env", "env")
                need("_vsg", "shadow_rd_get")
                need("_shc", "shadow_counters")
                size, dst = mc_load, _reg(insn.dst)
                emit(f"_a = {args[0]} & 4294967295")
                emit("_o = _a & 4095")
                if size == 1:
                    emit("_sp = _vsg(_a >> 12)")
                    emit("if _sp is not None and _sp[0][_o]:")
                    emit(f"{dst} = _sp[1][_o]", 1)
                else:
                    emit(f"_sp = _vsg(_a >> 12) if _o <= {4096 - size}"
                         " else None")
                    emit(f"if _sp is not None and"
                         f" 0 not in _sp[0][_o:_o + {size}]:")
                    emit(f"{dst} = _ifb(_sp[1][_o:_o + {size}], 'little')",
                         1)
                emit("_shc[0] += 1", 1)
                emit("else:")
                emit("_shc[2] += 1", 1)
                flush_dirty(depth=1, keep_pending=True)
                emit(f"{dst} = {fname}(_env, _a)", 1)
            elif (mc_store is not None and insn.dirty and insn.guard is None
                    and insn.dst is None and len(args) == 2):
                # Inline STOREV: the write map only holds *private*
                # secondaries, so the slice write can never touch a
                # shared distinguished page — copy-on-write promotion
                # stays in the helper, keeping page-state stats
                # identical with the fast path on or off.  The inline
                # A-bit check routes partially-addressable ranges (the
                # error path) to the helper.
                need("_env", "env")
                need("_vsw", "shadow_wr_get")
                need("_shc", "shadow_counters")
                size, val = mc_store, args[1]
                emit(f"_a = {args[0]} & 4294967295")
                emit("_o = _a & 4095")
                if size == 1:
                    emit("_sp = _vsw(_a >> 12)")
                    emit("if _sp is not None and _sp[0][_o]:")
                    emit(f"_sp[1][_o:_o + 1] = ({val}).to_bytes(1,"
                         " 'little')", 1)
                else:
                    emit(f"_sp = _vsw(_a >> 12) if _o <= {4096 - size}"
                         " else None")
                    emit(f"if _sp is not None and"
                         f" 0 not in _sp[0][_o:_o + {size}]:")
                    emit(f"_sp[1][_o:_o + {size}] = ({val}).to_bytes({size},"
                         " 'little')", 1)
                emit("_shc[1] += 1", 1)
                emit("else:")
                emit("_shc[3] += 1", 1)
                flush_dirty(depth=1, keep_pending=True)
                emit(f"{fname}(_env, _a, {val})", 1)
            else:
                if insn.dirty:
                    # The helper may read or write guest state out-of-band:
                    # commit every pending store first.
                    flush_dirty()
                if insn.dirty:
                    need("_env", "env")
                    call = f"{fname}(_env{''.join(', ' + a for a in args)})"
                else:
                    call = f"{fname}({', '.join(args)})"
                line = (f"{_reg(insn.dst)} = {call}"
                        if insn.dst is not None else call)
                if insn.guard is not None:
                    emit(f"if {_reg(insn.guard)}:")
                    emit(line, 1)
                else:
                    emit(line)
                if insn.dirty and insn.helper not in MC_NO_STATE_WRITE:
                    # Error-reporting helpers never write guest state:
                    # the forwarding map (entries just marked clean by
                    # the flush) stays valid across the call.
                    known.clear()
        elif isinstance(insn, SETPCI):
            invalidate_overlap(PO, 4)
            known[PO] = (4, insn.dst & _M32, Ty.I32, True)
        elif isinstance(insn, SETPCR):
            invalidate_overlap(PO, 4)
            emit(f"g{PO}_4 = {_reg(insn.src)} & 4294967295")
            known[PO] = (4, f"g{PO}_4", Ty.I32, True)
        elif isinstance(insn, SIDEEXIT):
            exit_tuple = bind((insn.jk, insn.icnt), key=(insn.jk, insn.icnt))
            emit(f"if {_reg(insn.cond)}:")
            flush_dirty(depth=1, keep_pending=True, skip_pc=True)
            if _LE:
                emit(f"{m_slot(PO)} = {insn.dst & _M32}", 1)
            else:
                pcb = (insn.dst & _M32).to_bytes(4, "little")
                emit(f"_d[{PO}:{PO4}] = {pcb!r}", 1)
            emit(f"_cpu.host_insns += {i + 1}", 1)
            emit(f"return {exit_tuple}", 1)
        elif isinstance(insn, SIDEEXITR):
            exit_tuple = bind((insn.jk, insn.icnt), key=(insn.jk, insn.icnt))
            emit(f"if {_reg(insn.cond)}:")
            flush_dirty(depth=1, keep_pending=True, skip_pc=True)
            if _LE:
                emit(f"{m_slot(PO)} = {_reg(insn.src)} & 4294967295", 1)
            else:
                emit(
                    f"_d[{PO}:{PO4}] = "
                    f"({_reg(insn.src)} & 4294967295).to_bytes(4, 'little')",
                    1,
                )
            emit(f"_cpu.host_insns += {i + 1}", 1)
            emit(f"return {exit_tuple}", 1)
        elif isinstance(insn, TRACEMARK):
            emit(f"_cpu.trace_blocks = {insn.index}")
        elif isinstance(insn, RET):
            exit_tuple = bind((insn.jk, insn.icnt), key=(insn.jk, insn.icnt))
            flush_dirty()
            emit(f"_cpu.host_insns += {i + 1}")
            emit(f"return {exit_tuple}")
            done = True
            break
        elif isinstance(insn, SPILL):
            src = _reg(insn.src)
            if insn.ty is Ty.F32:
                # Match the closure tier's 4-byte round-trip exactly.
                f32 = bind(_f32_round, key="f32rt")
                emit(f"{_slot(insn.slot)} = {f32}({src})")
            else:
                emit(f"{_slot(insn.slot)} = {src}")
        elif isinstance(insn, RELOAD):
            emit(f"{_reg(insn.dst)} = {_slot(insn.slot)}")
        else:  # pragma: no cover
            raise TypeError(f"cannot compile {insn!r}")
    if not done:
        raise RuntimeError("translation fell off the end (missing RET)")
    if flags["m"]:
        body.insert(2, "_m = ts.u32")
    params = ["ts"] + [f"{n}={n}" for n in env]
    src = f"def _pygen({', '.join(params)}):\n" + "".join(
        f"    {line}\n" for line in body
    )
    return src, tuple(spec)


def bind_pygen(cpu, src: str, spec: tuple) -> Callable:
    """Close emitted source over one run's cpu/mem/helpers and compile."""
    mem = cpu.mem
    env: Dict[str, object] = {
        "_cpu": cpu,
        "_ifb": int.from_bytes,
        "_pg": mem._pages.get,
        "_ld": mem.load,
        "_st": mem.store,
    }
    for kind, name, payload in spec:
        if kind == "const":
            env[name] = payload
        elif kind == "helper":
            env[name] = cpu.helpers.lookup(payload).fn
        else:  # attr
            env[name] = getattr(cpu, payload)
    # Share code objects process-wide: blocks differing only in bound
    # values reuse the same bytecode with different defaults.
    code = _PYGEN_SRC_CACHE.get(src)
    if code is None:
        code = compile(src, "<pygen-block>", "exec")
        _PYGEN_SRC_CACHE[src] = code
    exec(code, env)
    fn = env["_pygen"]
    fn.pygen_source = src
    return fn


def _code_wants_fastpath(cpu, code: bytes) -> bool:
    """Should *code* compile with the Memcheck fast paths?

    True only when the cpu has shadow maps bound (scheduler wiring, off
    under ``--memcheck-fastpath=no``) *and* the encoded bytes actually
    name a LOADV/STOREV helper (the helper-name string table is part of
    the encoding), so Nulgrind-style blocks keep their variant-0 cache
    identity and fast/slow emissions never alias one cache key.
    """
    if not getattr(cpu, "shadow_fastpath", False):
        return False
    return b"helperc_LOADV" in code or b"helperc_STOREV" in code


def compile_pygen_code(cpu, code: bytes) -> Callable:
    """Decode + emit + bind, with decode/emit cached by code bytes.

    Emission is deterministic in the encoded bytes (plus the fastpath
    variant bit, folded into the cache keys), so repeated runs of the
    same program (benchmarks, fleets, replay) skip straight to
    :func:`bind_pygen` — the only per-run work left is building the env
    dict and executing the cached code object.  When the cpu carries a
    persistent :class:`repro.core.codecache.CodeCache`, emit payloads
    round-trip through it, so the skip extends across processes.
    """
    fastpath = _code_wants_fastpath(cpu, code)
    key = b"\x01" + code if fastpath else code
    hit = _PYGEN_EMIT_CACHE.get(key)
    if hit is not None:
        _PYGEN_EMIT_CACHE.move_to_end(key)
        _EMIT_CACHE_STATS["hits"] += 1
    else:
        _EMIT_CACHE_STATS["misses"] += 1
        disk = getattr(cpu, "codecache", None)
        if disk is not None:
            hit = disk.load_pygen(code, fastpath=fastpath)
        if hit is None:
            from .hostisa import decode_insns

            hit = emit_pygen(decode_insns(code), fastpath=fastpath)
            if disk is not None:
                disk.store_pygen(code, *hit, fastpath=fastpath)
        _emit_cache_put(key, hit)
    return bind_pygen(cpu, *hit)


# -- spec (de)serialization for the persistent cache ---------------------------


class SpecCodecError(Exception):
    """An env spec entry has no stable serialized form."""


#: Struct codecs and rounding helpers emit_pygen binds by well-known
#: cache key — serialized by that key, resolved back by table lookup.
_WELLKNOWN = {
    "pf64": _F64_PACK_INTO,
    "uf64": _F64_UNPACK_FROM,
    "pf32": _F32_PACK_INTO,
    "uf32": _F32_UNPACK_FROM,
    "f32rt": _f32_round,
}
_WELLKNOWN_BY_ID = {id(v): k for k, v in _WELLKNOWN.items()}
_OP_NAME_BY_ID: Optional[Dict[int, str]] = None


def _op_name_by_id() -> Dict[int, str]:
    global _OP_NAME_BY_ID
    if _OP_NAME_BY_ID is None:
        from ..ir.ops import OPS

        _OP_NAME_BY_ID = {id(op.fn): name for name, op in OPS.items()}
    return _OP_NAME_BY_ID


def _is_plain(v: object) -> bool:
    return v is None or isinstance(v, (int, float, str, bytes, bool))


def _encode_const(v: object):
    wk = _WELLKNOWN_BY_ID.get(id(v))
    if wk is not None:
        return ("wk", wk)
    if isinstance(v, Ty):
        return ("ty", v.name)
    if callable(v):
        name = _op_name_by_id().get(id(v))
        if name is not None:
            return ("op", name)
        raise SpecCodecError(f"unserializable callable {v!r}")
    if _is_plain(v):
        return ("v", v)
    if isinstance(v, tuple) and all(_is_plain(x) for x in v):
        return ("v", v)
    raise SpecCodecError(f"unserializable const {type(v).__name__}")


def encode_spec(spec: tuple) -> tuple:
    """Turn an emit_pygen env spec into a picklable tuple.

    Op functions (lambdas in the IR op registry), bound struct codecs
    and the F32 rounding helper are encoded by name; Ty values by enum
    name; plain values verbatim.  Raises :class:`SpecCodecError` for
    anything else — the caller skips persistence rather than storing an
    entry it cannot decode.
    """
    out = []
    for kind, name, payload in spec:
        if kind == "const":
            out.append(("const", name, _encode_const(payload)))
        elif kind in ("helper", "attr"):
            out.append((kind, name, payload))
        else:
            raise SpecCodecError(f"unknown spec kind {kind!r}")
    return tuple(out)


def decode_spec(enc: tuple) -> tuple:
    """Inverse of :func:`encode_spec`; raises SpecCodecError on any
    unknown shape (the cache layer quarantines the entry)."""
    from ..ir.ops import get_op

    out = []
    try:
        for kind, name, payload in enc:
            if kind == "const":
                tag, val = payload
                if tag == "wk":
                    out.append(("const", name, _WELLKNOWN[val]))
                elif tag == "ty":
                    out.append(("const", name, Ty[val]))
                elif tag == "op":
                    out.append(("const", name, get_op(val).fn))
                elif tag == "v":
                    out.append(("const", name, val))
                else:
                    raise SpecCodecError(f"unknown const tag {tag!r}")
            elif kind in ("helper", "attr"):
                out.append((kind, name, payload))
            else:
                raise SpecCodecError(f"unknown spec kind {kind!r}")
    except SpecCodecError:
        raise
    except Exception as exc:
        raise SpecCodecError(str(exc))
    return tuple(out)
