"""Hobbes: run-time type checking for binaries (after Burrows, Freund &
Wiener, CC 2003 — the paper's Section 1.2 list of shadow-value tools).

Every 32-bit value is shadowed by an abstract type tag, *inferred from
the operations performed on it*:

* ``UNKNOWN`` — nothing known yet (constants, fresh memory);
* ``INT`` — produced by multiplication, division, shifts, comparisons;
* ``PTR`` — the stack pointer, ``malloc``'s result, or anything a load
  or store dereferenced.

and the tool reports operations inappropriate for the inferred types:

* adding two pointers (``PtrPlusPtr``);
* multiplying/dividing/shifting a pointer (``PtrArith``);
* dereferencing a value that arithmetic proved to be a plain integer
  (``IntDeref``).

Pointer minus pointer is *legal* and yields an INT (a ptrdiff) — the
classic case a naive rule set gets wrong.

Like Memcheck and TaintCheck this is a full shadow-value tool: shadow
registers live at ThreadState+320, shadow memory holds one tag per byte
(replicated across each word), and the tags flow through pure IR with a
handful of guarded error helpers.  It exists to demonstrate the paper's
point that the framework supports *families* of such tools, not just
Memcheck.
"""

from __future__ import annotations

from typing import Dict

from ..core.tool import Tool
from ..guest.regs import GUEST_STATE_SIZE, OFFSET_PC, SHADOW_OFFSET, SP, gpr_offset
from ..ir.block import IRSB
from ..ir.expr import Binop, CCall, Const, Expr, Get, ITE, Load, RdTmp, Unop, c32
from ..ir.stmt import Dirty, Exit, IMark, NoOp, Put, StateFx, Store, WrTmp
from ..ir.types import Ty
from ..opt.flatten import flatten
from .memcheck.shadow import ShadowMemory

# Type tags (stored as I32 in register shadows, one byte per byte in
# shadow memory).
UNKNOWN = 0
INT = 1
PTR = 2

TAG_NAMES = {UNKNOWN: "unknown", INT: "int", PTR: "ptr"}

_LOADTAG = {1: "hb_LOADTAG8", 2: "hb_LOADTAG16", 4: "hb_LOADTAG32",
            8: "hb_LOADTAG64", 16: "hb_LOADTAG128"}
_STORETAG = {1: "hb_STORETAG8", 2: "hb_STORETAG16", 4: "hb_STORETAG32",
             8: "hb_STORETAG64", 16: "hb_STORETAG128"}

_ERRFX = (StateFx(False, gpr_offset(SP), 4), StateFx(False, OFFSET_PC, 4))


class Hobbes(Tool):
    """Value-type inference and misuse detection."""

    name = "hobbes"
    description = "run-time type checking: flags pointer/int misuse"

    def __init__(self) -> None:
        super().__init__()
        # Tag-per-byte map; everything starts UNKNOWN (= tag 0, "defined").
        self.shadow = ShadowMemory(default="defined")
        self.checks = 0

    # -- lifecycle --------------------------------------------------------------

    def pre_clo_init(self, core) -> None:
        super().pre_clo_init(core)
        for size, name in _LOADTAG.items():
            core.helpers.register_dirty(name, self._mk_load(size))
        for size, name in _STORETAG.items():
            core.helpers.register_dirty(name, self._mk_store(size))
        core.helpers.register_dirty("hb_ptr_plus_ptr", self._err_ptr_plus_ptr)
        core.helpers.register_dirty("hb_ptr_arith", self._err_ptr_arith)
        core.helpers.register_dirty("hb_int_deref", self._err_int_deref)
        core.redirector.wrap_libc("malloc", self._wrap_alloc)
        core.redirector.wrap_libc("calloc", self._wrap_alloc)
        core.redirector.wrap_libc("realloc", self._wrap_alloc)

    def post_clo_init(self) -> None:
        # The initial stack pointer is, definitionally, a pointer.
        ts = self.core.scheduler.threads[1]
        ts.put(gpr_offset(SP) + SHADOW_OFFSET, Ty.I32, PTR)

    def _wrap_alloc(self, machine, call_original) -> None:
        call_original()
        # malloc's result is a pointer: tag the register shadow.
        sched = self.core.scheduler
        ts = sched.threads[machine.tid]
        ts.put(gpr_offset(0) + SHADOW_OFFSET, Ty.I32, PTR)

    # -- helpers -----------------------------------------------------------------

    def _mk_load(self, size: int):
        def load(env, addr: int) -> int:
            # One tag per byte; a word's tag is its low byte's.
            return self.shadow.load_vbits(addr, 1) & 0xFF

        return load

    def _mk_store(self, size: int):
        def store(env, addr: int, tag: int) -> int:
            tag &= 0xFF
            self.shadow.store_vbits(addr, size,
                                    int.from_bytes(bytes([tag]) * size, "little"))
            return 0

        return store

    def _err_ptr_plus_ptr(self, env) -> int:
        self.core.record_error(
            "PtrPlusPtr", "Addition of two pointer-typed values"
        )
        return 0

    def _err_ptr_arith(self, env) -> int:
        self.core.record_error(
            "PtrArith",
            "Multiplicative/shift arithmetic on a pointer-typed value",
        )
        return 0

    def _err_int_deref(self, env) -> int:
        self.core.record_error(
            "IntDeref", "Dereference of a value typed as a plain integer"
        )
        return 0

    # -- instrumentation -------------------------------------------------------------

    def instrument(self, sb: IRSB) -> IRSB:
        ctx = _HobbesCtx(self, sb)
        ctx.run()
        return flatten(ctx.out)

    def fini(self, exit_code: int) -> None:
        self.core.log(
            f"hobbes: {self.core.error_mgr.total_errors} type violations "
            f"from {self.core.error_mgr.unique_errors} sites"
        )
        self.core.error_mgr.summarise()


def _is_ptr(e: Expr) -> Expr:
    return Binop("CmpEQ32", e, c32(PTR))


def _combine_add(ta: Expr, tb: Expr) -> Expr:
    """Tag of an addition: PTR wins; INT survives only when *both* sides
    are proven INT (an UNKNOWN side may be an address constant — e.g. a
    table base — so INT+UNKNOWN must stay UNKNOWN or every indexed load
    would be a false positive)."""
    either_ptr = Binop("Or32", Binop("And32", ta, c32(2)),
                       Binop("And32", tb, c32(2)))
    both_int = Binop("And1", Binop("CmpEQ32", ta, c32(INT)),
                     Binop("CmpEQ32", tb, c32(INT)))
    return ITE(
        Unop("CmpNEZ32", either_ptr),
        c32(PTR),
        ITE(both_int, c32(INT), c32(UNKNOWN)),
    )


class _HobbesCtx:
    """Per-block tag-propagation instrumenter."""

    def __init__(self, tool: Hobbes, sb: IRSB):
        self.tool = tool
        self.sb = sb
        self.out = IRSB(tyenv=dict(sb.tyenv), jumpkind=sb.jumpkind,
                        guest_addr=sb.guest_addr)
        self.shadow_tmp: Dict[int, int] = {}

    def s_tmp(self, tmp: int) -> int:
        s = self.shadow_tmp.get(tmp)
        if s is None:
            # Tags for non-I32 values collapse to I32 (word-typed world).
            s = self.out.new_tmp(Ty.I32)
            self.shadow_tmp[tmp] = s
        return s

    def s_atom(self, e: Expr) -> Expr:
        if isinstance(e, Const):
            return c32(UNKNOWN)
        return RdTmp(self.s_tmp(e.tmp))

    def _guarded(self, helper: str, guard_expr: Expr) -> None:
        g = self.out.assign_new(guard_expr)
        self.out.add(Dirty(helper, (), guard=g, state_fx=_ERRFX))

    def texpr(self, e: Expr) -> Expr:
        sb, out = self.sb, self.out
        if isinstance(e, (Const, RdTmp)):
            return self.s_atom(e)
        if isinstance(e, Get):
            if e.offset >= GUEST_STATE_SIZE or e.ty is not Ty.I32:
                return c32(UNKNOWN)
            return Get(e.offset + SHADOW_OFFSET, Ty.I32)
        if isinstance(e, Load):
            # Check the address' tag, then fetch the loaded value's tag.
            ta = self.s_atom(e.addr)
            self._guarded("hb_int_deref", Binop("CmpEQ32", ta, c32(INT)))
            t = out.new_tmp(Ty.I32)
            out.add(Dirty(_LOADTAG[e.ty.size], (e.addr,), tmp=t, retty=Ty.I32))
            return RdTmp(t)
        if isinstance(e, Unop):
            op = e.op
            if op.startswith(("Not", "Neg")):
                return self.s_atom(e.arg)
            if op.startswith(("CmpNEZ", "CmpEQZ", "Clz", "Ctz", "Popcnt")):
                return c32(INT)
            return c32(UNKNOWN)
        if isinstance(e, Binop):
            op = e.op
            ta = self.s_atom(e.arg1)
            tb = self.s_atom(e.arg2)
            if op.startswith("Add") and op[-1].isdigit():
                self._guarded(
                    "hb_ptr_plus_ptr",
                    Binop("And1", _is_ptr(ta), _is_ptr(tb)),
                )
                return _combine_add(ta, tb)
            if op.startswith("Sub") and op[-1].isdigit():
                # ptr - ptr is a ptrdiff (INT); ptr - int stays a ptr.
                both_ptr = Binop("And1", _is_ptr(ta), _is_ptr(tb))
                return ITE(both_ptr, c32(INT), _combine_add(ta, tb))
            if op.startswith(("Mul", "Div", "Mod", "Shl", "Shr", "Sar",
                              "Rol", "Ror", "Mull")):
                self._guarded(
                    "hb_ptr_arith",
                    Binop("Or1", _is_ptr(ta), _is_ptr(tb)),
                )
                return c32(INT)
            if op.startswith(("And", "Or", "Xor")):
                # Masking a pointer (alignment tricks) keeps it a pointer.
                return _combine_add(ta, tb)
            if op.startswith("Cmp"):
                return c32(INT)
            return c32(UNKNOWN)
        if isinstance(e, ITE):
            return ITE(e.cond, self.s_atom(e.iftrue), self.s_atom(e.iffalse))
        if isinstance(e, CCall):
            return c32(INT)  # condition-code helpers yield integers
        raise TypeError(f"hobbes cannot shadow {e!r}")

    def run(self) -> None:
        sb, out = self.sb, self.out
        for s in sb.stmts:
            if isinstance(s, (NoOp, IMark)):
                out.add(s)
            elif isinstance(s, WrTmp):
                out.add(WrTmp(self.s_tmp(s.tmp), self.texpr(s.data)))
                out.add(s)
            elif isinstance(s, Put):
                if s.offset < GUEST_STATE_SIZE and sb.type_of(s.data) is Ty.I32:
                    out.add(Put(s.offset + SHADOW_OFFSET, self.s_atom(s.data)))
                out.add(s)
            elif isinstance(s, Store):
                ta = self.s_atom(s.addr)
                self._guarded("hb_int_deref", Binop("CmpEQ32", ta, c32(INT)))
                # Storing *through* a value proves it is a pointer — but at
                # this point it is an atom; tag its shadow via memory only.
                ty = sb.type_of(s.data)
                tag = self.s_atom(s.data) if ty is Ty.I32 else c32(UNKNOWN)
                out.add(Dirty(_STORETAG[ty.size], (s.addr, tag)))
                out.add(s)
            elif isinstance(s, Exit):
                out.add(s)
            elif isinstance(s, Dirty):
                out.add(s)
                for fx in s.state_fx:
                    if fx.write and fx.offset < GUEST_STATE_SIZE:
                        out.add(Put(fx.offset + SHADOW_OFFSET, c32(UNKNOWN)))
                if s.tmp is not None:
                    out.add(WrTmp(self.s_tmp(s.tmp), c32(UNKNOWN)))
            else:
                raise TypeError(f"hobbes cannot instrument {s!r}")
        out.next = sb.next
