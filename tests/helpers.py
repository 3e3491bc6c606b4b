"""Shared helper functions for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro import Options, assemble, build_source, run_native, run_tool
from repro.core.engines import ENGINES
from repro.guest.program import VxImage

#: Registry engines whose blocks run in the pygen tier.
PYGEN_ENGINES = [name for name, e in ENGINES.items() if e.codegen != "closures"]


def asm_image(source: str, *, with_libc: bool = True, name: str = "test") -> VxImage:
    """Assemble a test program (with the libc prelude by default)."""
    return assemble(build_source(source, with_libc=with_libc), filename=name)


def native(source_or_image, *, argv=None, stdin: bytes = b"", max_insns=20_000_000):
    img = (
        source_or_image
        if isinstance(source_or_image, VxImage)
        else asm_image(source_or_image)
    )
    return run_native(img, argv, stdin=stdin, max_insns=max_insns)


def vg(source_or_image, tool: str = "none", *, argv=None, stdin: bytes = b"",
       options: Options = None, **opt_kw):
    img = (
        source_or_image
        if isinstance(source_or_image, VxImage)
        else asm_image(source_or_image)
    )
    if options is None:
        options = Options(log_target="capture", **opt_kw)
    return run_tool(tool, img, argv, options=options, stdin=stdin)


# ---------------------------------------------------------------------------
# Random-program generation for differential testing (hypothesis), shared
# by tests/test_differential.py and tests/test_perf_mode.py.
# ---------------------------------------------------------------------------

BUF_WORDS = 64

_GPR = st.sampled_from(["r0", "r1", "r2", "r3", "r6", "r7"])
_FREG = st.sampled_from(["f0", "f1", "f2", "f3"])
_VREG = st.sampled_from(["v0", "v1"])
_IMM = st.integers(-1000, 1000)
_SHIFT = st.integers(0, 40)
_COND = st.sampled_from(["z", "nz", "b", "nb", "be", "nbe", "s", "ns",
                         "l", "nl", "le", "nle"])


@st.composite
def _insn(draw) -> str:
    kind = draw(st.integers(0, 15))
    r = draw(_GPR)
    r2 = draw(_GPR)
    if kind == 0:
        return f"movi {r}, {draw(_IMM)}"
    if kind == 1:
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor", "mul",
                                   "cmp", "test"]))
        return f"{op} {r}, {r2}"
    if kind == 2:
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor", "mul",
                                   "cmp", "test"]))
        return f"{op} {r}, {draw(_IMM)}"
    if kind == 3:
        op = draw(st.sampled_from(["shl", "shr", "sar"]))
        if draw(st.booleans()):
            return f"{op} {r}, {draw(_SHIFT)}"
        return f"andi {r2}, 63\n{op} {r}, {r2}"
    if kind == 4:
        op = draw(st.sampled_from(["inc", "dec", "neg", "not", "sxb", "sxw"]))
        return f"{op} {r}"
    if kind == 5:  # bounded store + load
        return (
            f"andi {r}, {(BUF_WORDS - 1) * 4}\n"
            f"st [buf+{r}], {r2}\n"
            f"ld {r2}, [buf+{r}]"
        )
    if kind == 6:  # narrow memory ops
        op = draw(st.sampled_from(["ldb", "ldbs", "ldw", "ldws"]))
        return f"andi {r}, {(BUF_WORDS - 2) * 4}\n{op} {r2}, [buf+{r}+1]"
    if kind == 7:
        return f"set{draw(_COND)} {r}"
    if kind == 8:  # guarded division
        op = draw(st.sampled_from(["divu", "divs", "modu", "mods"]))
        return f"ori {r2}, 1\n{op} {r}, {r2}"
    if kind == 9:
        op = draw(st.sampled_from(["rol", "ror"]))
        return f"{op} {r}, {draw(st.integers(0, 40))}"
    if kind == 10:  # FP
        f1, f2 = draw(_FREG), draw(_FREG)
        op = draw(st.sampled_from(["fadd", "fsub", "fmul", "fmov", "fmin",
                                   "fmax", "fabs", "fneg"]))
        return f"{op} {f1}, {f2}"
    if kind == 11:  # FP <-> int and memory
        f1 = draw(_FREG)
        return (
            f"andi {r}, {(BUF_WORDS - 2) * 4}\n"
            f"ficvt {f1}, {r2}\n"
            f"fst [buf+{r}], {f1}\n"
            f"fld {f1}, [buf+{r}]\n"
            f"fcvti {r2}, {f1}"
        )
    if kind == 12:  # fcmp + conditional
        f1, f2 = draw(_FREG), draw(_FREG)
        return f"fcmp {f1}, {f2}\nset{draw(_COND)} {r}"
    if kind == 13:  # SIMD
        v1, v2 = draw(_VREG), draw(_VREG)
        op = draw(st.sampled_from(["vaddb", "vaddw", "vsubd", "vxor", "vand",
                                   "vor", "vcmpeqb", "vmaxub", "vavgub",
                                   "vmulw", "vmov"]))
        return f"{op} {v1}, {v2}"
    if kind == 14:  # SIMD splat/memory
        v1 = draw(_VREG)
        return (
            f"andi {r}, {(BUF_WORDS - 8) * 4}\n"
            f"vsplatb {v1}, {r2}\n"
            f"vst [buf+{r}], {v1}\n"
            f"vld {v1}, [buf+{r}]"
        )
    # misc: mov / xchg / lea / push-pop pair / machid
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return f"mov {r}, {r2}"
    if choice == 1:
        return f"xchg {r}, {r2}"
    if choice == 2:
        return f"andi {r2}, 255\nlea {r}, [buf+{r2}*2+8]"
    if choice == 3:
        return f"push {r}\npush {r2}\npop {r}\npop {r2}"
    return "machid"


@st.composite
def programs(draw) -> str:
    """A random program: setup, a counted loop over a random body, a tail."""
    setup = [f"movi r{i}, {draw(_IMM)}" for i in range(4)]
    body = draw(st.lists(_insn(), min_size=1, max_size=12))
    tail = draw(st.lists(_insn(), min_size=0, max_size=6))
    n_iter = draw(st.integers(1, 9))
    lines = (
        ["_start:"]
        + setup
        + [f"movi fp, {n_iter}", "loop:"]
        + body
        + ["dec fp", "jnz loop"]
        + tail
        + ["halt", ".data", f"buf: .space {BUF_WORDS * 8 + 64}"]
    )
    return "\n".join(lines)


def ref_run(img):
    """Run *img* to HALT on the reference CPU via the real loader.

    Returns ``(ThreadState, data-segment bytes, data segment)`` for
    architected-state comparison against a DBI run.
    """
    from repro.core.threadstate import ThreadState
    from repro.guest.loader import load_program
    from repro.guest.refcpu import RefCPU, TrapKind
    from repro.kernel.kernel import Kernel
    from repro.kernel.memory import GuestMemory

    mem = GuestMemory()
    prog = load_program(img, Kernel(mem))
    cpu = RefCPU(mem)
    cpu.pc = prog.entry
    cpu.regs[4] = prog.initial_sp
    trap = cpu.run(500_000)
    assert trap is TrapKind.HALT
    ts = ThreadState()
    ts.load_from_cpu(cpu)
    data_seg = [s for s in img.segments if "w" in s.perms][0]
    return ts, mem.read_raw(data_seg.addr, len(data_seg.data)), data_seg




def cache_entries(cache_dir):
    """Every entry of the code cache under *cache_dir*, one
    ``(pack path, namespace, blob offset in the pack file, blob length,
    decoded payload)`` per entry, namespace ``"t"``, ``"p"`` or ``"x"``."""
    from repro.core import codecache

    cache = codecache.CodeCache(str(cache_dir))
    out = []
    for pack in cache._sources()[1:]:
        recs = [("p", r) for r in pack.p.values()]
        recs += [("x", r) for r in pack.x.values()]
        recs += [("t", r[:2]) for by_addr in pack.t.values()
                 for packed in by_addr.values()
                 for r in codecache._t_records(packed)]
        out += [(pack.path, ns, pack.base + off, length,
                 cache._read(pack, off, length)) for ns, (off, length) in recs]
    cache.flush()
    return out
