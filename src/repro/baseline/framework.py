"""A copy-and-annotate (C&A) DBI framework — the Pin/DynamoRIO stand-in.

Where the Valgrind core *disassembles and resynthesises* (D&R), this
framework *copies instructions through verbatim* (here: executes the
decoded instructions directly) and exposes an **instruction-querying
API** — annotations describing each instruction's register and memory
effects — that tools use to insert analysis callbacks before
instructions (Section 3.5's description of Pin's model).

The consequences the paper describes fall out naturally:

* there is no IR and no recompilation, so the base overhead is far lower
  than the D&R core's (Section 5.4: "Valgrind is 4.0x slower than Pin...
  in the no-instrumentation case");
* analysis code is ordinary host (here: Python) functions — cheap to
  bolt on for lightweight tools, but *less expressive than client code*:
  a shadow-value tool must reimplement every instruction's semantics in
  its callbacks, one mnemonic at a time (see
  :class:`repro.baseline.ca_tools.CATaint`, which — like TaintTrace and
  LIFT — simply does not handle FP or SIMD instructions);
* there are no first-class shadow registers, no events system, and no
  serialisation guarantees for shadow memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..guest.isa import Insn, Mem, Reg
from ..guest.refcpu import RefCPU, TrapKind, _ea
from ..guest.program import VxImage
from ..native import NativeRunner, NativeResult

# Mnemonic classes used to build annotations.
_LOADS = {"ld": 4, "ldb": 1, "ldbs": 1, "ldw": 2, "ldws": 2, "fld": 8,
          "flds": 4, "vld": 16}
_STORES = {"st": 4, "stb": 1, "stw": 2, "sti": 4, "fst": 8, "fsts": 4, "vst": 16}
_RMW = {"addm": 4, "subm": 4}
_FP_SIMD_PREFIXES = ("f", "v")


@dataclass(frozen=True)
class MemRef:
    """An annotated memory reference: effective-address fn + size."""

    ea: Callable[[List[int]], int]
    size: int
    is_write: bool


class InsInfo:
    """The instruction-querying API handed to C&A tools.

    Mirrors Pin's INS_* queries: what does this instruction read/write?
    """

    def __init__(self, insn: Insn):
        self.insn = insn
        self.addr = insn.addr
        self.size = insn.length
        self.mnemonic = insn.mnemonic
        self.mem_refs: Tuple[MemRef, ...] = self._mem_refs()
        self.regs_read, self.regs_written = self._reg_effects()

    @property
    def is_fp_or_simd(self) -> bool:
        return self.mnemonic.startswith(_FP_SIMD_PREFIXES) and self.mnemonic not in (
            "free",
        )

    @property
    def is_branch(self) -> bool:
        return self.insn.idef.is_branch

    def _mem_refs(self) -> Tuple[MemRef, ...]:
        m = self.mnemonic
        refs: List[MemRef] = []
        ops = self.insn.operands
        if m in _LOADS:
            refs.append(MemRef(_ea(ops[1]), _LOADS[m], False))
        elif m in _STORES:
            refs.append(MemRef(_ea(ops[0]), _STORES[m], True))
        elif m in _RMW:
            ea = _ea(ops[0])
            refs.append(MemRef(ea, 4, False))
            refs.append(MemRef(ea, 4, True))
        elif m.endswith("m_"):  # ALU reg, [mem]
            refs.append(MemRef(_ea(ops[1]), 4, False))
        elif m in ("push", "pushi", "call", "callr"):
            refs.append(MemRef(lambda r: (r[4] - 4) & 0xFFFFFFFF, 4, True))
        elif m in ("pop", "ret"):
            refs.append(MemRef(lambda r: r[4], 4, False))
        return tuple(refs)

    def _reg_effects(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        reads: List[int] = []
        writes: List[int] = []
        d = self.insn.idef
        ops = self.insn.operands
        m = self.mnemonic
        for kind_i, op in enumerate(ops):
            if isinstance(op, Reg):
                # First GPR operand is usually the destination for moves/ALU.
                if kind_i == 0 and m not in ("st", "stb", "stw", "push", "cmp",
                                             "cmpi", "test", "testi", "jmpr",
                                             "callr"):
                    writes.append(op.index)
                    if m not in ("movi", "mov", "ld", "ldb", "ldbs", "ldw",
                                 "ldws", "lea", "pop", "setcc"):
                        reads.append(op.index)
                else:
                    reads.append(op.index)
            elif isinstance(op, Mem):
                if op.base is not None:
                    reads.append(op.base)
                if op.index is not None:
                    reads.append(op.index)
        if m in ("push", "pushi", "pop", "call", "callr", "ret"):
            reads.append(4)
            writes.append(4)
        if m == "machid":
            writes.extend((0, 1, 2, 3))
        if m == "cycles":
            writes.append(0)
        return tuple(dict.fromkeys(reads)), tuple(dict.fromkeys(writes))


#: An analysis callback: receives the live CPU (registers, memory...).
Callback = Callable[[RefCPU], None]


class TraceControl:
    """Lets a tool insert calls around the instructions of one trace."""

    def __init__(self, n: int):
        self._before: List[List[Callback]] = [[] for _ in range(n)]
        self._block_entry: List[Callback] = []

    def insert_before(self, index: int, fn: Callback) -> None:
        self._before[index].append(fn)

    def insert_at_entry(self, fn: Callback) -> None:
        self._block_entry.append(fn)


class CATool:
    """Base class for C&A tools."""

    name = "ca-tool"

    def instrument_trace(self, inss: Sequence[InsInfo], ctl: TraceControl) -> None:
        """Called once per newly-seen code block."""

    def fini(self, runner: "CARunner") -> None:
        """Called at client exit."""


class CARunner(NativeRunner):
    """Runs a client under a C&A tool.

    Uses the same kernel/libc substrate as native execution; code blocks
    are decoded once, the tool instruments them (inserting callbacks),
    and the cached (callbacks, closure) steps are executed thereafter —
    i.e. original instructions are "copied through verbatim".
    """

    def __init__(self, image: VxImage, tool: CATool, argv=None, **kw):
        super().__init__(image, argv, **kw)
        self.tool = tool
        #: block start addr -> list of (callbacks tuple or None, closure).
        self._blocks: Dict[int, list] = {}
        self.blocks_executed = 0

    # -- block building -------------------------------------------------------------

    def _build_block(self, cpu: RefCPU, addr: int) -> list:
        from ..guest.encoding import decode

        insns: List[Insn] = []
        a = addr
        for _ in range(64):
            raw = cpu.mem.fetch(a, 1) + cpu._fetch_rest(a + 1, 11)
            insn = decode(raw, 0, a)
            insns.append(insn)
            a += insn.length
            if insn.idef.is_branch or insn.mnemonic == "jcc":
                break
        infos = [InsInfo(i) for i in insns]
        ctl = TraceControl(len(infos))
        self.tool.instrument_trace(infos, ctl)
        steps = []
        entry_cbs = tuple(ctl._block_entry)
        for i, insn in enumerate(insns):
            entry = cpu._icache.get(insn.addr)
            if entry is None:
                entry = cpu._compile(insn.addr)
                cpu._icache[insn.addr] = entry
            cbs = tuple(ctl._before[i])
            if i == 0 and entry_cbs:
                cbs = entry_cbs + cbs
            steps.append((cbs or None, entry[0]))
        return steps

    # -- the instrumented execution loop ------------------------------------------------

    def _run_slice(self, cpu: RefCPU, max_insns: int) -> Optional[TrapKind]:
        executed = 0
        blocks = self._blocks
        while executed < max_insns:
            steps = blocks.get(cpu.pc)
            if steps is None:
                steps = self._build_block(cpu, cpu.pc)
                blocks[cpu.pc] = steps
            self.blocks_executed += 1
            trap = None
            for cbs, fn in steps:
                if cbs is not None:
                    for cb in cbs:
                        cb(cpu)
                executed += 1
                trap = fn(cpu)
                if trap is not None:
                    cpu.insn_count += executed
                    return trap
        cpu.insn_count += executed
        return TrapKind.BUDGET

    def run(self, max_insns: Optional[int] = None) -> NativeResult:
        # NativeRunner.run calls cpu.run(n); route it to our loop instead.
        originals = {}
        for tid, cpu in self.cpus.items():
            originals[tid] = cpu.run
        result = self._run_with_hook(max_insns)
        self.tool.fini(self)
        return result

    def _run_with_hook(self, max_insns):
        runner = self

        class _HookedCPU:
            pass

        # Monkey-patch-free approach: temporarily bind each RefCPU's run.
        import types

        def hooked_run(cpu_self, n=None):
            return runner._run_slice(cpu_self, n if n is not None else 1 << 62)

        patched = []

        def patch(cpu):
            cpu.run = types.MethodType(hooked_run, cpu)
            patched.append(cpu)

        for cpu in self.cpus.values():
            patch(cpu)
        orig_new_thread = self._new_thread

        def new_thread(entry, sp):
            tid = orig_new_thread(entry, sp)
            patch(self.cpus[tid])
            return tid

        self._new_thread = new_thread  # type: ignore[assignment]
        try:
            return NativeRunner.run(self, max_insns=max_insns)
        finally:
            self._new_thread = orig_new_thread  # type: ignore[assignment]


def run_ca(image: VxImage, tool: CATool, argv=None, *, stdin: bytes = b"",
           max_insns=None) -> NativeResult:
    """Run *image* under C&A *tool*."""
    return CARunner(image, tool, argv, stdin=stdin).run(max_insns=max_insns)
