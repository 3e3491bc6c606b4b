"""Property tests: Memcheck's page-granular leak scan against a
word-at-a-time reference model.

``RefMemcheck._reachable`` is the obviously-correct scan the page-at-a-
time one optimises: it visits every aligned word of every mapped page,
asks a bisect whether the word lies in a live block and the shadow table
whether it is addressable, and loads it through the permission-checked
path.  Random heap-graph programs run once under each model, and must
produce the same leak results, the same log (``LEAK SUMMARY`` line,
``--leak-check=full`` listing, mid-run ``MC_DO_LEAK_CHECK`` output and
error reports) and the same ``memcheck_shadow`` statistics; no scan may
change those statistics (a read never promotes a shadow page).

The generated programs cover zero-size, sub-word, odd and multi-page
blocks; links between blocks and interior pointers; pointers left in red
zones (some made addressable by client request), in words made noaccess
by client request and below the stack pointer; freed blocks still in
quarantine; and roots in ``.data``, on the stack, in registers and in an
extra mmap'd page.
"""

import bisect
import os
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro import Options
from repro.core.valgrind import Valgrind
from repro.tools.memcheck import (
    MC_DO_LEAK_CHECK,
    MC_MAKE_MEM_DEFINED,
    MC_MAKE_MEM_NOACCESS,
    Memcheck,
)

from helpers import asm_image

QUICK = os.environ.get("REPRO_TEST_QUICK") == "1"

#: A small stack keeps the word-at-a-time reference affordable; the
#: default 1 MiB stack costs it ~0.5 s per scan.
STACK_SIZE = 64 * 1024

SIZES = [0, 1, 3, 4, 7, 8, 24, 100, 160, 4100]
MAX_BLOCKS = 8
MAX_ROOTS = 8


class RefMemcheck(Memcheck):
    """Memcheck with the word-at-a-time reference reachability scan."""

    def _reachable(self, starts: List[int]) -> set:
        mem = self.core.memory

        def block_at(ptr: int) -> Optional[int]:
            i = bisect.bisect_right(starts, ptr) - 1
            if i < 0:
                return None
            p = starts[i]
            if p <= ptr < p + max(1, self.blocks[p].size):
                return p
            return None

        # Roots: all guest registers of all threads, plus every
        # addressable word outside the heap blocks themselves.
        reached: set = set()
        frontier: List[int] = []

        def note(ptr: int) -> None:
            p = block_at(ptr)
            if p is not None and p not in reached:
                reached.add(p)
                frontier.append(p)

        sched = self.core.scheduler
        if sched is not None:
            for ts in sched.threads.values():
                for i in range(8):
                    note(ts.reg(i))
        heap_ranges = [(p, p + self.blocks[p].size) for p in starts]

        def in_heap(addr: int) -> bool:
            i = bisect.bisect_right(heap_ranges, (addr, 1 << 33)) - 1
            return i >= 0 and heap_ranges[i][0] <= addr < heap_ranges[i][1]

        for start, size, _prot in mem.mapped_ranges():
            for a in range(start, start + size - 3, 4):
                if in_heap(a):
                    continue
                if self.shadow.get_abit(a) == 0:
                    continue
                note(mem.load32(a))
        # Transitively scan reached blocks.
        while frontier:
            p = frontier.pop()
            blk = self.blocks[p]
            for a in range(p, p + blk.size - 3, 4):
                note(mem.load32(a))
        return reached


# -- program generation -----------------------------------------------------------

def _offset(size: int):
    """A pointer offset into a block of *size*, biased to its edges
    (``size`` itself is one past the end, which only reaches a
    zero-size block's ``[p, p + 1)``)."""
    return st.one_of(
        st.sampled_from(sorted({0, max(0, size - 1), size, size + 1})),
        st.integers(0, size + 1),
    )


@st.composite
def heap_programs(draw) -> dict:
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=1,
                          max_size=MAX_BLOCKS))
    n = len(sizes)
    block = st.integers(0, n - 1)

    links = []
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(block), draw(block)
        if sizes[i] >= 4:
            k = draw(st.integers(0, sizes[i] // 4 - 1))
            links.append((i, k, j, draw(_offset(sizes[j]))))

    # Pointers written into red zones: 16 bytes either side of a block,
    # some into a word a client request made addressable (a root then).
    redzone = []
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(block), draw(block)
        after = (sizes[i] + 3) & ~3
        disp = draw(st.sampled_from([after, after + 4, after + 8,
                                     -4, -8, -12, -16]))
        redzone.append((i, disp, j, draw(st.booleans())))

    frees = sorted(draw(st.sets(block, max_size=n)))
    kinds = st.sampled_from(["data", "stack", "reg", "mmap", "hidden",
                             "dead_stack"])
    roots = []
    for _ in range(draw(st.integers(0, MAX_ROOTS))):
        j = draw(block)
        roots.append((draw(kinds), j, draw(_offset(sizes[j]))))
    return {
        "sizes": sizes,
        "links": links,
        "redzone": redzone,
        "frees": frees,
        "roots": roots,
        "mmap": draw(st.booleans()) or any(k == "mmap" for k, _, _ in roots),
        "midrun": draw(st.sampled_from([None, "early", "late"])),
        "midrun_full": draw(st.integers(0, 1)),
        "clear": draw(st.sampled_from(["zero", "noaccess"])),
    }


def render(plan: dict) -> str:
    """Assemble the plan into a vx32 program that exits with the roots
    still in place (``call exit`` from main keeps its pushes live)."""
    n = len(plan["sizes"])
    out = ["        .text", "main:"]
    emit = out.append

    def slot(j):
        return f"[slots+{4 * j}]"

    def midrun():
        emit(f"        movi r0, {MC_DO_LEAK_CHECK:#x}")
        emit(f"        movi r1, {plan['midrun_full']}")
        emit("        clreq")

    if plan["mmap"]:  # mmap(0, 4096, PROT_READ|PROT_WRITE)
        emit("        movi r0, 7\n        movi r1, 0\n"
             "        movi r2, 4096\n        movi r3, 6\n        syscall")
        emit("        st   [mpage], r0")
    for i, size in enumerate(plan["sizes"]):
        emit(f"        pushi {size}\n        call malloc\n        addi sp, 4")
        emit(f"        st   {slot(i)}, r0")
    for i, k, j, off in plan["links"]:
        emit(f"        ld   r1, {slot(i)}\n        ld   r2, {slot(j)}")
        emit(f"        addi r2, {off}\n        st   [r1+{4 * k}], r2")
    for i, disp, j, exposed in plan["redzone"]:
        sign = "+" if disp >= 0 else "-"
        if exposed:
            emit(f"        ld   r1, {slot(i)}\n        movi r2, {disp}")
            emit(f"        add  r1, r2\n        movi r0, {MC_MAKE_MEM_DEFINED:#x}")
            emit("        movi r2, 4\n        clreq")
        emit(f"        ld   r1, {slot(i)}\n        ld   r2, {slot(j)}")
        emit(f"        st   [r1{sign}{abs(disp)}], r2")
    if plan["midrun"] == "early":
        midrun()
    for i in plan["frees"]:
        emit(f"        ld   r0, {slot(i)}\n        push r0\n"
             "        call free\n        addi sp, 4")
    regs = iter(["r6", "r7"])
    hidden = []
    for r, (kind, j, off) in enumerate(plan["roots"]):
        if kind == "reg":
            reg = next(regs, None)
            if reg is not None:
                emit(f"        ld   {reg}, {slot(j)}\n        addi {reg}, {off}")
            continue
        emit(f"        ld   r0, {slot(j)}\n        addi r0, {off}")
        if kind == "data":
            emit(f"        st   [roots+{4 * r}], r0")
        elif kind == "hidden":
            emit(f"        st   [hidden+{4 * r}], r0")
            hidden.append(r)
        elif kind == "mmap":
            emit(f"        ld   r1, [mpage]\n        st   [r1+{4 * r}], r0")
        elif kind == "stack":
            emit("        push r0")
        else:  # dead_stack: the value stays below sp, now noaccess
            emit("        push r0\n        addi sp, 4")
    for r in hidden:
        emit(f"        movi r0, {MC_MAKE_MEM_NOACCESS:#x}")
        emit(f"        movi r1, hidden+{4 * r}\n        movi r2, 4\n        clreq")
    if plan["clear"] == "zero":
        for i in range(n):
            emit(f"        sti  {slot(i)}, 0")
    else:
        emit(f"        movi r0, {MC_MAKE_MEM_NOACCESS:#x}")
        emit(f"        movi r1, slots\n        movi r2, {4 * n}\n        clreq")
    for reg in regs:
        emit(f"        movi {reg}, 0")
    if plan["midrun"] == "late":
        midrun()
    emit("        movi r0, 0\n        movi r1, 0\n        movi r2, 0\n"
         "        movi r3, 0\n        push r0\n        call exit")
    out += [
        "        .data",
        "mpage:  .word 0",
        f"slots:  .space {4 * MAX_BLOCKS}",
        f"roots:  .space {4 * MAX_ROOTS}",
        f"hidden: .space {4 * MAX_ROOTS}",
    ]
    return "\n".join(out) + "\n"


# -- running both models ------------------------------------------------------------

def run_model(tool, image, mode: str):
    """Run *image* under *tool*, recording the shadow statistics around
    every leak scan (exit-time and client-requested)."""
    scans = []
    inner = tool.leak_check

    def probed(*, full: bool = False) -> dict:
        before = tool.shadow.stats_dict()
        result = inner(full=full)
        scans.append((before, tool.shadow.stats_dict()))
        return result

    tool.leak_check = probed
    opts = Options(log_target="capture", stack_size=STACK_SIZE,
                   tool_options=[f"--leak-check={mode}"])
    return Valgrind(tool, opts).run(image), scans


def assert_same_leaks(image, mode: str):
    res, scans = run_model(Memcheck(), image, mode)
    ref, ref_scans = run_model(RefMemcheck(), image, mode)
    assert res.exit_code == ref.exit_code == 0
    assert res.tool._leak_result == ref.tool._leak_result
    assert res.log == ref.log
    assert res.log.count("LEAK SUMMARY") == len(scans) == len(ref_scans)
    for before, after in scans + ref_scans:
        assert before == after
    assert res.tool.shadow.stats_dict() == ref.tool.shadow.stats_dict()
    return res


class TestLeakScanEquivalence:
    @settings(max_examples=10 if QUICK else 40, deadline=None)
    @given(plan=heap_programs(), mode=st.sampled_from(["summary", "full"]))
    def test_random_heap_graphs_match_reference(self, plan, mode):
        assert_same_leaks(asm_image(render(plan)), mode)

    def test_every_root_kind_at_once(self):
        """One fixed program with every feature, so a plain run (no
        hypothesis search) exercises each path and checks the counts."""
        plan = {
            "sizes": [0, 1, 3, 4, 7, 8, 24, 4100],
            "links": [(7, 1, 3, 2), (3, 0, 4, 6)],
            "redzone": [(0, 8, 1, False), (2, -8, 2, False), (0, 0, 5, True)],
            "frees": [4],
            "roots": [("data", 7, 4099), ("stack", 6, 23), ("reg", 0, 0),
                      ("mmap", 2, 1), ("hidden", 1, 0),
                      ("dead_stack", 1, 0), ("data", 4, 0)],
            "mmap": True,
            "midrun": "late",
            "midrun_full": 1,
            "clear": "noaccess",
        }
        res = assert_same_leaks(asm_image(render(plan)), "full")
        # Reached: 7 (.data) -> 3 -> (4 is freed); 6 (stack); 5 (from
        # the word at zero-size block 0's payload address, a red-zone
        # word made addressable); 0 (register); 2 (mmap page).  Lost: 1
        # (its only pointers sit in a red zone, a noaccess word and
        # below sp).
        assert res.tool._leak_result == {
            "definitely_lost_blocks": 1,
            "definitely_lost_bytes": 1,
            "still_reachable_blocks": 6,
            "still_reachable_bytes": 0 + 3 + 4 + 8 + 24 + 4100,
        }
