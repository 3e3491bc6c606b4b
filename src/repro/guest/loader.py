"""The program loader (Section 3.3).

Unlike most DBI frameworks, which inject themselves into a normally-
started process, Valgrind has *its own program loader*: the core loads
the client executable (or the interpreter, for scripts), sets up its
stack and data segment, and only then starts translating from the first
instruction — which is what gives the framework complete control from
instruction one and 100% coverage.

This module is that loader for VxImages.  It reports every mapping it
creates through an ``announce`` callback so the core can fire
``new_mem_startup`` (R5); the native runner passes a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..kernel.kernel import Kernel
from ..kernel.memory import PAGE_SIZE, PROT_RW, PROT_RWX, prot_from_str
from ..libc.hostlib import SCRATCH_ADDR, SCRATCH_SIZE
from .program import VxImage

#: Default top of the initial client stack.
DEFAULT_STACK_TOP = 0xBFFF_0000

#: The signal-return trampoline page (see repro.kernel.sigframe).
SIGPAGE_ADDR = 0x0000_F000

#: Where additional thread stacks are carved from.
THREAD_STACK_REGION = 0xB100_0000


@dataclass
class LoadedProgram:
    """Everything the execution engine needs to start the client."""

    image: VxImage
    entry: int
    initial_sp: int
    stack_base: int   # lowest mapped stack address
    stack_top: int
    argv: List[str] = field(default_factory=list)
    #: Images loaded (main image, plus interpreter for scripts).
    images: List[VxImage] = field(default_factory=list)

    def symbol(self, name: str) -> int:
        for img in self.images:
            if name in img.symbols:
                return img.symbols[name]
        raise KeyError(f"symbol {name!r} not found")

    def symbol_at(self, addr: int):
        best = None
        for img in self.images:
            hit = img.symbol_at(addr)
            if hit and (best is None or hit[1] < best[1]):
                best = hit
        return best

    def line_at(self, addr: int):
        for img in self.images:
            li = img.line_at(addr)
            if li is not None:
                return li
        return None


Announce = Callable[[int, int, bool, bool, bool], None]


def _no_announce(addr: int, size: int, r: bool, w: bool, x: bool) -> None:
    pass


def load_program(
    image: VxImage,
    kernel: Kernel,
    argv: Optional[List[str]] = None,
    *,
    stack_size: int = 1024 * 1024,
    stack_top: int = DEFAULT_STACK_TOP,
    announce: Announce = None,
    resolve_image: Optional[Callable[[str], VxImage]] = None,
) -> LoadedProgram:
    """Load *image* (and its interpreter, if it is a script) into the
    kernel's memory, build the initial stack, and return the start state.
    """
    announce = announce or _no_announce
    mem = kernel.memory
    argv = list(argv if argv is not None else [image.name])
    images: List[VxImage] = []

    # Scripts: load the interpreter instead, passing the script as argv[0].
    if image.interpreter is not None:
        if resolve_image is None:
            raise ValueError(
                f"{image.name} is a script needing {image.interpreter!r}, "
                "but no resolve_image callback was given"
            )
        interp = resolve_image(image.interpreter)
        argv = [interp.name, image.name] + argv[1:]
        images.append(image)  # keep for symbol lookup (data files etc.)
        image = interp

    images.insert(0, image)

    # Map the text and data segments.
    top_of_data = 0
    for seg in image.segments:
        base = seg.addr & ~(PAGE_SIZE - 1)
        end = (seg.end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        prot = prot_from_str(seg.perms)
        mem.map(base, end - base, prot)
        mem.write_raw(seg.addr, seg.data)
        announce(base, end - base, "r" in seg.perms, "w" in seg.perms,
                 "x" in seg.perms)
        top_of_data = max(top_of_data, end)

    # The data segment's end is where the brk heap begins.
    kernel.set_brk_base(top_of_data)

    # The host-libc scratch page (treated as startup-initialised memory).
    mem.map(SCRATCH_ADDR, SCRATCH_SIZE, PROT_RW)
    announce(SCRATCH_ADDR, SCRATCH_SIZE, True, True, False)

    # The signal trampoline page.
    from ..kernel.sigframe import install_sigpage

    install_sigpage(mem, SIGPAGE_ADDR)
    announce(SIGPAGE_ADDR, PAGE_SIZE, True, False, True)

    # The initial stack.  Executable, as on pre-NX systems: GCC-style
    # nested-function trampolines live there (the paper's main source of
    # self-modifying code, Section 3.16).
    stack_base = stack_top - stack_size
    mem.map(stack_base, stack_size, PROT_RWX)
    announce(stack_base, stack_size, True, True, True)

    # Write argv strings and the argv array at the very top of the stack.
    sp = stack_top
    arg_addrs: List[int] = []
    for a in argv:
        raw = a.encode() + b"\0"
        sp -= len(raw)
        mem.write_raw(sp, raw)
        arg_addrs.append(sp)
    sp &= ~7  # align
    # argv array (NULL terminated).
    sp -= 4 * (len(argv) + 1)
    argv_array = sp
    for i, addr in enumerate(arg_addrs):
        mem.store32(argv_array + 4 * i, addr)
    mem.store32(argv_array + 4 * len(argv), 0)
    # [sp] = argc, [sp+4] = argv.
    sp -= 8
    mem.store32(sp, len(argv))
    mem.store32(sp + 4, argv_array)

    return LoadedProgram(
        image=image,
        entry=image.entry,
        initial_sp=sp,
        stack_base=stack_base,
        stack_top=stack_top,
        argv=argv,
        images=images,
    )
