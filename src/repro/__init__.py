"""repro-valgrind: a reproduction of "Valgrind: A Framework for
Heavyweight Dynamic Binary Instrumentation" (Nethercote & Seward,
PLDI 2007) as a pure-Python system.

The package implements the paper's entire architecture over a synthetic
guest machine (see DESIGN.md for the substitution rationale):

* :mod:`repro.guest` — the vx32 guest ISA: assembler, encoder, reference CPU
* :mod:`repro.ir` — the D&R intermediate representation
* :mod:`repro.frontend` / :mod:`repro.opt` / :mod:`repro.backend` — the
  eight-phase JIT pipeline
* :mod:`repro.core` — the framework core: dispatcher, scheduler, events,
  syscall wrappers, signals, SMC handling, errors
* :mod:`repro.kernel` / :mod:`repro.libc` — the simulated OS and guest libc
* :mod:`repro.tools` — Nulgrind, ICnt*, Memcheck, Cachegrind, Massif,
  TaintCheck, Tracegrind
* :mod:`repro.baseline` — a copy-and-annotate framework (the Pin stand-in)
* :mod:`repro.workloads` — the 25 SPEC-shaped benchmark programs

Quickstart (the stable embedding surface is :mod:`repro.api`)::

    from repro import api

    result = api.run("prog.s", tool="memcheck")      # one classified job
    report = api.run_fleet(["a.s", "b.s"], tool="memcheck",
                           cache_dir="/tmp/codecache")
    api.replay("bundles/job0003-a2.bundle.json")     # crash forensics
    cache = api.open_cache("/tmp/codecache")         # inspect/share it

Lower-level pieces (assembler, cores, tools) remain importable::

    from repro import assemble, build_source, run_native, run_tool

    image = assemble(build_source(MY_ASM), filename="demo")
    print(run_native(image).stdout)            # bare-machine run
    result = run_tool("memcheck", image)       # run under Memcheck
    for error in result.errors:
        print(error.format())
"""

from . import api
from .api import (
    BadOption,
    FleetReport,
    FleetSupervisor,
    JobResult,
    JobSpec,
    Options,
    RetryPolicy,
    WatchdogConfig,
    load_image,
    open_cache,
    parse_argv,
    replay,
    replay_bundle,
    run,
    run_fleet,
)
from .core.tool import Tool
from .core.valgrind import Valgrind, VgResult, run_tool
from .guest.asm import assemble
from .guest.program import VxImage
from .libc.stubs import build_source
from .native import NativeResult, run_native
from .tools import available_tools, create_tool

__version__ = "1.1.0"

__all__ = [
    "api",
    "run",
    "run_fleet",
    "replay",
    "open_cache",
    "FleetReport",
    "Options",
    "BadOption",
    "parse_argv",
    "load_image",
    "FleetSupervisor",
    "JobResult",
    "JobSpec",
    "RetryPolicy",
    "WatchdogConfig",
    "replay_bundle",
    "Tool",
    "Valgrind",
    "VgResult",
    "run_tool",
    "assemble",
    "VxImage",
    "build_source",
    "NativeResult",
    "run_native",
    "available_tools",
    "create_tool",
    "__version__",
]
