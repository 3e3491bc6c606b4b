"""The top level: Valgrind core + tool plug-in = Valgrind tool.

Start-up follows Section 3.3: initialise the address-space manager and
the core's internal allocator, let the tool initialise itself
(``pre_clo_init``), process the command line, load the client executable
(or its script interpreter) with the core's own loader, set up the
client's stack and data segment, initialise the translation table and
signal machinery and scheduler, load debug information — and then the
tool is in complete control from the client's first instruction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Union

from ..frontend.helpers import register_frontend_helpers
from ..guest.loader import LoadedProgram, load_program
from ..guest.program import VxImage
from ..ir.helpers import HelperRegistry
from ..kernel.fs import FileSystem
from ..kernel.kernel import Kernel
from ..kernel.memory import GuestMemory
from ..libc.hostlib import LibC
from .allocator import CORE_REGION_BASE, CORE_REGION_END, CoreAllocator
from .errors import ErrorManager, Frame
from .events import EventRegistry
from .function_wrap import FunctionRedirector
from .options import Options
from .scheduler import RunOutcome, Scheduler
from .tool import Tool


@dataclass
class VgResult:
    """Everything a run produced."""

    exit_code: int
    stdout: str
    stderr: str
    #: The core/tool log (the R9 side channel).
    log: str
    outcome: RunOutcome
    tool: Tool
    core: "Valgrind"

    @property
    def errors(self) -> list:
        return self.core.error_mgr.errors if self.core.error_mgr else []

    def stats(self) -> dict:
        """Run statistics (the ``--stats=json`` payload)."""
        return self.core.stats_dict(self.outcome)


class Valgrind:
    """One core instance, bound to one tool."""

    def __init__(self, tool: Union[Tool, str], options: Optional[Options] = None):
        if isinstance(tool, str):
            from ..tools import create_tool

            tool = create_tool(tool)
        self.tool = tool
        self.options = options or Options()

        # Core sub-systems, in (roughly) the paper's start-up order: the
        # address space manager and the core's own allocator come first.
        self.memory = GuestMemory()
        self.kernel = Kernel(self.memory, FileSystem())
        self.kernel.forbidden.append((CORE_REGION_BASE, CORE_REGION_END))
        self.allocator = CoreAllocator(self.memory)
        self.events = EventRegistry()
        self.helpers = HelperRegistry()
        register_frontend_helpers(self.helpers)
        self.libc = LibC()
        self.redirector = FunctionRedirector(self.libc)

        self._log_lines: List[str] = []
        self._log_file = None
        self.program: Optional[LoadedProgram] = None
        self.scheduler: Optional[Scheduler] = None
        #: Optional embedding hook, forwarded to the scheduler: called
        #: with guest_insns at every dispatch-quantum boundary (the fleet
        #: worker heartbeat).  Set it before run().
        self.on_progress = None
        self.error_mgr = ErrorManager(self.tool.name, self.log, self._symbolise)

        # Tell the tool to initialise itself, then give it the unclaimed
        # command-line options.
        self.tool.pre_clo_init(self)
        for opt in self.options.tool_options:
            if not self.tool.process_cmd_line_option(opt):
                raise ValueError(f"unrecognised option {opt!r}")

    # -- services for tools ------------------------------------------------------------

    def log(self, message: str) -> None:
        """Write to the tool/core output side channel (requirement R9)."""
        self._log_lines.append(message)
        target = self.options.log_target
        if target == "capture":
            return
        if target == "stderr":
            print(message, file=sys.stderr)
        elif target == "stdout":
            print(message)
        else:
            if self._log_file is None:
                self._log_file = open(target, "w")
            self._log_file.write(message + "\n")

    @property
    def log_text(self) -> str:
        return "\n".join(self._log_lines)

    def _symbolise(self, pc: int) -> Frame:
        symbol, offset, location = "", 0, ""
        if self.program is not None:
            hit = self.program.symbol_at(pc)
            if hit is not None:
                symbol, offset = hit
            li = self.program.line_at(pc)
            if li is not None:
                location = f"{li.filename}:{li.line}"
        return Frame(pc, symbol, offset, location)

    def stack_trace_pcs(self, max_depth: int = 16) -> List[int]:
        if self.scheduler is None:
            return []
        return self.scheduler.env.stack_trace_pcs(max_depth)

    def stats_dict(self, outcome: Optional[RunOutcome] = None) -> dict:
        """Collect core statistics — dispatcher, translation table, chain
        registry, host code, SMC — as one JSON-able dict."""
        from dataclasses import asdict

        sched = self.scheduler
        if sched is None:
            return {"tool": self.tool.name}
        d = sched.dispatcher
        out = {
            "tool": self.tool.name,
            "dispatch": {
                **asdict(d.stats),
                "mega_hits": 0,  # retired megacache; perfbench still sums it
                "hit_rate": d.stats.hit_rate,
                "guest_insns": d.guest_insns,
            },
            "transtab": {
                **asdict(sched.transtab.stats),
                "entries": sched.transtab.capacity,
                "load": sched.transtab.load,
            },
            "chains": {
                "links_made": sched.transtab.chains.links_made,
                "links_severed": sched.transtab.chains.links_severed,
                "live_links": len(sched.transtab.chains),
            },
            "compiled_code": {"host_insns": sched.hostcpu.host_insns},
            "smc": {"checks": sched.smc.checks, "misses": sched.smc.misses},
            "translations_made": sched.translator.translations_made,
            "translation_cache": sched.translator.tier_stats(),
            "codegen": sched.codegen.stats_dict(sched.transtab),
            "traces": (sched.traces.stats_dict()
                       if sched.traces is not None else None),
            "robustness": {
                "quarantined_blocks": sched.quarantined_blocks,
                "faults_recovered": sched.faults_recovered,
                "pygen_demotions": sched.codegen.stats.demotions,
                "stopped_reason": sched.stopped_reason,
                "injection": sched.injector.stats() if sched.injector else None,
            },
            "replay": sched.rr.stats_dict() if sched.rr is not None else None,
            "cache": (sched.codecache.stats_dict()
                      if sched.codecache is not None else None),
        }
        tool_sections = self.tool.stats_dict()
        if tool_sections:
            out.update(tool_sections)
        if outcome is not None:
            out["exit_code"] = outcome.exit_code
            out["blocks_executed"] = outcome.blocks_executed
        return out

    def record_error(
        self,
        kind: str,
        message: str,
        addr: Optional[int] = None,
        extra: Optional[object] = None,
    ):
        """Record a tool error at the current guest location."""
        tid = self.scheduler.current_tid if self.scheduler else 0
        return self.error_mgr.record(
            kind, message, tid, self.stack_trace_pcs(), addr=addr, extra=extra
        )

    # -- running --------------------------------------------------------------------------

    def _announce_startup(self, addr: int, size: int, r: bool, w: bool, x: bool):
        self.events.fire("new_mem_startup", addr, size, r, w, x)

    def run(
        self,
        image: VxImage,
        argv: Optional[List[str]] = None,
        *,
        stdin: bytes = b"",
        max_blocks: Optional[int] = None,
        resolve_image=None,
    ) -> VgResult:
        """Load and run the client to completion under the tool."""
        self.kernel.fs.set_stdin(stdin)
        for path in self.options.suppressions:
            with open(path) as f:
                self.error_mgr.load_suppressions(f.read())

        self.program = load_program(
            image,
            self.kernel,
            argv,
            stack_size=self.options.stack_size,
            announce=self._announce_startup,
            resolve_image=resolve_image,
        )
        self.scheduler = Scheduler(
            core=self,
            kernel=self.kernel,
            program=self.program,
            tool=self.tool,
            options=self.options,
            events=self.events,
            helpers=self.helpers,
            libc=self.libc,
            redirector=self.redirector,
            error_mgr=self.error_mgr,
        )
        self.scheduler.on_progress = self.on_progress
        try:
            if self.options.restore:
                self.scheduler.restore_from(self.options.restore)
            self.tool.post_clo_init()
            outcome = self.scheduler.run(max_blocks=max_blocks)
        finally:
            # The run's code-cache stores become one pack (core.codecache).
            if self.scheduler.codecache is not None:
                self.scheduler.codecache.flush()
        if self.options.record and self.scheduler.rr is not None:
            self.scheduler.rr.write(self.options.record)
        self.tool.fini(outcome.exit_code)
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None
        return VgResult(
            exit_code=outcome.exit_code,
            stdout=self.kernel.fs.stdout_text(),
            stderr=self.kernel.fs.stderr_text(),
            log=self.log_text,
            outcome=outcome,
            tool=self.tool,
            core=self,
        )


def run_tool(
    tool: Union[Tool, str],
    image: VxImage,
    argv: Optional[List[str]] = None,
    *,
    options: Optional[Options] = None,
    stdin: bytes = b"",
    max_blocks: Optional[int] = None,
) -> VgResult:
    """Convenience one-shot: build a core around *tool* and run *image*."""
    vg = Valgrind(tool, options)
    return vg.run(image, argv, stdin=stdin, max_blocks=max_blocks)
