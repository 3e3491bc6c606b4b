"""Which engine functions the traced run wraps, and the per-layer
metrics derived from their spans and from each job's ``--stats=json``.

Span names are ``<module>.<layer>``.  The eight translation phases are
wrapped where :mod:`repro.core.translate` calls them (its module-level
names), so the trace builder's own back-end calls stay inside the
dispatch span that triggers them.  Per-block entry points
(``HostCPU.run``, ``TraceManager.on_block``) are never wrapped; their
numbers come from the stats counters.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Sequence

from .spans import Patches, Span, Tracer, call_counts, span_self, self_times

#: The benchmark's own span around each ``repro.api.run`` call.
JOB_SPAN = "job"

#: (span name, module, class or None for a module-level function, attribute)
WRAPS = (
    ("core.scheduler", "repro.core.scheduler", "Scheduler", "run"),
    ("core.dispatch", "repro.core.dispatch", "Dispatcher", "run"),
    ("core.translate", "repro.core.translate", "Translator", "translate"),
    ("core.traces.front_ir", "repro.core.translate", "Translator", "front_ir"),
    ("frontend.disasm", "repro.frontend.disasm", "Disassembler", "disasm_block"),
    ("opt.opt1", "repro.core.translate", None, "optimise1"),
    ("opt.opt2", "repro.core.translate", None, "optimise2"),
    ("opt.treebuild", "repro.core.translate", None, "build_trees"),
    ("backend.isel", "repro.core.translate", None, "select"),
    ("backend.regalloc", "repro.core.translate", None, "allocate"),
    ("backend.hostisa", "repro.core.translate", None, "encode_insns"),
    ("backend.pygen", "repro.backend.hostcpu", "HostCPU", "compile_pygen"),
    ("backend.hostcpu.compile", "repro.backend.hostcpu", "HostCPU", "compile"),
    ("backend.hostcpu.compile", "repro.backend.hostcpu", "HostCPU", "compile_fn"),
    ("core.codecache.lookup", "repro.core.codecache", "CodeCache", "lookup_translation"),
    ("core.codecache.lookup", "repro.core.codecache", "CodeCache", "load_pygen"),
    ("core.codecache.lookup", "repro.core.codecache", "CodeCache", "load_trace"),
    ("core.codecache.store", "repro.core.codecache", "CodeCache", "store_translation"),
    ("core.codecache.store", "repro.core.codecache", "CodeCache", "store_pygen"),
    ("core.codecache.store", "repro.core.codecache", "CodeCache", "store_trace"),
    ("kernel.syscall", "repro.kernel.kernel", "Kernel", "syscall"),
    ("guest.asm", "repro.workloads.suite", None, "assemble"),
)

#: Tool methods, wrapped on every Tool class that defines them.
TOOL_WRAPS = (("instrument", "tools.instrument"), ("fini", "tools.fini"))

PHASES = (
    "frontend.disasm", "opt.opt1", "tools.instrument", "opt.opt2",
    "opt.treebuild", "backend.isel", "backend.regalloc", "backend.hostisa",
)

#: Spans whose self time is translation-side work (compile time, as
#: opposed to running the translated code).
TRANSLATION_SIDE = ("core.translate",) + PHASES + (
    "backend.pygen", "core.traces.front_ir", "core.codecache.store",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.translate.calls", "count", "lower"),
    ("core.translate.self_s", "s", "lower"),
    ("frontend.disasm.self_s", "s", "lower"),
    ("opt.opt1.self_s", "s", "lower"),
    ("tools.instrument.self_s", "s", "lower"),
    ("opt.opt2.self_s", "s", "lower"),
    ("opt.treebuild.self_s", "s", "lower"),
    ("backend.isel.self_s", "s", "lower"),
    ("backend.regalloc.self_s", "s", "lower"),
    ("backend.hostisa.self_s", "s", "lower"),
    ("opt.opt2.stmts_per_block", "stmts/block", "lower"),
    ("backend.regalloc.host_insns_per_block", "insns/block", "lower"),
    ("backend.pygen.calls", "count", "lower"),
    ("backend.pygen.self_s", "s", "lower"),
    ("backend.hostcpu.compile_s", "s", "lower"),
    ("core.traces.front_ir_s", "s", "lower"),
    ("core.traces.built", "count", "higher"),
    ("core.traces.compile_s", "s", "lower"),
    ("core.traces.coverage", "ratio", "higher"),
    ("core.traces.side_exit_ratio", "ratio", "lower"),
    ("core.dispatch.calls", "count", "lower"),
    ("core.dispatch.self_s", "s", "lower"),
    ("core.dispatch.blocks_per_s", "blocks/s", "higher"),
    ("core.dispatch.hit_rate", "ratio", "higher"),
    ("core.dispatch.chained", "count", "higher"),
    ("core.scheduler.self_s", "s", "lower"),
    ("tools.memcheck.slow_ratio", "ratio", "lower"),
    ("tools.memcheck.cow_promotions", "count", "lower"),
    ("tools.fini.self_s", "s", "lower"),
    ("tools.fini.memcheck_job_s", "s", "lower"),
    ("guest.asm.self_s", "s", "lower"),
    ("core.valgrind.startup_s", "s", "lower"),
    ("core.codecache.lookup_s", "s", "lower"),
    ("core.codecache.store_s", "s", "lower"),
    ("core.codecache.hit_ratio", "ratio", "higher"),
    ("core.codecache.bytes_read", "bytes", "lower"),
    ("core.codecache.bytes_written", "bytes", "lower"),
    ("kernel.syscall.calls", "count", "lower"),
    ("kernel.syscall.self_s", "s", "lower"),
    ("translation.share", "ratio", "lower"),
    ("other.self_s", "s", "lower"),
    ("traced.pass_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _count_translation(tracer: Tracer, t) -> None:
    tracer.count("translations")
    tracer.count("stmts_opt2", t.stats.stmts_opt2)
    tracer.count("host_insns", t.stats.host_insns)


def install(patches: Patches) -> None:
    """Wrap every layer entry point in a span."""
    from repro.core.tool import Tool

    for name, module, cls, attr in WRAPS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        on_result = _count_translation if name == "core.translate" else None
        patches.wrap(owner, attr, name, on_result)
    todo, seen = [Tool], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr, name in TOOL_WRAPS:
            if attr in vars(cls):
                patches.wrap(cls, attr, name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stat_sums(stats_list: Sequence[dict]) -> Dict[str, float]:
    """Sum the counters the per-layer metrics read, over jobs."""
    out: Dict[str, float] = {}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + (value or 0)

    for st in stats_list:
        d = st["dispatch"]
        for k in ("blocks_executed", "fast_hits", "slow_hits", "chained",
                  "mega_hits", "misses"):
            add(f"dispatch.{k}", d[k])
        tr = st.get("traces") or {}
        for k in ("traces_built", "blocks_retired", "side_exits", "runs",
                  "compile_seconds"):
            add(f"traces.{k}", tr.get(k))
        mc = st.get("memcheck_shadow")
        if mc:
            add("memcheck.cow_promotions", mc["cow_promotions"])
            fp = mc["fastpath"]
            add("memcheck.fast", fp["fast_loads"] + fp["fast_stores"])
            add("memcheck.slow", fp["slow_loads"] + fp["slow_stores"])
        c = st.get("cache") or {}
        for k in ("hits", "misses", "pygen_hits", "pygen_misses",
                  "trace_hits", "trace_misses", "bytes_read",
                  "bytes_written"):
            add(f"cache.{k}", c.get(k))
    return out


def layer_metrics(
    spans: List[Span],
    counters: Dict[str, float],
    job_tools: Dict[int, str],
    stats_list: Sequence[dict],
    *,
    passes: int,
    traced_wall: float,
    untraced_wall: float,
    asm_s: float,
) -> Dict[str, float]:
    """Every PER_LAYER metric, per traced pass.

    *spans* and *counters* cover *passes* traced passes whose jobs ran
    the tools in *job_tools* (job id -> tool) and reported *stats_list*;
    *traced_wall* / *untraced_wall* are the summed pass walls of the
    traced passes and of as many untraced ones; *asm_s* is the assembly
    self time of one set-up.
    """
    st = self_times(spans)
    calls = call_counts(spans)
    own = span_self(spans)
    sums = _stat_sums(stats_list)

    def per(x: float) -> float:
        return x / passes

    def s(name: str) -> float:
        return st.get(name, 0.0)

    root_start = {sp.job: sp.start for sp in spans if sp.name == JOB_SPAN}
    startup = sum(sp.start - root_start[sp.job] for sp in spans
                  if sp.name == "core.scheduler" and sp.job in root_start)
    memcheck_jobs = [j for j, tool in job_tools.items() if tool == "memcheck"]
    fini_memcheck = sum(o for sp, o in zip(spans, own)
                        if sp.name == "tools.fini"
                        and job_tools.get(sp.job) == "memcheck")
    layer_self = sum(v for k, v in st.items() if k != JOB_SPAN)
    lookups = sum(sums.get(f"cache.{k}", 0) for k in (
        "hits", "misses", "pygen_hits", "pygen_misses", "trace_hits",
        "trace_misses"))
    cache_hits = sum(sums.get(f"cache.{k}", 0) for k in (
        "hits", "pygen_hits", "trace_hits"))
    d_hits = (sums["dispatch.fast_hits"] + sums["dispatch.chained"]
              + sums["dispatch.mega_hits"])
    d_all = d_hits + sums["dispatch.slow_hits"] + sums["dispatch.misses"]

    m = {
        "core.translate.calls": per(calls.get("core.translate", 0)),
        "core.translate.self_s": per(s("core.translate")),
    }
    for phase in PHASES:
        m[f"{phase}.self_s"] = per(s(phase))
    m.update({
        "opt.opt2.stmts_per_block": _ratio(counters.get("stmts_opt2", 0),
                                           counters.get("translations", 0)),
        "backend.regalloc.host_insns_per_block": _ratio(
            counters.get("host_insns", 0), counters.get("translations", 0)),
        "backend.pygen.calls": per(calls.get("backend.pygen", 0)),
        "backend.pygen.self_s": per(s("backend.pygen")),
        "backend.hostcpu.compile_s": per(s("backend.hostcpu.compile")),
        "core.traces.front_ir_s": per(sum(
            sp.dur for sp in spans if sp.name == "core.traces.front_ir")),
        "core.traces.built": per(sums["traces.traces_built"]),
        "core.traces.compile_s": per(sums["traces.compile_seconds"]),
        "core.traces.coverage": _ratio(sums["traces.blocks_retired"],
                                       sums["dispatch.blocks_executed"]),
        "core.traces.side_exit_ratio": _ratio(sums["traces.side_exits"],
                                              sums["traces.runs"]),
        "core.dispatch.calls": per(calls.get("core.dispatch", 0)),
        "core.dispatch.self_s": per(s("core.dispatch")),
        "core.dispatch.blocks_per_s": _ratio(sums["dispatch.blocks_executed"],
                                             s("core.dispatch")),
        "core.dispatch.hit_rate": _ratio(d_hits, d_all),
        "core.dispatch.chained": per(sums["dispatch.chained"]),
        "core.scheduler.self_s": per(s("core.scheduler")),
        "tools.memcheck.slow_ratio": _ratio(
            sums.get("memcheck.slow", 0),
            sums.get("memcheck.slow", 0) + sums.get("memcheck.fast", 0)),
        "tools.memcheck.cow_promotions": per(
            sums.get("memcheck.cow_promotions", 0)),
        "tools.fini.self_s": per(s("tools.fini")),
        "tools.fini.memcheck_job_s": _ratio(fini_memcheck, len(memcheck_jobs)),
        "guest.asm.self_s": asm_s,
        "core.valgrind.startup_s": per(startup),
        "core.codecache.lookup_s": per(s("core.codecache.lookup")),
        "core.codecache.store_s": per(s("core.codecache.store")),
        "core.codecache.hit_ratio": _ratio(cache_hits, lookups),
        "core.codecache.bytes_read": per(sums["cache.bytes_read"]),
        "core.codecache.bytes_written": per(sums["cache.bytes_written"]),
        "kernel.syscall.calls": per(calls.get("kernel.syscall", 0)),
        "kernel.syscall.self_s": per(s("kernel.syscall")),
        "translation.share": _ratio(sum(s(n) for n in TRANSLATION_SIDE),
                                    traced_wall),
        "other.self_s": per(traced_wall - layer_self),
        "traced.pass_s": per(traced_wall),
        "trace_overhead": _ratio(traced_wall, untraced_wall),
    })
    return m


def top_layers(spans: List[Span], n: int = 5) -> List[tuple]:
    """The *n* span names with the most self time (job roots excluded)."""
    st = self_times(spans)
    st.pop(JOB_SPAN, None)
    return sorted(st.items(), key=lambda kv: -kv[1])[:n]

