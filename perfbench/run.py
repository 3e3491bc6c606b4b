"""The repository benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload exec-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run and writes its spans as Chrome
trace-event JSON under ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Exit status: 0 when every job
matched the reference CPU, 1 when one did not, 2 on a usage or set-up
error (no result line), 3 when a cold/warm pass did not start from the
cache state it claims (no result line).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

#: Environment knobs that would change which engine the flags select.
ENGINE_ENV = ("REPRO_CODEGEN", "REPRO_CACHE_DIR", "REPRO_MEMCHECK_FASTPATH",
              "REPRO_NUMPY")

END_TO_END = (
    ("guest_mips", "Minsn/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def parse_args(argv):
    from harness.bench import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="shuffles the job order of every pass")
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal measured seconds (sets the pass count)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def preload() -> None:
    """Import every engine module now, so no job pays a first import."""
    import importlib
    import pkgutil

    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith("__main__"):
            importlib.import_module(mod.name)


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def slowdowns(bench, passes) -> dict:
    """Table-2 style slowdown per tool (job wall / reference-CPU wall,
    geometric mean over programs).  Printed for information only."""
    from harness.metrics import median

    walls = {}
    for p in passes:
        for o in p.outcomes:
            walls.setdefault((o.job.tool, o.job.program), []).append(o.wall)
    per_tool = {}
    for (tool, prog), ws in walls.items():
        per_tool.setdefault(tool, []).append(median(ws) / bench.native_s[prog])
    return {tool: geomean(v) for tool, v in per_tool.items()}


def end_to_end(bench, passes, setups) -> dict:
    from harness import hostspeed
    from harness.metrics import end_to_end_values

    outcomes = [o for p in passes for o in p.outcomes]
    if bench.wl.cache is not None:
        rss_kb = max(o.maxrss_kb for o in outcomes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, _ = end_to_end_values(
        [o.wall for o in outcomes], sum(o.guest_insns for o in outcomes),
        [p.wall for p in passes], [s for s, _ in setups], rss_kb,
        attempted=bench.attempted, failed=len(bench.failures))
    # Timed metrics are rescaled to the reference host speed: jobs and
    # passes by every probe of the run, each set-up by its own probes.
    k = hostspeed.scale(bench.probes)
    values, notes = end_to_end_values(
        [o.wall * k for o in outcomes], sum(o.guest_insns for o in outcomes),
        [p.wall * k for p in passes], [s for _, s in setups], rss_kb,
        attempted=bench.attempted, failed=len(bench.failures))
    print(f"  host speed: probe median {hostspeed.REF_S / k * 1e3:.2f} ms over "
          f"{len(bench.probes)} probes (reference {hostspeed.REF_S * 1e3:.2f} ms); "
          f"timed metrics x{k:.4f}")
    print(f"  {'metric':<40} {'value':>14}  {'unit':<8} {'unscaled':>12}")
    for name, unit in END_TO_END:
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {values[name]:>14.6f}  {unit:<8} "
              f"{raw[name]:>12.6f}{extra}")
    info = ", ".join(f"{t} {x:.2f}x" for t, x in
                     sorted(slowdowns(bench, passes).items()))
    print(f"  info: slowdown vs reference CPU (not a metric): {info}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_untraced(bench, seconds: float) -> dict:
    wl = bench.wl
    setups = []
    for i in range(SETUP_REPEATS):
        # An in-process warm-up fills process-wide caches, so all but the
        # set-up whose caches the timed passes use run in fresh processes.
        if wl.warmup and i < SETUP_REPEATS - 1:
            setups.append(tuple(bench.setup_fresh()))
        else:
            setups.append(bench.setup())
    n = max(2, round(seconds / wl.pass_s))
    passes = [bench.timed_pass(i) for i in range(n)]
    print(f"perfbench {wl.name}: engine={wl.engine} seed={bench.seed} "
          f"scale={wl.scale} passes={n} jobs/pass={len(bench.jobs)} "
          f"pass walls={', '.join(f'{p.wall:.2f}' for p in passes)}s")
    return end_to_end(bench, passes, setups)


def run_traced(bench, seconds: float) -> dict:
    from harness import layers
    from harness.spans import Patches, Tracer, self_times, write_chrome_trace

    wl = bench.wl
    tracer = bench.tracer
    patches = Patches(tracer)

    def traced(fn):
        layers.install(patches)
        bench.tracing = True
        try:
            return fn()
        finally:
            bench.tracing = False
            patches.undo()

    tracer.reset()
    traced(bench.setup)
    setup_spans = tracer.spans
    asm_s = self_times(setup_spans).get("guest.asm", 0.0)
    tracer.reset()
    pairs = max(1, round(seconds / (2 * wl.pass_s)))
    plain, spanned = [], []
    for i in range(pairs):
        plain.append(bench.timed_pass(2 * i))
        spanned.append(traced(lambda: bench.timed_pass(2 * i + 1)))
    outcomes = [o for p in spanned for o in p.outcomes]
    values = layers.layer_metrics(
        tracer.spans, tracer.counters,
        {o.run_id: o.job.tool for o in outcomes},
        [o.stats for o in outcomes if o.stats is not None],
        passes=pairs,
        traced_wall=sum(p.wall for p in spanned),
        untraced_wall=sum(p.wall for p in plain),
        asm_s=asm_s,
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{bench.seed}.json")
    everything = Tracer()
    everything.merge([s.as_list() for s in setup_spans], {})
    everything.merge([s.as_list() for s in tracer.spans], {})
    write_chrome_trace(path, everything.spans,
                       {"workload": wl.name, "seed": bench.seed,
                        "engine": wl.engine, "traced_passes": pairs})

    print(f"perfbench {wl.name} (traced): engine={wl.engine} "
          f"seed={bench.seed} scale={wl.scale} pass pairs={pairs} "
          f"spans={len(tracer.spans)} -> {os.path.relpath(path, ROOT)}")
    wall = values["traced.pass_s"]
    top = ", ".join(f"{name} {secs / pairs / wall:.1%}"
                    for name, secs in layers.top_layers(tracer.spans))
    print(f"  top self time (share of traced pass wall): {top}")
    print(f"  {'metric':<40} {'value':>14}  unit")
    for name, unit, _better in layers.PER_LAYER:
        print(f"  {name:<40} {values[name]:>14.6f}  {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in layers.PER_LAYER}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"perfbench: no engine sources at {SRC}/repro; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    for var in ENGINE_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    preload()

    from harness.bench import WORKLOADS, Bench, PreconditionError
    from harness.spans import Tracer

    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work, Tracer())
    try:
        bench.compute_refs()
        run = run_traced if args.trace else run_untraced
        metrics = run(bench, args.seconds)
    except PreconditionError as exc:
        print(f"perfbench: cache precondition violated: {exc}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.failures:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
