"""Codegen-tier ablation: refcpu / default / chained closures / pygen.

The pygen tier (see :mod:`repro.backend.pygen`) compiles each
register-allocated block to one specialized CPython function — the
closest Python analogue of the paper's emit-real-host-code back-end.
This bench measures what each execution tier buys on the dispatcher
workloads (the Table 2 subset used by ``bench_dispatcher``):

* ``native``  — the reference CPU, no Valgrind (baseline wall clock);
* ``default`` — the ``paper`` engine, the paper-faithful closure tier;
* ``chained`` — the ``chained`` engine: the closure tier under the
  chained loop (``--chaining``);
* ``pygen``   — the ``pygen`` engine: the same chained loop with every
  block in the pygen tier.

The tier ratio pygen/chained compares two tiers under one dispatch loop,
so it isolates what the block tier buys.  Gate: see ``GATES`` (separate
bars for Nulgrind and for Memcheck, whose pygen code inlines the
LOADV/STOREV fast paths — see ``--memcheck-fastpath``), with
byte-identical output everywhere.  Results are also written machine-readable to
``BENCH_codegen.json`` at the repo root for trend tracking across PRs.
"""

import pathlib
import time

from repro import Options, run_native, run_tool
from repro.core.engines import ENGINES as REGISTRY
from repro.workloads.suite import build

from conftest import SCALE, geomean, save_and_show, save_bench_json

#: Tier ratios compare steady-state *execution* throughput, but each
#: timed run pays its translation cost up front — an additive constant
#: that dilutes blocks/sec at small scales.  Measure at a scale where
#: execution dominates; --quick smoke runs (scale < 0.2) keep their tiny
#: scale and get proportionally relaxed gates below.
CG_SCALE = SCALE if SCALE < 0.2 else max(SCALE, 0.4)

PROGRAMS = ("gzip", "mcf", "twolf", "swim")
#: Memcheck columns run on the integer pair only (FP Memcheck runs are
#: several times slower and add no new tiering behaviour).
MEMCHECK_PROGRAMS = ("gzip", "mcf")

#: Column label (and BENCH_codegen.json key) -> registry engine.
ENGINES = {"default": "paper", "chained": "chained", "pygen": "pygen"}

#: Geomean pygen/chained blocks/sec gates (Nulgrind, Memcheck).  Tiny
#: --quick/smoke scales dilute blocks/sec with per-run translation time
#: that a long-running process amortises, so they get their own bars.
#: Each keeps the margin the retired pygen/perf gate had against its
#: committed ratio (2.0x vs 2.28x Nulgrind, 1.6x vs 2.05x Memcheck; 1.2x
#: for both under --quick), applied to the measured pygen/chained median
#: (full: 3.81x / 7.24x; quick: 2.48x / 4.29x).
GATES = {"full": (3.3, 5.7), "quick": (1.3, 2.5)}

JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_codegen.json"


def _timed_run(tool, name, engine):
    """Best-of-two timed runs of one (tool, program, engine) cell."""
    best = None
    for _ in range(2):
        wl = build(name, scale=CG_SCALE)
        opts = Options(log_target="capture",
                       **REGISTRY[ENGINES[engine]].options)
        t0 = time.perf_counter()
        res = run_tool(tool, wl.image, options=opts)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, res)
    return best


def _run_suite():
    rows = []
    for name in PROGRAMS:
        tools = ("none", "memcheck") if name in MEMCHECK_PROGRAMS else ("none",)
        wl = build(name, scale=CG_SCALE)
        t0 = time.perf_counter()
        nat = run_native(wl.image)
        t_native = time.perf_counter() - t0
        for tool in tools:
            row = {"program": name, "tool": tool, "native_s": t_native}
            for engine in ENGINES:
                dt, res = _timed_run(tool, name, engine)
                assert res.stdout == nat.stdout, (name, tool, engine)
                assert res.exit_code == nat.exit_code, (name, tool, engine)
                row[engine] = {
                    "seconds": dt,
                    "blocks": res.outcome.blocks_executed,
                    "blocks_per_s": res.outcome.blocks_executed / dt,
                    "guest_insns": res.outcome.guest_insns,
                }
            rows.append(row)
    return rows


def test_codegen_tiers(benchmark, capsys):
    # One warm-up round fills the process-wide pygen source caches, as in
    # any long-running use; timings come from the second round.
    rows = benchmark.pedantic(_run_suite, rounds=1, iterations=1,
                              warmup_rounds=1)

    lines = [
        f"Codegen tiers: blocks/sec by engine (workload scale {CG_SCALE})",
        "",
        f"{'program':8s} {'tool':9s} "
        + "".join(f"{e:>10}" for e in ENGINES)
        + f" {'pygen/chained':>14}",
    ]
    ratios = {"none": [], "memcheck": []}
    for row in rows:
        ratio = row["pygen"]["blocks_per_s"] / row["chained"]["blocks_per_s"]
        ratios[row["tool"]].append(ratio)
        row["pygen_vs_chained"] = ratio
        lines.append(
            f"{row['program']:8s} {row['tool']:9s} "
            + "".join(f"{row[e]['blocks_per_s']:>10.0f}" for e in ENGINES)
            + f" {ratio:>13.2f}x"
        )
    gm_nulgrind = geomean(ratios["none"])
    gm_memcheck = geomean(ratios["memcheck"])
    lines += [
        "-" * 72,
        f"geomean pygen/chained blocks/sec: Nulgrind {gm_nulgrind:.2f}x, "
        f"Memcheck {gm_memcheck:.2f}x",
        "",
        "every engine produced byte-identical output to the native run.",
    ]

    payload = {
        "bench": "codegen",
        "scale": CG_SCALE,
        "engines": list(ENGINES),
        "rows": rows,
        "geomean": {
            "nulgrind_pygen_vs_chained": gm_nulgrind,
            "memcheck_pygen_vs_chained": gm_memcheck,
        },
    }
    save_bench_json(JSON_PATH, payload)

    # The tiering gate; the full bars apply at the default scale and above.
    gate_nulgrind, gate_memcheck = GATES["full" if CG_SCALE >= 0.2 else "quick"]
    assert gm_nulgrind >= gate_nulgrind, gm_nulgrind
    assert gm_memcheck >= gate_memcheck, gm_memcheck

    save_and_show(capsys, "codegen", lines)
