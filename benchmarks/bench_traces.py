"""Superblock/trace tier: blocks/sec vs the per-block pygen tier.

The trace tier (see :mod:`repro.core.traces`) records hot chained
successor sequences in the dispatcher, splices the member blocks' host
code into one superblock (each seam's final jump dropped, inverted into
a side exit or guarded) and compiles the result to a single pygen
function.  A trace run retires several blocks per dispatcher iteration,
and the emitter keeps guest state in Python locals *across* the
original block seams — the Python analogue of Valgrind's
chained-and-inlined hot paths.

This bench reuses the ``bench_codegen`` program set and measures

* ``pygen``  — the ``pygen`` engine: chained dispatch, every block its
  own pygen function;
* ``traces`` — the ``fast`` engine: the same, plus superblocks over hot
  chains.

Gate: traces must clear a 1.15x blocks/sec geomean over pygen for
Nulgrind at the default scale, with byte-identical output.  Results are
written machine-readable to ``BENCH_traces.json`` at the repo root.
"""

import pathlib
import time

from repro import Options, run_native, run_tool
from repro.core.engines import ENGINES as REGISTRY
from repro.workloads.suite import build

from conftest import SCALE, geomean, save_and_show, save_bench_json

#: Same reasoning as bench_codegen, with a higher floor: a trace pays
#: translation *plus* recording, splicing and superblock compilation
#: before its first run, so the steady state it buys only shows at a
#: scale where execution dominates that warm-up.  --quick smoke runs
#: keep their tiny scale and get a proportionally relaxed gate.
TR_SCALE = SCALE if SCALE < 0.2 else max(SCALE, 1.0)

PROGRAMS = ("gzip", "mcf", "twolf", "swim")

#: Column label (and BENCH_traces.json key) -> registry engine.
ENGINES = {"pygen": "pygen", "traces": "fast"}

JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_traces.json"


def _timed_run(name, engine):
    """Best-of-two timed runs of one (program, engine) cell."""
    best = None
    for _ in range(2):
        wl = build(name, scale=TR_SCALE)
        opts = Options(log_target="capture",
                       **REGISTRY[ENGINES[engine]].options)
        t0 = time.perf_counter()
        res = run_tool("none", wl.image, options=opts)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, res)
    return best


def _run_suite():
    rows = []
    for name in PROGRAMS:
        wl = build(name, scale=TR_SCALE)
        t0 = time.perf_counter()
        nat = run_native(wl.image)
        t_native = time.perf_counter() - t0
        row = {"program": name, "native_s": t_native}
        for engine in ENGINES:
            dt, res = _timed_run(name, engine)
            assert res.stdout == nat.stdout, (name, engine)
            assert res.exit_code == nat.exit_code, (name, engine)
            cell = {
                "seconds": dt,
                "blocks": res.outcome.blocks_executed,
                "blocks_per_s": res.outcome.blocks_executed / dt,
                "guest_insns": res.outcome.guest_insns,
            }
            if engine == "traces":
                tm = res.core.scheduler.traces.stats_dict()
                cell["traces_built"] = tm["traces_built"]
                cell["trace_runs"] = tm["runs"]
                cell["side_exits"] = tm["side_exits"]
                # Fraction of all retired blocks that came from traces.
                cell["trace_block_coverage"] = (
                    tm["blocks_retired"] / res.outcome.blocks_executed
                    if res.outcome.blocks_executed else 0.0
                )
            row[engine] = cell
        # Per-tier accounting must agree exactly: a trace retires the
        # same blocks and guest insns the block tier would have.
        assert row["traces"]["blocks"] == row["pygen"]["blocks"], name
        assert row["traces"]["guest_insns"] == row["pygen"]["guest_insns"], name
        rows.append(row)
    return rows


def test_trace_tier(benchmark, capsys):
    # One warm-up round fills the process-wide runner/pygen source caches;
    # timings come from the second round.
    rows = benchmark.pedantic(_run_suite, rounds=1, iterations=1,
                              warmup_rounds=1)

    lines = [
        f"Trace tier: blocks/sec vs pygen (workload scale {TR_SCALE})",
        "",
        f"{'program':8s} "
        + "".join(f"{e:>10}" for e in ENGINES)
        + f" {'traces/pygen':>13} {'built':>6} {'coverage':>9}",
    ]
    ratios = []
    for row in rows:
        ratio = row["traces"]["blocks_per_s"] / row["pygen"]["blocks_per_s"]
        ratios.append(ratio)
        row["traces_vs_pygen"] = ratio
        lines.append(
            f"{row['program']:8s} "
            + "".join(f"{row[e]['blocks_per_s']:>10.0f}" for e in ENGINES)
            + f" {ratio:>12.2f}x {row['traces']['traces_built']:>6d}"
            + f" {row['traces']['trace_block_coverage']:>8.0%}"
        )
    gm = geomean(ratios)
    lines += [
        "-" * 64,
        f"geomean traces/pygen blocks/sec: {gm:.2f}x",
        "",
        "block and guest-insn counts are identical across tiers; every",
        "engine produced byte-identical output to the native run.",
    ]

    payload = {
        "bench": "traces",
        "scale": TR_SCALE,
        "engines": list(ENGINES),
        "rows": rows,
        "geomean": {"nulgrind_traces_vs_pygen": gm},
    }
    save_bench_json(JSON_PATH, payload)

    # The tier gate.  Tiny --quick/smoke scales spend most of the run
    # translating and recording rather than executing traces; the full
    # band applies at the default scale and above.
    if TR_SCALE >= 0.2:
        assert gm >= 1.15, gm
    else:
        assert gm >= 0.9, gm
    # Traces must actually form and carry real execution on every
    # workload — the ratio must come from superblocks, not noise.
    for row in rows:
        assert row["traces"]["traces_built"] >= 1, row["program"]
        assert row["traces"]["trace_block_coverage"] > 0.2, row["program"]

    save_and_show(capsys, "traces", lines)
