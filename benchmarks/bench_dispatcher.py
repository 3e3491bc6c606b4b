"""S3.9 — the dispatcher: fast-cache hit rate, the chaining ablation, and
the repo's fastest engine.

Paper: the direct-mapped fast look-up hits ~98% of the time; the fast
case takes fourteen instructions; Valgrind does no chaining, yet its
no-instrumentation slow-down is only 4.3x (vs Strata, where chaining took
22.1x to 4.1x, because dispatching cost ~250 cycles).

We measure the hit rate on the workload suite, and run the chaining
ablation the paper's old JIT used to have: with chaining on, executions
bypass the dispatcher cache entirely, and the speedup is *modest* —
because the dispatcher is fast, the paper's argument.

The third column is this repo's fastest engine, the repo benchmark's
``fast`` engine (``--chaining=yes --codegen=traces``: the chained loop
running pygen blocks and superblock traces): it must clear its
blocks/sec geomean gate over the default mode while producing
byte-identical output.
"""

import gc
import time

from repro import Options, run_tool
from repro.workloads.suite import build

from conftest import SCALE, geomean, save_and_show

PROGRAMS = ("gzip", "mcf", "twolf", "swim")

#: The fast engine's blocks/sec geomean gate over the default mode: the
#: retired ``--perf`` column's margin (a 1.3x gate against a measured
#: 1.57x) applied to the fast engine's measured median at each scale
#: (3.18x at the default scale, 2.44x under --quick).
FAST_GATE = 2.6 if SCALE >= 0.2 else 2.0


def test_dispatcher_and_chaining(benchmark, capsys):
    def sweep():
        rows = []
        for name in PROGRAMS:
            wl = build(name, scale=SCALE)
            # A full gen-2 collection costs tens of ms against ~50ms
            # phases; whose timer absorbs it depends on the process's
            # allocation history, not on the mode under test.  Collect
            # before each timer so every phase starts from the same GC
            # state.
            gc.collect()
            t0 = time.perf_counter()
            plain = run_tool("none", wl.image, options=Options(log_target="capture"))
            t_plain = time.perf_counter() - t0
            gc.collect()
            t0 = time.perf_counter()
            chained = run_tool(
                "none", wl.image,
                options=Options(log_target="capture", chaining=True),
            )
            t_chain = time.perf_counter() - t0
            gc.collect()
            t0 = time.perf_counter()
            fast = run_tool(
                "none", wl.image,
                options=Options(log_target="capture", chaining=True,
                                codegen="traces"),
            )
            t_fast = time.perf_counter() - t0
            assert chained.stdout == plain.stdout
            assert fast.stdout == plain.stdout
            assert fast.exit_code == plain.exit_code
            rows.append((name, plain, t_plain, chained, t_chain, fast, t_fast))
        return rows

    # One warm-up round lets the process-wide pygen source caches fill, as
    # they would in any long-running use; timings come from the second
    # round.
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=1)

    lines = [
        "Section 3.9: dispatcher fast-cache, chaining ablation, fast engine",
        "",
        f"{'program':8s} {'blocks':>9} {'hit rate':>9} {'chained':>9} "
        f"{'t(plain)':>9} {'t(chain)':>9} {'t(fast)':>9} "
        f"{'chain':>7} {'fast':>7}",
    ]
    hit_rates = []
    chain_speedups = []
    fast_speedups = []
    for name, plain, t_plain, chained, t_chain, fast, t_fast in rows:
        s1 = plain.core.scheduler.dispatcher.stats
        s2 = chained.core.scheduler.dispatcher.stats
        s3 = fast.core.scheduler.dispatcher.stats
        hit_rates.append(s1.hit_rate)
        chain_speedups.append(t_plain / t_chain)
        # blocks/sec improvement (block counts agree between modes, but be
        # explicit: this is a throughput ratio, not a wall-clock ratio).
        bps_plain = s1.blocks_executed / t_plain
        bps_fast = s3.blocks_executed / t_fast
        fast_speedups.append(bps_fast / bps_plain)
        lines.append(
            f"{name:8s} {s1.blocks_executed:>9} {s1.hit_rate:>9.1%} "
            f"{s2.chained:>9} {t_plain:>8.3f}s {t_chain:>8.3f}s "
            f"{t_fast:>8.3f}s {t_plain / t_chain:>6.2f}x "
            f"{bps_fast / bps_plain:>6.2f}x"
        )
    mean_hit = sum(hit_rates) / len(hit_rates)
    mean_chain = geomean(chain_speedups)
    mean_fast = geomean(fast_speedups)
    lines += [
        "",
        f"mean fast-lookup hit rate: {mean_hit:.1%}  (paper: ~98%)",
        f"chaining speedup (geomean): {mean_chain:.2f}x  "
        "(paper's argument: small, because the dispatcher is fast —",
        " unlike Strata's 250-cycle dispatch, where chaining gave 5.4x)",
        f"fast engine blocks/sec improvement (geomean): {mean_fast:.2f}x  "
        f"(target: >= {FAST_GATE}x)",
    ]

    # -- shape checks -----------------------------------------------------------
    assert mean_hit > 0.95
    for _, _, _, chained, _, fast, _ in rows:
        assert chained.core.scheduler.dispatcher.stats.chained > 0
        assert fast.core.scheduler.dispatcher.stats.chained > 0
    # Chaining alone helps at most modestly; it must never approach
    # Strata's 5x.  The fast engine must clear its throughput bar.
    assert mean_chain < 2.0
    assert mean_fast >= FAST_GATE, f"fast engine too slow: {mean_fast:.2f}x"

    save_and_show(capsys, "dispatcher", lines)
