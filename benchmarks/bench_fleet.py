"""Fleet supervisor throughput, self-healing overhead, and warm starts.

Not a paper figure: this measures the PR's service layer — the
crash-isolated worker pool behind :func:`repro.api.run_fleet` — on four
axes:

* ``sequential``  — N jobs run back-to-back in-process via ``api.run``
  (the no-pool baseline);
* ``fleet``       — the same N jobs across a 4-worker pool, no faults;
* ``fleet+chaos`` — the same fleet under a seeded worker-fault plan
  (kill/hang mid-run) with retry + backoff, measuring what the
  self-healing machinery costs when things actually go wrong;
* ``warm start``  — a translation-heavy fleet (hundreds of distinct
  blocks under Memcheck at the pygen tier) with a shared persistent
  ``--cache-dir``, run cache-less, cache-cold and cache-warm.  The warm
  run skips the whole 8-phase pipeline on every block.

Gates: every clean job succeeds, every chaos job ends in a classified
terminal state, the warm fleet reports cache hits in the aggregated
stats, and warm wall time beats the no-cache fleet by ``WARM_GATE``
(1.3x at full scale; relaxed on ``--quick`` smoke runs where fork
overhead dominates the tiny jobs).

The timing table is also written machine-readable to
``BENCH_fleet.json`` at the repo root.
"""

import pathlib
import tempfile
import time

from repro.api import JobSpec, RetryPolicy, WatchdogConfig, run, run_fleet
from repro.core.faultinject import FleetInjector
from repro.core.supervisor import TERMINAL_STATES

from conftest import QUICK_SCALE, SCALE, save_and_show, save_bench_json

ITERS = max(2000, int(40_000 * SCALE))
N_JOBS = max(8, int(60 * SCALE))
WORKERS = 4

#: Warm-start phase sizing: distinct functions (= distinct translations)
#: per program, and identical jobs sharing one cache directory.
N_FUNCS = max(60, int(400 * SCALE))
N_CACHE_JOBS = max(6, int(24 * SCALE))

#: Warm-vs-nocache wall-time gate.  At --quick scale the pool's fork +
#: pipe overhead dominates these small jobs, so only sanity-gate there.
WARM_GATE = 1.3 if SCALE > QUICK_SCALE else 1.05

JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"

LOOP_SRC = """\
main:
        movi r0, %d
loop:
        sub  r0, 1
        jnz  loop
        movi r0, 7
        ret
""" % ITERS

FLAGS = ["--dispatch-quantum=200"]
CACHE_FLAGS = ["--codegen=pygen", "--stats=json"]
WATCHDOG = WatchdogConfig(wall_budget=120.0, heartbeat_timeout=5.0,
                          poll_interval=0.01)


def _many_blocks_src(n_funcs: int) -> str:
    """A program that is almost all translation: *n_funcs* distinct
    functions, each called once and looping only a handful of times."""
    parts = ["main:"]
    for i in range(n_funcs):
        parts.append(f"        call fn{i}")
    parts += ["        movi r0, 7", "        ret"]
    for i in range(n_funcs):
        parts += [
            f"fn{i}:",
            f"        movi r1, {i}",
            "        add  r6, r1",
            "        movi r2, 3",
            f"lp{i}:",
            "        sub  r2, 1",
            f"        jnz  lp{i}",
            "        ret",
        ]
    return "\n".join(parts) + "\n"


def _jobs(program, n, tool="none", flags=FLAGS):
    return [JobSpec(job_id=i, program=program, tool=tool,
                    flags=list(flags)) for i in range(n)]


def _timed_fleet(jobs, **kw):
    t0 = time.perf_counter()
    report = run_fleet(jobs, workers=WORKERS, watchdog=WATCHDOG, **kw)
    return time.perf_counter() - t0, report


def test_fleet_bench(capsys, tmp_path):
    program = str(tmp_path / "loop.s")
    with open(program, "w") as f:
        f.write(LOOP_SRC)

    t0 = time.perf_counter()
    for spec in _jobs(program, N_JOBS):
        res = run(spec.program, spec.tool, argv=[spec.program])
        assert res.exit_code == 7
    t_seq = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as bundles:
        t_fleet, clean = _timed_fleet(
            _jobs(program, N_JOBS), bundle_dir=bundles,
        )

    with tempfile.TemporaryDirectory() as bundles:
        t_chaos, chaos = _timed_fleet(
            _jobs(program, N_JOBS),
            policy=RetryPolicy(max_retries=2, backoff_base=0.01, seed=7),
            inject=FleetInjector("kill:0.2,hang:0.05,seed=7"),
            bundle_dir=bundles,
        )

    assert clean.summary["succeeded"] == N_JOBS
    mix = {s: chaos.summary[s] for s in TERMINAL_STATES}
    assert sum(mix.values()) == N_JOBS  # every job classified

    # -- warm start: shared persistent translation cache ----------------
    heavy = str(tmp_path / "many_blocks.s")
    with open(heavy, "w") as f:
        f.write(_many_blocks_src(N_FUNCS))
    cache_dir = str(tmp_path / "codecache")

    def cache_jobs():
        return _jobs(heavy, N_CACHE_JOBS, tool="memcheck",
                     flags=CACHE_FLAGS)

    t_nocache, nocache = _timed_fleet(cache_jobs(), record_bundles=False)
    t_cold, cold = _timed_fleet(cache_jobs(), record_bundles=False,
                                cache_dir=cache_dir)
    t_warm, warm = _timed_fleet(cache_jobs(), record_bundles=False,
                                cache_dir=cache_dir)

    for rep in (nocache, cold, warm):
        assert rep.summary["succeeded"] == N_CACHE_JOBS
    assert warm.cache is not None and warm.cache["hits"] > 0
    warm_speedup = t_nocache / t_warm
    assert warm_speedup >= WARM_GATE, (
        f"warm fleet speedup {warm_speedup:.2f}x < gate {WARM_GATE}x "
        f"(nocache {t_nocache:.2f}s, warm {t_warm:.2f}s)"
    )

    rows = [
        ("sequential", t_seq, N_JOBS),
        (f"fleet x{WORKERS}", t_fleet, N_JOBS),
        (f"fleet x{WORKERS} +chaos", t_chaos, N_JOBS),
        ("cache: none", t_nocache, N_CACHE_JOBS),
        ("cache: cold shared", t_cold, N_CACHE_JOBS),
        ("cache: warm shared", t_warm, N_CACHE_JOBS),
    ]
    lines = [
        f"fleet supervisor: {N_JOBS} jobs of {ITERS} loop iterations "
        f"(tool=none, {WORKERS} workers); warm-start phase: "
        f"{N_CACHE_JOBS} jobs x {N_FUNCS} functions "
        f"(memcheck, pygen tier)",
        "",
        f"{'mode':<22} {'wall (s)':>9} {'jobs/s':>8}",
    ]
    for name, wall, n in rows:
        lines.append(f"{name:<22} {wall:>9.2f} {n / wall:>8.1f}")
    lines += [
        "",
        "chaos terminal states: "
        + " ".join(f"{k}={v}" for k, v in mix.items()),
        "chaos attempts: %d  worker deaths: %d  hang reaps: %d"
        % (chaos.summary["attempts"],
           chaos.summary["worker_deaths"],
           chaos.summary["watchdog_hang"]),
        "warm cache: hits=%d misses=%d stores=%d  speedup %.2fx "
        "(gate %.2fx)"
        % (warm.cache["hits"], warm.cache["misses"],
           warm.cache["stores"], warm_speedup, WARM_GATE),
    ]
    save_and_show(capsys, "fleet", lines)

    save_bench_json(JSON_PATH, {
        "scale": SCALE,
        "workers": WORKERS,
        "jobs": N_JOBS,
        "cache_jobs": N_CACHE_JOBS,
        "cache_funcs": N_FUNCS,
        "wall_seconds": {
            "sequential": round(t_seq, 3),
            "fleet": round(t_fleet, 3),
            "fleet_chaos": round(t_chaos, 3),
            "cache_none": round(t_nocache, 3),
            "cache_cold": round(t_cold, 3),
            "cache_warm": round(t_warm, 3),
        },
        "warm_speedup": round(warm_speedup, 3),
        "warm_gate": WARM_GATE,
        "warm_cache_stats": warm.cache,
        "chaos_terminal_states": mix,
    })
