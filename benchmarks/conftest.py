"""Shared machinery for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure from the paper (see
DESIGN.md's experiment index).  Every bench

* prints its table/figure to the terminal (through ``capsys.disabled()``,
  so it shows even without ``-s``), and
* writes the same text to ``benchmarks/results/<id>.txt``, which
  EXPERIMENTS.md indexes.

The workload scale can be adjusted with REPRO_BENCH_SCALE (default 0.2);
larger scales sharpen the timing ratios at the cost of wall-clock time.
Only a run at the default scale rewrites a committed ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

#: Workload scale of a default run: the one the committed BENCH_*.json
#: files record.
DEFAULT_SCALE = 0.2

#: Workload scale for timing benches.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))

#: Scale used when the ``--quick`` flag is given (CI smoke runs).
QUICK_SCALE = 0.1

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=f"smoke-run the benches at scale {QUICK_SCALE} "
        "(overrides REPRO_BENCH_SCALE)",
    )


def pytest_configure(config):
    # Benches read SCALE at import, which happens after configure — so a
    # plain module-global update is enough.
    if config.getoption("--quick", default=False):
        global SCALE
        SCALE = QUICK_SCALE


def save_bench_json(path: pathlib.Path, payload: dict) -> None:
    """Write a committed ``BENCH_*.json``, at the default scale only: a
    --quick smoke run or a resized one leaves the committed numbers and
    gates alone."""
    if SCALE == DEFAULT_SCALE:
        path.write_text(json.dumps(payload, indent=2) + "\n")


def save_and_show(capsys, experiment_id: str, lines) -> None:
    """Print a report (bypassing capture) and save it under results/."""
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)
    with capsys.disabled():
        print(f"\n──── {experiment_id} " + "─" * max(0, 60 - len(experiment_id)))
        print(text, end="")


def time_run(fn) -> float:
    """Wall-clock one call."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def geomean(values) -> float:
    import math

    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
