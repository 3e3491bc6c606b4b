"""A host-speed probe, so timed metrics can be compared across runs.

The reference machine is a shared VM whose speed drifts by tens of
percent over tens of seconds, for every process on it alike.  The
benchmark runs :func:`probe` after every job (outside the job's timing)
and rescales its timed metrics to a host on which the probe takes
:data:`REF_S` seconds.  The probe unpickles a fixed structure of dicts,
tuples, lists and strings: allocation-heavy C-level object building, the
kind of work the engine's jobs are made of (of the probes tried --
unpickling, ``compile()``, a pure-Python interpreter loop, fork+wait --
its times tracked both in-process and forked jobs most closely).  It is
part of the benchmark, not of the engine, so a change to the engine
never moves it.
"""

from __future__ import annotations

import pickle
import time
from statistics import median
from typing import Sequence

#: Probe seconds on a quiet reference machine (2-core x86-64 VM,
#: CPython 3.11): the speed every timed metric is rescaled to.
REF_S = 0.0016

_BLOB = pickle.dumps([
    {f"k{i}": (i, str(i), [i, i + 1], {"v": i}) for i in range(50)}
    for _ in range(20)
])
_REPEAT = 3


def probe() -> float:
    """Seconds the fixed probe workload takes right now."""
    t0 = time.perf_counter()
    for _ in range(_REPEAT):
        pickle.loads(_BLOB)
    return time.perf_counter() - t0


def scale(probes: Sequence[float]) -> float:
    """Factor that turns seconds measured alongside *probes* into
    seconds on the reference host (rates divide by it)."""
    return REF_S / median(probes)
