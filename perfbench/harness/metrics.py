"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: The tail percentile is the highest one with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile
    that leaves at least *beyond* samples strictly above its rank.

    With n sorted samples that is rank ``n - beyond`` (1-based), i.e.
    percentile ``100 * (n - beyond) / n``; fewer than ``beyond + 1``
    samples have no such percentile.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples: a tail needs more than {beyond}")
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def end_to_end_values(
    job_walls: Sequence[float],
    guest_insns: int,
    pass_walls: Sequence[float],
    setups: Sequence[float],
    rss_kb: int,
    *,
    attempted: int,
    failed: int,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metric values of one run, and a note per metric
    on how it was taken (sample counts, the tail percentile used)."""
    tail_s, tail_pct = tail(job_walls)
    values = {
        "guest_mips": guest_insns / sum(pass_walls) / 1e6,
        "job_s_p50": median(job_walls),
        "job_s_tail": tail_s,
        "setup_s": median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "guest_mips": f"{len(pass_walls)} passes",
        "job_s_p50": f"{len(job_walls)} jobs",
        "job_s_tail": f"p{tail_pct:.1f} of {len(job_walls)} jobs",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ok_ratio": f"{failed} of {attempted} jobs failed",
    }
    return values, notes
