"""Summary statistics the benchmark reports.

A tail percentile is reported only when at least ten samples lie
beyond it: a p95 over three samples is their maximum, and a maximum
swings from run to run with whatever the host did at that moment.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: samples that must lie above a reported tail percentile
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile, refused (``ValueError``)
    when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed")
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(runs: Sequence[Dict[str, float]]) -> Dict[str, List[float]]:
    """Per metric: [median, q1, q3, spread] over several runs."""
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = [q2, q1, q3, spread(values)]
    return out
