"""Percentiles for one run, and verdicts for comparing two sets of runs.

Percentiles are nearest-rank over the sample, with a failed operation
counted as infinitely slow; a percentile that lands on a failure
reads as the deadline. :func:`supported_quantile` is the rule for
which percentile a sample can report: the highest that still has at
least ten samples beyond it.

:func:`verdict` applies the regression rules of the method this
benchmark follows: a gain needs the change to win nine tenths of the
pairs and to move the median by more than the parent's own
interquartile spread; a loss is a median worse by more than the
metric's bound; and a metric whose run-to-run spread is wider than
its bound is *unresolved* unless every change run beats every parent
run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "TAIL_QUANTILES",
    "percentile",
    "quartiles",
    "supported_quantile",
    "verdict",
]

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES = (0.999, 0.99, 0.9, 0.5)


def percentile(values: Sequence[float], q: float, cap: float = math.inf) -> float:
    """Nearest-rank ``q`` percentile; an infinite pick reads as ``cap``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return min(ordered[index], cap)


def supported_quantile(n: int) -> float:
    """The highest of :data:`TAIL_QUANTILES` with ≥10 samples beyond it
    (0.0 when even the median is not supported)."""
    for q in TAIL_QUANTILES:
        if n - math.ceil(q * n) >= 10:
            return q
    return 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: List[float],
    change: List[float],
    lower_is_better: bool,
    bound: float,
) -> Dict:
    """Compare one metric on one workload; runs are paired by index."""
    sign = 1.0 if lower_is_better else -1.0

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_fraction = wins / len(pairs) if pairs else 0.0
    spread = (p3 - p1) / abs(p_med) if p_med else math.inf
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound:
        outcome = "better" if all_better else "unresolved"
    elif win_fraction >= 0.9 and better(c_med, p_med) and abs(c_med - p_med) > p3 - p1:
        outcome = "better"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "win_fraction": win_fraction,
        "spread": spread,
        "worse_by": worse_by,
        "verdict": outcome,
    }
