"""Sample statistics the harness and the compare tool share.

Percentiles use the nearest-rank rule on the sorted sample.  A
percentile is *supported* only when at least ``MIN_BEYOND`` samples lie
beyond it (choosing-metrics guide, section 1): p50 needs 20 samples,
p90 needs 100, p99 needs 1 000.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(samples: int, pct: float) -> bool:
    """Do at least ``MIN_BEYOND`` samples lie beyond percentile ``pct``?"""
    beyond = samples - math.ceil(pct / 100.0 * samples)
    return beyond >= MIN_BEYOND


def supported_percentile(
    ordered: Sequence[float], pct: float
) -> Optional[float]:
    """The percentile, or ``None`` when the sample cannot support it."""
    if not supported(len(ordered), pct):
        return None
    return percentile(ordered, pct)


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median.

    ``None`` for fewer than four values: quartiles of two or three
    points say nothing about run-to-run spread."""
    if len(values) < 4:
        return None
    first, middle, third = statistics.quantiles(values, n=4)
    if middle == 0:
        return None
    return (third - first) / abs(middle)


def worsening(better: str, before: float, after: float) -> float:
    """By what share of ``before`` did ``after`` get worse (negative:
    it got better)."""
    if before == 0:
        return 0.0 if after == 0 else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(
    better: str,
    bound: float,
    before: Sequence[float],
    after: Sequence[float],
) -> Dict[str, object]:
    """Compare two sets of runs of one (metric, workload) pair.

    ``regressed`` when the median worsened by more than ``bound``;
    ``unresolved`` when either side's own spread is wider than the
    bound (unless every ``after`` run beats every ``before`` run);
    ``ok`` otherwise.
    """
    before_median = statistics.median(before)
    after_median = statistics.median(after)
    worse = worsening(better, before_median, after_median)
    spreads = [s for s in (spread(before), spread(after)) if s is not None]
    widest = max(spreads) if spreads else None
    if better == "lower":
        dominates = max(after) < min(before)
    else:
        dominates = min(after) > max(before)
    if widest is not None and widest > bound and not dominates:
        status = "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "ok"
    return {
        "status": status,
        "before": before_median,
        "after": after_median,
        "worse_by": worse,
        "spread": widest,
        "bound": bound,
    }


def median_ms(durations_ns: Sequence[int]) -> float:
    return statistics.median(durations_ns) / 1e6
