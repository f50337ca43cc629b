"""Summary statistics for benchmark timings.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count, so that a tail figure is never read off one or two outliers.
"""

from __future__ import annotations

import math
import re
import statistics

# Percentiles considered for the tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-`` only, at most 64 long."""
    return METRIC_NAME.fullmatch(name) is not None


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by the nearest-rank rule (1-based rank ceil(p n / 100))."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def tail_percentile(values):
    """Highest ladder percentile with at least ten samples strictly beyond it.

    Returns ``(p, value)``, or ``None`` when even the median has fewer
    than ten samples above it. Samples tied with the percentile value do
    not count as beyond it.
    """
    ordered = sorted(values)
    best = None
    for p in PERCENTILE_LADDER:
        value = nearest_rank(ordered, p)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= MIN_BEYOND:
            best = (p, value)
    return best


def summarize(values) -> dict:
    """Median, tail percentile and count of a list of samples."""
    if not values:
        return {"n": 0, "median": None, "tail": None}
    tail = tail_percentile(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def relative_iqr(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
