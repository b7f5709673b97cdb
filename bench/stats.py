"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(p / 100 * n - 1e-9))


def beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail(samples) -> "tuple[float, float, int]":
    """(value, percentile, samples beyond it) for the highest candidate
    percentile with at least MIN_BEYOND samples beyond it.  With fewer than
    2 * MIN_BEYOND samples no candidate qualifies and the median is returned;
    the caller reports the percentile and count, so the shortfall shows."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return percentile(samples, p), p, beyond(n, p)
    return percentile(samples, 50.0), 50.0, beyond(n, 50.0)


def median(samples) -> float:
    return statistics.median(samples)
