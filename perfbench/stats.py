"""Percentiles for latency samples."""

from __future__ import annotations

import math

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
BEYOND = 10


def rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least ``BEYOND`` of n samples above it."""
    best = None
    for p in LADDER:
        if n - rank(p, n) >= BEYOND:
            best = p
    return best


def percentile(samples, p: float) -> float:
    xs = sorted(samples)
    return xs[rank(p, len(xs)) - 1]
