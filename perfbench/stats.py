"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(xs_sorted, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(xs_sorted)))
    return xs_sorted[k - 1]


def tail(values, pct: float):
    """Value at ``pct`` and the percentile used, or the maximum and 100.

    ``pct`` is used only when at least TAIL_MIN_BEYOND samples lie beyond its
    nearest rank; the percentile is fixed rather than the highest such one,
    so that it does not move when a faster program fits more samples in a run.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("tail of no samples")
    if n - max(1, math.ceil(pct / 100.0 * n)) >= TAIL_MIN_BEYOND:
        return nearest_rank(xs, pct), pct
    return xs[-1], 100.0
