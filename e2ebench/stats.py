"""Order statistics for op timings."""

from __future__ import annotations

import math

__all__ = ["TAIL_LADDER", "nearest_rank", "tail_percentile", "tail"]

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)

#: Samples a percentile must have beyond it to be reported as the tail.
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ceil(p/100 n)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int | None:
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples strictly above its rank, or ``None`` when none has."""
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p
    return None


def tail(values: list[float]) -> tuple[float, str, int]:
    """``(value, percentile label, sample count)`` for the tail rule.

    With too few samples for any ladder percentile the maximum is
    reported and labelled ``"max"``."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        return ordered[-1], "max", len(ordered)
    return nearest_rank(ordered, p), f"p{p}", len(ordered)
