"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one slow sample cannot set it.
MIN_BEYOND = 10


def min_samples_for(p: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the p-th percentile has ``beyond`` samples above it."""
    return math.ceil(beyond * 100 / (100 - p))


def percentile(values, p: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank p-th percentile that has at least ``beyond`` samples above it.

    Raises ValueError when there are too few samples for that.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < beyond:
        raise ValueError(
            f"p{p:g} of {n} samples has {n - rank} beyond it; need {beyond} "
            f"(at least {min_samples_for(p, beyond)} samples)"
        )
    return xs[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
