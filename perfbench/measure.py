"""Order statistics for op latencies."""

import math
from fractions import Fraction

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def _rank(n, q):
    # exact decimal arithmetic: 99.9 / 100 * 10000 is not 9990 in floats
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def tail_level(n):
    """The highest percentile in TAIL_LEVELS with at least MIN_BEYOND of n
    samples beyond it, or None when there are too few samples."""
    for q in TAIL_LEVELS:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None

