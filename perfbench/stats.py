"""Order statistics the benchmark reports and compares with."""

from __future__ import annotations

import statistics

#: Tail ladder: the highest percentile with at least this many samples
#: beyond it is the one a run can support.
TAIL_LADDER = (95, 90, 75)
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """The ladder percentile ``count`` samples support.

    p95, p90 or p75 when at least ten samples lie beyond it; with fewer
    than 40 samples no ladder rung qualifies and the slowest call (100)
    stands in, which the result states beside the number.
    """
    for q in TAIL_LADDER:
        if count * (100 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return 100


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def summarize(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "spread": spread(values)}
