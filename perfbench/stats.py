"""Order statistics for op latencies."""
from __future__ import annotations

import math

# Candidate tail percentiles, highest first.  A fixed ladder (rather than
# "the 11th-largest sample") keeps the reported percentile a quantile of the
# workload's op mix, so it does not drift with how many passes fit in a run.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail(values) -> dict:
    """The highest ladder percentile that leaves at least MIN_BEYOND samples
    above its nearest-rank value.

    Returns the percentile, its value, the number of samples beyond it and
    the sample count.  A sample too small for any rung (fewer than 40) falls
    back to the median, and ``beyond`` shows whether ten samples lie past it.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("empty sample")
    for pct in TAIL_LADDER:
        k = max(1, math.ceil(pct / 100.0 * n))
        if n - k >= MIN_BEYOND:
            return {"percentile": pct, "value": s[k - 1], "beyond": n - k, "samples": n}
    k = max(1, math.ceil(0.5 * n))
    return {"percentile": 50.0, "value": s[k - 1], "beyond": n - k, "samples": n}
