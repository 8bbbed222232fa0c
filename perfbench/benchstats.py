"""Summary arithmetic of the benchmark: medians, supported percentiles, error rate.

Pure functions over plain lists, so ``test_perfbench.py`` can pin them
without importing the library under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    """The median of ``values`` (0.0 for an empty sample)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` quantile (0 < q <= 1) in ``n`` samples."""
    if n < 1:
        raise ValueError("rank needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    return max(1, math.ceil(q * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q`` quantile."""
    return n - rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values`` (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[rank(len(ordered), q) - 1])


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples carry at least ``min_beyond`` samples beyond ``q``."""
    return n >= 1 and beyond(n, q) >= min_beyond


def latency_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median and p99 with the sample count and whether the p99 is supported."""
    n = len(values)
    return {
        "n": n,
        "p50": percentile(values, 0.5),
        "p99": percentile(values, 0.99),
        "p99_beyond": beyond(n, 0.99) if n else 0,
        "p99_supported": supported(n, 0.99),
    }


def rate(latencies_s: Sequence[float], changes: int) -> float:
    """Changes per second of update time (0.0 without updates)."""
    busy = sum(latencies_s)
    return changes / busy if busy > 0 else 0.0


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} must lie in [0, attempted={attempted}]")
    return failed / attempted
