"""Sample statistics shared by the runner, the baseline tool and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.

    Nearest rank always returns a value that was measured, so a p95
    over 216 latencies is one of those latencies, not an interpolation
    between a stalled request and a fast one.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supported_tail(count: int) -> Optional[int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100 >= 10:
            return q
    return None


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the benchmark is accepted by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
