"""Summary statistics for benchmark timings."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, one outlier decides its value.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND samples lie above it."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile q must lie in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def summary(values: list[float]) -> dict:
    """Median and p95 (None where too few samples lie beyond it), with the sample count."""
    return {"n": len(values),
            "p50": statistics.median(values) if values else None,
            "p95": percentile(values, 95.0)}
