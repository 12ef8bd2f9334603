"""Statistics helpers: percentiles, CDFs, and dispersion.

Implemented from first principles (linear-interpolation percentiles, the
same convention as numpy's default) so the metric definitions are explicit
and unit-testable.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (the paper reports sigma)."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) of *already-sorted* values.

    The one copy of the interpolation arithmetic: :func:`percentile`
    sorts and delegates here, and lazily materialized summaries (which
    sort their samples once for several percentiles) call it directly —
    so eager and lazy percentiles are byte-identical by construction.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    value = ordered[lower] * (1 - weight) + ordered[upper] * weight
    # Clamp float-rounding residue back inside the bracketing samples.
    return min(max(value, ordered[lower]), ordered[upper])


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation."""
    return percentile_sorted(sorted(values), q)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 99.0)


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative probability) steps."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold."""
    if not values:
        raise ValueError("cdf of empty sequence")
    return sum(1 for v in values if v <= threshold) / len(values)
