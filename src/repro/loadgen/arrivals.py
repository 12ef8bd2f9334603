"""Open-loop arrival processes (the paper's *asynchronous invocations*).

With asynchronous invocation, requests arrive at a given offered load
regardless of completions.  Schedules are expressed as segments of
``(duration_s, rate_rpm)``, which directly supports the bursty experiment
(Figure 15: wc jumps from 10 rpm to 100 rpm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class RateSegment:
    """A constant offered load for a fixed span of time."""

    duration_s: float
    rate_rpm: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_rpm < 0:
            raise ValueError("rate_rpm must be non-negative")


def constant(rate_rpm: float, duration_s: float) -> List[RateSegment]:
    """A single-rate schedule."""
    return [RateSegment(duration_s, rate_rpm)]


def burst(
    base_rpm: float,
    burst_rpm: float,
    base_duration_s: float,
    burst_duration_s: float,
) -> List[RateSegment]:
    """Figure 15's step burst: base load, then a sudden surge."""
    return [
        RateSegment(base_duration_s, base_rpm),
        RateSegment(burst_duration_s, burst_rpm),
    ]


def arrival_times(
    schedule: Sequence[RateSegment],
    poisson: bool = False,
    seed: int = 0,
) -> List[float]:
    """Absolute submission times for a schedule.

    ``poisson=False`` spaces arrivals evenly inside each segment (a paced
    open loop, the common load-generator default); ``poisson=True`` draws
    exponential gaps at the segment's rate.
    """
    rng = random.Random(seed)
    times: List[float] = []
    segment_start = 0.0
    for segment in schedule:
        rate_per_s = segment.rate_rpm / 60.0
        end = segment_start + segment.duration_s
        if rate_per_s > 0:
            if poisson:
                t = segment_start + rng.expovariate(rate_per_s)
                while t < end:
                    times.append(t)
                    t += rng.expovariate(rate_per_s)
            else:
                # Each time is computed from its index, not by summing
                # gaps, so rounding error cannot pile up into an extra
                # arrival at the end of a long segment.
                gap = 1.0 / rate_per_s
                index = 0
                t = segment_start
                while t < end - 1e-12:
                    times.append(t)
                    index += 1
                    t = segment_start + index * gap
        segment_start = end
    return times


def total_duration(schedule: Sequence[RateSegment]) -> float:
    return sum(segment.duration_s for segment in schedule)
