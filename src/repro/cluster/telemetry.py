"""Resource-usage accounting: time integrals and interval recorders.

The paper reports two integral metrics — container memory usage in GB*s
(Figure 10) and host cache usage in MB*s (Figure 14) — plus per-container
CPU/network usage timelines (Figure 2(b)).  These helpers compute all of
them exactly from the event trace, without sampling error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

GB = 1024.0 ** 3
MB = 1024.0 ** 2
KB = 1024.0


class TimeIntegral:
    """Integrates a piecewise-constant quantity over simulated time.

    ``add(delta)`` shifts the current level at ``env.now``; ``integral()``
    returns the exact integral of the level from t=0 (or ``since``) to now.
    """

    def __init__(self, env: "Environment", initial: float = 0.0) -> None:
        self.env = env
        self._level = float(initial)
        self._accumulated = 0.0
        self._last_change = env.now
        self._peak = float(initial)

    @property
    def level(self) -> float:
        return self._level

    @property
    def peak(self) -> float:
        return self._peak

    def add(self, delta: float) -> None:
        """Change the level by ``delta`` at the current time."""
        self._settle()
        self._level += delta
        # Sub-unit float residue from many add/remove pairs is clamped;
        # anything larger indicates a real double-release bug.
        if self._level < -1.0:
            raise ValueError(
                f"TimeIntegral level went negative ({self._level}) at "
                f"t={self.env.now}"
            )
        self._level = max(self._level, 0.0)
        self._peak = max(self._peak, self._level)

    def set(self, value: float) -> None:
        self.add(value - self._level)

    def integral(self) -> float:
        """The integral of the level from construction until now."""
        return self._accumulated + self._level * (self.env.now - self._last_change)

    def _settle(self) -> None:
        now = self.env.now
        self._accumulated += self._level * (now - self._last_change)
        self._last_change = now


class IntervalRecorder:
    """Records labelled busy intervals, e.g. compute and transfer phases."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._open: dict = {}
        self.intervals: List[Tuple[float, float, str]] = []

    def begin(self, key: object, label: str) -> None:
        if key in self._open:
            raise ValueError(f"interval {key!r} already open")
        self._open[key] = (self.env.now, label)

    def end(self, key: object) -> None:
        start, label = self._open.pop(key)
        self.intervals.append((start, self.env.now, label))

    def end_all(self) -> None:
        """Close every open interval now."""
        for key in list(self._open):
            self.end(key)

    def labelled(self, label: str) -> List[Tuple[float, float]]:
        """All closed (start, end) intervals carrying ``label``."""
        return [(s, e) for (s, e, lab) in self.intervals if lab == label]

    def busy_fraction(self, label: str, horizon: Optional[float] = None) -> float:
        """Fraction of [0, horizon] covered by ``label`` intervals (union)."""
        end_time = horizon if horizon is not None else self.env.now
        if end_time <= 0:
            return 0.0
        spans = sorted(self.labelled(label))
        covered = 0.0
        cursor = 0.0
        for start, end in spans:
            start = max(start, cursor)
            end = min(end, end_time)
            if end > start:
                covered += end - start
                cursor = end
        return covered / end_time


def overlap_seconds(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total time during which an interval from ``a`` overlaps one from ``b``.

    Used to quantify computation/communication overlap (Figure 3's claim).
    Inputs need not be sorted or disjoint; unions are taken first.
    """

    def union(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
        merged: List[Tuple[float, float]] = []
        for start, end in sorted(spans):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    total = 0.0
    ia, ib = union(a), union(b)
    i = j = 0
    while i < len(ia) and j < len(ib):
        lo = max(ia[i][0], ib[j][0])
        hi = min(ia[i][1], ib[j][1])
        if hi > lo:
            total += hi - lo
        if ia[i][1] < ib[j][1]:
            i += 1
        else:
            j += 1
    return total
