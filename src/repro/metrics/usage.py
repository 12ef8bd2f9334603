"""Resource-usage metrics derived from cluster telemetry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster


@dataclass(frozen=True)
class UsageSummary:
    """The paper's cost metrics for one run.

    ``memory_gbs``
        Integral of container-resident memory over time (Figure 10's
        "Memory(GB*s)"), divided by completed requests when reported
        per-request.
    ``cache_mbs``
        Integral of host-side intermediate-data cache (Figure 14's
        "Cache Usage(MB*s)").
    """

    memory_gbs: float
    cache_mbs: float
    completed_requests: int

    def merge(self, other: "UsageSummary") -> "UsageSummary":
        """The usage of two disjoint runs combined (integrals add)."""
        if not isinstance(other, UsageSummary):
            raise TypeError(
                f"cannot merge UsageSummary with {type(other).__name__}"
            )
        return UsageSummary(
            memory_gbs=self.memory_gbs + other.memory_gbs,
            cache_mbs=self.cache_mbs + other.cache_mbs,
            completed_requests=self.completed_requests + other.completed_requests,
        )

    @property
    def memory_gbs_per_request(self) -> float:
        if self.completed_requests == 0:
            return float("nan")
        return self.memory_gbs / self.completed_requests

    @property
    def cache_mbs_per_request(self) -> float:
        if self.completed_requests == 0:
            return float("nan")
        return self.cache_mbs / self.completed_requests


def collect_usage(cluster: "Cluster", completed_requests: int) -> UsageSummary:
    return UsageSummary(
        memory_gbs=cluster.total_memory_gbs(),
        cache_mbs=cluster.total_cache_mbs(),
        completed_requests=completed_requests,
    )
