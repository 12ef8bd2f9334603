"""Shard policies: how a trace splits into independently simulable cells.

A :class:`ShardPolicy` maps every :class:`~repro.loadgen.trace.TraceEvent`
to a *cell key*.  A cell is the unit of simulation in the sharded replay
engine: all events sharing a key replay together in one fresh simulated
world, and different cells never interact.  Crucially the cell partition
depends only on the trace and the policy — never on how many worker
processes the run uses or which executor runs it — which is what makes
the merged report bit-identical across ``--workers`` settings.

Two built-in policies:

``tenant``
    One cell per tenant (key = tenant name).  Preserves each tenant's
    intra-tenant container warmth and pacing exactly; models a
    shared-nothing per-tenant cluster cell.
``timeslice:<seconds>``
    One cell per fixed window of arrival time.  Balances skewed tenant
    loads across cells, but a tenant spanning windows restarts cold in
    each one — the classic locality-vs-balance trade-off
    (see ``docs/scaling.md``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from ..loadgen.trace import InvocationTrace, TraceEvent

__all__ = [
    "ShardPolicy",
    "TenantShardPolicy",
    "TimeSliceShardPolicy",
    "get_shard_policy",
    "shard_policy_names",
    "stable_hash",
]


def stable_hash(text: str) -> int:
    """A process-invariant 64-bit hash (``hash()`` is salted per run)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ShardPolicy:
    """Assigns every trace event to a cell key."""

    name = "abstract"

    def cell_key(self, event: TraceEvent) -> str:
        raise NotImplementedError

    def cell_cost(self, cell_trace: InvocationTrace) -> float:
        """Estimated replay cost of one cell, for scheduling only.

        The streaming engine submits cells costliest-first (the LPT
        heuristic), so a policy that knows some events are heavier than
        others can override this to improve the makespan.  Scheduling
        order never affects results — only wall-clock time — so the
        estimate is free to be wrong.
        """
        return float(len(cell_trace.events))

    def split(self, trace: InvocationTrace) -> List[Tuple[str, InvocationTrace]]:
        """The trace partitioned into ``(cell_key, sub-trace)`` pairs.

        Cells come back sorted by key; each sub-trace keeps the events'
        original timestamps and the parent trace's name suffixed with the
        cell key.
        """
        groups: Dict[str, List[TraceEvent]] = {}
        for event in trace.events:
            groups.setdefault(self.cell_key(event), []).append(event)
        return [
            (key, InvocationTrace(events=events, name=f"{trace.name}[{key}]"))
            for key, events in sorted(groups.items())
        ]


class TenantShardPolicy(ShardPolicy):
    """One cell per tenant: tenant-disjoint, warmth-preserving sharding."""

    name = "tenant"

    def cell_key(self, event: TraceEvent) -> str:
        return event.tenant


class TimeSliceShardPolicy(ShardPolicy):
    """One cell per ``slice_s``-second window of arrival time."""

    name = "timeslice"

    def __init__(self, slice_s: float = 60.0) -> None:
        if slice_s <= 0:
            raise ValueError("timeslice width must be positive")
        self.slice_s = float(slice_s)

    def cell_key(self, event: TraceEvent) -> str:
        return f"slice{int(event.at_s // self.slice_s):06d}"


def shard_policy_names() -> List[str]:
    return ["tenant", "timeslice[:<seconds>]"]


def get_shard_policy(spec: str) -> ShardPolicy:
    """Resolve a policy spec string (``tenant``, ``timeslice:30``)."""
    kind, _, arg = spec.partition(":")
    if kind == "tenant":
        if arg:
            raise ValueError("the tenant policy takes no argument")
        return TenantShardPolicy()
    if kind == "timeslice":
        try:
            return TimeSliceShardPolicy(float(arg)) if arg else TimeSliceShardPolicy()
        except ValueError as exc:
            raise ValueError(f"bad timeslice policy {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown shard policy {spec!r}; expected one of {shard_policy_names()}"
    )
