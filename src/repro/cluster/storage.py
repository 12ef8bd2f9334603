"""Backend storage (CouchDB-like) and in-memory KV cache (Redis-like).

Control-flow systems persist every intermediate datum in the backend store:
the source Puts, the destination Gets — the *double transfer* the paper
blames for heavy data-persistence overhead (§3.2.1).  The store is one
node whose service channel all operations share, plus a per-op access
latency; the shared channel is what makes the control-flow baselines
collapse at high load and prevents FaaSFlow from profiting when containers
scale up (Figure 17).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from .network import NetworkFabric, SharedLink

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event


class BackendStore:
    """A remote document store with limited aggregate service bandwidth."""

    def __init__(
        self,
        env: "Environment",
        fabric: NetworkFabric,
        name: str,
        service_bps: float,
        op_latency_s: float,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.name = name
        self.op_latency_s = op_latency_s
        #: All Puts funnel through this channel...
        self.ingress: SharedLink = fabric.link(f"{name}.in", service_bps)
        #: ...and all Gets through this one.
        self.egress: SharedLink = fabric.link(f"{name}.out", service_bps)
        self.objects: Dict[Tuple, float] = {}
        self.put_count = 0
        self.get_count = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0

    def put(
        self,
        key: Tuple,
        nbytes: float,
        via: Iterable[SharedLink],
        rate_cap: float = float("inf"),
    ) -> "Event":
        """Persist ``nbytes`` under ``key``; fires when the write completes.

        ``via`` carries the sender-side links (container egress, node NIC);
        the store's ingress channel is appended automatically.
        """
        self.put_count += 1
        self.bytes_in += nbytes

        def stored() -> None:
            self.objects[key] = nbytes

        return self.fabric.transfer_after(
            self.op_latency_s, nbytes, list(via) + [self.ingress],
            rate_cap=rate_cap, label=f"put:{key}", on_moved=stored,
        )

    def get(
        self,
        key: Tuple,
        via: Iterable[SharedLink],
        rate_cap: float = float("inf"),
        nbytes: Optional[float] = None,
    ) -> "Event":
        """Load the object under ``key``; fires when the read completes.

        When ``nbytes`` is given the size check is skipped (used by harness
        code that does not bother recording the Put first).
        """
        if nbytes is None:
            if key not in self.objects:
                raise KeyError(f"{self.name}: no object under {key!r}")
            nbytes = self.objects[key]
        self.get_count += 1
        self.bytes_out += nbytes
        return self.fabric.transfer_after(
            self.op_latency_s, nbytes, [self.egress] + list(via),
            rate_cap=rate_cap, label=f"get:{key}",
        )

    def delete(self, key: Tuple) -> None:
        self.objects.pop(key, None)

    def __repr__(self) -> str:
        return f"<BackendStore {self.name} puts={self.put_count} gets={self.get_count}>"


class MemoryChannel:
    """Intra-node data passing through local memory (Redis-like cache).

    Used by FaaSFlow for co-located functions and by DataFlower's local
    pipe connector.  Near-memory speed, but still a shared bus so extreme
    co-location pressure shows up.
    """

    def __init__(self, env: "Environment", fabric: NetworkFabric, membus: SharedLink,
                 op_latency_s: float) -> None:
        self.env = env
        self.fabric = fabric
        self.membus = membus
        self.op_latency_s = op_latency_s
        self.bytes_moved = 0.0

    def copy(self, nbytes: float, label: str = "memcopy",
             abandon: Optional["Event"] = None) -> "Event":
        """Move ``nbytes`` across the local memory bus; see
        :meth:`NetworkFabric.transfer_after` for ``abandon``."""
        self.bytes_moved += nbytes
        return self.fabric.transfer_after(
            self.op_latency_s, nbytes, [self.membus], label=label,
            abandon=abandon,
        )
