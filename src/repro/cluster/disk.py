"""Local disk model: a bandwidth channel plus per-operation latency.

The paper's nodes carry a 200 GB SSD rated at 3000 IOPS; worker-local SSDs
back the SONIC data passing and the data-sink spill path.  We model a disk
as two :class:`SharedLink` channels (read, write) plus a fixed per-op
latency that stands in for seek/queue/IOPS cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .network import NetworkFabric

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event


class LocalDisk:
    """A node-local SSD with separate read/write channels."""

    def __init__(
        self,
        env: "Environment",
        fabric: NetworkFabric,
        name: str,
        read_bps: float,
        write_bps: float,
        op_latency_s: float,
    ) -> None:
        if op_latency_s < 0:
            raise ValueError("op_latency_s must be non-negative")
        self.env = env
        self.fabric = fabric
        self.name = name
        self.op_latency_s = op_latency_s
        self.read_link = fabric.link(f"{name}.read", read_bps)
        self.write_link = fabric.link(f"{name}.write", write_bps)
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    def read(self, nbytes: float, label: str = "disk-read") -> "Event":
        """Event firing when ``nbytes`` have been read from the disk."""
        self.bytes_read += nbytes
        return self._operation(nbytes, self.read_link, label)

    def write(self, nbytes: float, label: str = "disk-write") -> "Event":
        """Event firing when ``nbytes`` have been written to the disk."""
        self.bytes_written += nbytes
        return self._operation(nbytes, self.write_link, label)

    def _operation(self, nbytes: float, link, label: str) -> "Event":
        return self.fabric.transfer_after(
            self.op_latency_s, nbytes, [link], label=label
        )
