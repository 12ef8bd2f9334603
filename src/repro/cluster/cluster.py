"""Cluster assembly: the paper's 5-node testbed as a simulated topology.

Section 9.1: one load-generator node, one backend-storage node (CouchDB for
the control-flow baselines, Kafka for DataFlower's pipe connectors), and
three 16-core/64 GB worker nodes.  The load generator needs no resources
of its own here (arrivals are generated directly by the load generator
processes), so the cluster materializes the storage node and the workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from .network import NetworkFabric
from .node import Node
from .storage import BackendStore, MemoryChannel

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and device parameters (paper defaults, see docs/architecture.md)."""

    worker_count: int = 3
    worker_cores: float = 16.0
    worker_memory_gb: float = 64.0
    #: 10 GbE worker NICs.
    worker_nic_bps: float = 1.25e9
    #: Local memory bus for intra-node data passing.
    membus_bps: float = 4.0e9
    membus_latency_s: float = 0.0002
    #: 200 GB SSD, 3000 IOPS: modest bandwidth plus per-op latency.
    disk_read_bps: float = 150e6
    disk_write_bps: float = 100e6
    disk_op_latency_s: float = 0.002
    #: Effective CouchDB service bandwidth via REST (well below NIC speed;
    #: §8 calls out its performance degradation) and per-op access latency.
    storage_service_bps: float = 100e6
    storage_op_latency_s: float = 0.004

    def validate(self) -> None:
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        for name in (
            "worker_cores",
            "worker_memory_gb",
            "worker_nic_bps",
            "membus_bps",
            "disk_read_bps",
            "disk_write_bps",
            "storage_service_bps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Cluster:
    """The simulated testbed: workers plus a backend storage node."""

    def __init__(self, env: "Environment", config: ClusterConfig = ClusterConfig()) -> None:
        config.validate()
        self.env = env
        self.config = config
        self.fabric = NetworkFabric(env)
        self.workers: List[Node] = [
            Node(
                env,
                self.fabric,
                name=f"worker{i + 1}",
                cores=config.worker_cores,
                memory_gb=config.worker_memory_gb,
                nic_bps=config.worker_nic_bps,
                membus_bps=config.membus_bps,
                disk_read_bps=config.disk_read_bps,
                disk_write_bps=config.disk_write_bps,
                disk_op_latency_s=config.disk_op_latency_s,
            )
            for i in range(config.worker_count)
        ]
        self.storage = BackendStore(
            env,
            self.fabric,
            name="backend",
            service_bps=config.storage_service_bps,
            op_latency_s=config.storage_op_latency_s,
        )
        #: The load-generator/gateway node: requests enter and results return
        #: here; the centralized production orchestrator also lives on it.
        self.gateway = Node(
            env,
            self.fabric,
            name="gateway",
            cores=8.0,
            memory_gb=16.0,
            nic_bps=config.worker_nic_bps,
            membus_bps=config.membus_bps,
            disk_read_bps=config.disk_read_bps,
            disk_write_bps=config.disk_write_bps,
            disk_op_latency_s=config.disk_op_latency_s,
        )
        self._memory_channels: Dict[str, MemoryChannel] = {}

    def node(self, name: str) -> Node:
        for worker in self.workers:
            if worker.name == name:
                return worker
        raise KeyError(f"no worker named {name!r}")

    def memory_channel(self, node: Node) -> MemoryChannel:
        """The intra-node memory channel for ``node`` (created lazily)."""
        if node.name not in self._memory_channels:
            self._memory_channels[node.name] = MemoryChannel(
                self.env,
                self.fabric,
                node.membus,
                op_latency_s=self.config.membus_latency_s,
            )
        return self._memory_channels[node.name]

    def total_memory_gbs(self) -> float:
        """Sum of per-node container-memory integrals, in GB*s."""
        from .telemetry import GB

        return sum(worker.memory_usage.integral() for worker in self.workers) / GB

    def total_cache_mbs(self) -> float:
        """Sum of per-node host-cache integrals, in MB*s."""
        from .telemetry import MB

        return sum(worker.cache_usage.integral() for worker in self.workers) / MB

    def __repr__(self) -> str:
        return f"<Cluster workers={len(self.workers)}>"
