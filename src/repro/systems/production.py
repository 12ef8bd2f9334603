"""Production-style serverless workflow platform (paper §3.2 study).

Models the common shape of AWS Step Functions / Azure Durable Functions /
Alibaba Serverless Workflow as characterized in Figure 2: a *centralized*
orchestrator (state machine) on the control node triggers functions in
topological order at ~63 ms of state management per transition, and every
intermediate datum round-trips through the backend store.

Also provides the Figure 19 "state machine" mode for stateful functions:
instead of the backend store, outputs are shipped to the orchestrator node
as a context object and forwarded to the next function from there —
unlimited-size stateful data passing, still two network hops.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.node import Node
from ..sim.resources import Resource
from .controlflow import ControlFlowConfig, ControlFlowSystem


@dataclass(frozen=True)
class ProductionConfig(ControlFlowConfig):
    #: Figure 2(c): ~63 ms average state-management overhead per trigger.
    trigger_mean_s: float = 0.063
    trigger_jitter_s: float = 0.018
    #: Figure 19 mode: pass data through the orchestrator's context object
    #: (state machine on EC2 with unlimited cache) instead of the backend.
    state_machine_data: bool = False


class ProductionSystem(ControlFlowSystem):
    """Centralized control-flow orchestration with backend persistence."""

    name = "production"

    def __init__(self, env, cluster, config: ProductionConfig = ProductionConfig()):
        super().__init__(env, cluster, config)
        self.config: ProductionConfig = config
        #: One state machine for the whole cluster, on the gateway node.
        self._central = Resource(env, capacity=1)

    def _orchestrator(self, node: Node) -> Resource:
        return self._central

    def _get_input(self, deployment, state, task, edge, container):
        node = deployment.node_of(task.function)
        if self.config.state_machine_data:
            return self._context_get(state, edge, node, container)
        return self._backend_get(state, edge, node, container)

    def _put_output(self, deployment, state, task, edge, container):
        node = deployment.node_of(task.function)
        if self.config.state_machine_data:
            return self._context_put(state, edge, node, container)
        return self._backend_put(state, edge, node, container)

    # -- Figure 19: state-machine context-object data passing --------------------

    def _context_put(self, state, edge, node: Node, container):
        """Ship the output to the orchestrator's context object."""
        gateway = self.cluster.gateway
        flow = self.cluster.fabric.transfer(
            edge.nbytes,
            [container.egress, node.egress, gateway.ingress],
            rate_cap=container.spec.net_bytes_per_s,
            label=f"ctx-put:{edge.dataname}",
        )
        return self._completion(flow.done)

    def _context_get(self, state, edge, node: Node, container):
        """Receive the context object from the orchestrator."""
        gateway = self.cluster.gateway
        flow = self.cluster.fabric.transfer(
            edge.nbytes,
            [gateway.egress, node.ingress, container.ingress],
            rate_cap=container.spec.net_bytes_per_s,
            label=f"ctx-get:{edge.dataname}",
        )
        return self._completion(flow.done)
