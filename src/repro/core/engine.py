"""The per-node workflow scheduling engine (paper §4, §6).

One engine runs on every node that hosts at least one function of a
deployed workflow.  It is decentralized: it parses only the local slice of
the data-flow graph, watches the local data sink for input availability,
and triggers a function the moment all of its inputs are present —
no central orchestrator, no topological-order serialization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..cluster.node import Node
from ..sim.resources import Resource
from .sink import WaitMatchMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class NodeEngine:
    """Scheduling engine plus data sink of one host node."""

    def __init__(
        self,
        env: "Environment",
        node: Node,
        sink: WaitMatchMemory,
        trigger_cost: Callable[[], float],
    ) -> None:
        self.env = env
        self.node = node
        self.sink = sink
        self._trigger_cost = trigger_cost
        #: Data-availability checks serialize through the engine, but at
        #: ~2 ms each this never becomes the bottleneck the centralized
        #: orchestrator is (Figure 2(c) vs Figure 13).
        self._slot = Resource(env)
        self.triggers = 0

    def trigger(self, dispatch: Callable[[], None],
                on_triggered: Callable[[], None]) -> None:
        """Fire a ready task: account the engine's reaction time, then
        hand the invocation to the function's dispatcher."""
        self.triggers += 1

        def fire() -> None:
            on_triggered()
            dispatch()

        # Queue for the engine slot, hold it for the reaction time, fire.
        self._slot.hold(self._trigger_cost, fire)

    def __repr__(self) -> str:
        return f"<NodeEngine {self.node.name} triggers={self.triggers}>"
